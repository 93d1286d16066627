"""Command-line front end: run pipelines, compare them, verify against grids.

Output is deterministic.  Terms are emitted in canonical sorted order and
exact rationals as "p/q" strings, so identical configurations produce
byte-identical output.  Floats appear only in numeric verification blocks.
JSON is ``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline; a
run's document is written directly in that layout, byte for byte.

Each input rule has one converter: a flag's argparse ``type``, and the check
after the JSON-type check of a --config value or a --golden field.  It and
the parser raise `InputError`, so a rejected input is one ``error:`` line.

Exit codes: 0 success or agreement, 1 disagreement, 2 rejected input
(including a grid too coarse to resolve the harmonic gaussian), 3 grid
solver failed to converge, 4 any other failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from .algebra import GradedPoly
from .errors import ConvergenceFailure
from .greens import solve_green
from .hierarchy import SeriesSolution, fold_levels
from .oracle import (
    GridSpec,
    compare_methods,
    extrapolated_ground_energy,
    rs_series,
)
from .perturbation import DEFAULT_WINDOW, solve_exponential, solve_polynomial
from .trajectory import standard_spec

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

METHODS = ("hierarchy", "exp-eps", "exp-lambda", "poly-eps", "poly-lambda", "green", "rs")
PIPELINES = METHODS[:5]
# coupling flavor of each exponent method; all three run `solve_exponential`
_EXP_FLAVORS = {"hierarchy": "mu", "exp-eps": "eps", "exp-lambda": "lambda"}
FORMATS = ("json", "csv", "text")
SUMMARY_FORMATS = ("json", "text")  # compare, verify and report write no csv


# --------------------------------------------------------------- converters


class InputError(ValueError, argparse.ArgumentTypeError):
    """A rejected input; argparse reports its message as it stands."""


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


def _rule(cast, ok, need: str):
    """Converter for one input rule: ``cast`` the input, then require ``ok``."""
    def convert(text):
        try:
            value = cast(text)
            if ok(value):
                return value
        except (ValueError, OverflowError):
            pass
        raise InputError(f"must be {need}, got {text!r}")
    return convert


# The most bits of a frequency ratio's reduced numerator, and of its
# denominator.  Every exact product carries the ratio, so unbounded, a
# nine-character input such as 1e3000000 stalls even an order-1 run.
RATIO_BITS = 64

# The highest truncation order a command builds.  The exact work grows
# steeply with the order: a `hierarchy` build at b = 1/2 took 0.93 s at
# order 24, 3.7 s at 32 and 81 s at 48, so an order of 10**20 would run
# until killed.  No table or test goes above 24.
MAX_ORDER = 32


def _rational(text) -> Fraction:
    """`parse_rational`, refusing a decimal exponent before 10**e is formed.

    A decimal of L characters with exponent e has a reduced numerator or
    denominator of at least 10**(|e| - L), so |e| > RATIO_BITS + L is
    already too large for a ratio; a golden coefficient, which no run
    writes in exponent form, is held to the same rule.
    """
    text = str(text)
    exp = re.search(r"e([-+]?[\d_]+)\s*\Z", text, re.IGNORECASE)
    if exp and abs(int(exp.group(1))) > RATIO_BITS + len(text):
        raise InputError(f"decimal exponent too large: {text[:40]!r}")
    return parse_rational(text)


positive_rational = _rule(
    _rational,
    lambda v: v > 0 and max(v.numerator.bit_length(), v.denominator.bit_length()) <= RATIO_BITS,
    f"positive and rational, numerator and denominator of at most {RATIO_BITS} bits",
)
finite_float = _rule(float, math.isfinite, "a finite number")
positive_float = _rule(float, lambda v: math.isfinite(v) and v > 0, "finite and positive")
natural_int = _rule(int, lambda v: v >= 0, "an integer >= 0")
positive_int = _rule(int, lambda v: v >= 1, "an integer >= 1")
grid_points = _rule(int, lambda v: v >= 3, "an integer >= 3")


def truncation_order(text) -> int:
    """`positive_int`, refusing an order above `MAX_ORDER`."""
    order = positive_int(text)
    if order > MAX_ORDER:
        raise InputError(f"must be at most {MAX_ORDER}, got {text!r}")
    return order


def one_of(choices: tuple[str, ...]):
    return _rule(str, choices.__contains__, "one of " + ", ".join(choices))


def comma_list(rule):
    """Converter for comma-separated values, each non-blank one through ``rule``."""
    return lambda text: [rule(part.strip()) for part in text.split(",") if part.strip()]


def parse_methods(text: str) -> list[str]:
    """'all' for the five pipelines, or comma-separated method names."""
    return list(PIPELINES) if text == "all" else comma_list(one_of(METHODS))(text)


parse_window = _rule(
    lambda t: tuple(comma_list(natural_int)(t)), lambda w: len(w) == 2, "'ep,gdepth', two ints >= 0"
)
parse_mu_sweep = _rule(
    comma_list(positive_float), lambda m: len(set(m)) > 1, "at least two distinct finite values > 0"
)


def _typed(types, need: str):
    """Converter for a JSON value of ``types`` as `json.load` gives it; a bool is none."""
    return _rule(lambda v: v, lambda v: isinstance(v, types) and not isinstance(v, bool), need)


_INT = _typed(int, "an integer")
_NUMBER = _typed((int, float), "a number")
_STRING = _typed(str, "a string")
_LIST = _typed(list, "a list")


def _get(doc, key: str, *rules, where: str = "key"):
    """``doc[key]`` of a JSON object, through each of ``rules`` in turn."""
    if not isinstance(doc, dict) or key not in doc:
        raise InputError(f"no key {key!r} in a JSON {type(doc).__name__}")
    value = doc[key]
    try:
        for rule in rules:
            value = rule(value)
    except InputError as exc:
        raise InputError(f"{where} {key!r}: {exc}") from None
    return value


def build_solution(method: str, b: Fraction, order: int = 2) -> SeriesSolution:
    """Run one method by name and return its graded series."""
    if method in _EXP_FLAVORS:
        return solve_exponential(standard_spec(b, _EXP_FLAVORS[method]), order=order)
    if method in ("poly-eps", "poly-lambda"):
        flavor = method.split("-", 1)[1]
        return solve_polynomial(standard_spec(b, flavor), order=order)
    if method == "green":
        return solve_green(standard_spec(b, "eps"), order=order)
    if method == "rs":
        return rs_series(b, order=order)
    raise ValueError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")


# ------------------------------------------------------------- serialization


def _coefficient_text(n: int, den: int) -> str:
    """``str(Fraction(n, den))``, without building the Fraction."""
    common = math.gcd(n, den)
    return str(n // common) if den == common else f"{n // common}/{den // common}"


# A level's term and an energy slot, as json.dumps(indent=2, sort_keys=True)
# lays them out at their depth in a run's document.
_TERM_ROW = (
    '      {\n        "c": "%s",\n        "ep": %d,\n        "gp": %d,\n'
    '        "i": %d,\n        "j": %d\n      }'
)
_ENERGY_ROW = '    {\n      "c": "%s",\n      "ep": %d,\n      "gp": %d\n    }'


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of already indented items, closed at ``indent``."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _levels_json(levels) -> str:
    """A list of polynomials, each a list of its terms in sorted key order."""
    out = []
    for p in levels:
        den = p.den
        rows = [
            _TERM_ROW % (_coefficient_text(n, den), ep, gp, i, j)
            for (ep, gp, i, j), n in sorted(p.num.items())
        ]
        out.append("    " + _json_list(rows, "    "))
    return _json_list(out, "  ")


def solution_to_json(sol: SeriesSolution, method: str) -> str:
    """A run's JSON document, byte for byte what
    ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` makes of it.

    The document has the keys b, base, depth, energies, flavor, kind,
    levels, method and order; a level's term is the row {c, ep, gp, i, j},
    an energy slot the row {c, ep, gp}, each coefficient an exact "p/q"
    string.  Written directly: with ``indent`` set, `json.dumps` runs the
    pure-Python encoder, which cost more than building the series.
    """
    energies = sol.energies
    den = energies.den
    slots = [
        _ENERGY_ROW % (_coefficient_text(n, den), ep, gp)
        for gp, ep, n in sorted((gp, ep, n) for (ep, gp, _, _), n in energies.num.items())
    ]
    return (
        f'{{\n  "b": {json.dumps(str(sol.b))},\n'
        f'  "base": {_levels_json(sol.base)},\n'
        f'  "depth": {sol.depth},\n'
        f'  "energies": {_json_list(slots, "  ")},\n'
        f'  "flavor": {json.dumps(sol.flavor)},\n'
        f'  "kind": {json.dumps(sol.kind)},\n'
        f'  "levels": {_levels_json(sol.terms)},\n'
        f'  "method": {json.dumps(method)},\n'
        f'  "order": {sol.order}\n}}\n'
    )


def _energy_slots(energies: GradedPoly) -> list[tuple[int, int, Fraction]]:
    """Energy terms as (g power, parameter power, coefficient), in that order."""
    return sorted((gp, ep, c) for (ep, gp, _, _), c in energies.terms.items())


def _poly_from_doc(rows, field: str) -> GradedPoly:
    """Rows {ep, gp, i, j, c} of a document's ``field``; "energies" rows
    carry no monomial (i, j).  Two rows with one key contradict each other,
    so they are refused."""
    monomial = field != "energies"
    terms = {}
    for row in _LIST(rows):
        ij = [_get(row, k, _INT, natural_int) for k in "ij"] if monomial else [0, 0]
        key = (_get(row, "ep", _INT, natural_int), _get(row, "gp", _INT), *ij)
        if key in terms:
            raise InputError(f"{field}: two rows have the key (ep, gp, i, j) = {key}")
        terms[key] = _get(row, "c", _STRING, _rational)
    return GradedPoly(terms)


def solution_from_doc(doc) -> SeriesSolution:
    """Read back a `solution_to_json` document; a malformed field raises `InputError`."""
    sol = SeriesSolution(
        kind=_get(doc, "kind", _STRING, one_of(("exp", "poly"))),
        flavor=_get(doc, "flavor", _STRING, one_of(tuple(_EXP_FLAVORS.values()))),
        b=_get(doc, "b", _STRING, positive_rational),
        order=_get(doc, "order", _INT, positive_int),
        terms=tuple(_poly_from_doc(rows, "levels") for rows in _get(doc, "levels", _LIST)),
        energies=_poly_from_doc(_get(doc, "energies", _LIST), "energies"),
        base=tuple(_poly_from_doc(rows, "base") for rows in _get(doc, "base", _LIST)),
    )
    depth = _get(doc, "depth", _INT)
    if depth != sol.depth:
        raise InputError(
            f"depth {depth} does not match the {len(sol.terms)} levels of a"
            f" {sol.kind!r} run (depth {sol.depth})"
        )
    return sol


def doc_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def solution_to_csv(sol: SeriesSolution, method: str) -> str:
    """One row per series term, with the level's g power folded in.

    Energy coefficients are not series terms and stay in the JSON and text
    forms only.
    """
    folded = fold_levels(sol.terms, 1 if sol.kind == "exp" else 0)
    lines = ["method,ep,gp,i,j,coefficient"]
    for (ep, gp, i, j), c in folded.sorted_terms():
        lines.append(f"{method},{ep},{gp},{i},{j},{c}")
    return "\n".join(lines) + "\n"


def solution_to_text(sol: SeriesSolution, method: str) -> str:
    lines = [
        f"method {method}  kind {sol.kind}  parameter {sol.flavor}"
        f"  b {sol.b}  order {sol.order}  depth {sol.depth}"
    ]
    lines.append("energy series:")
    for gp, ep, c in _energy_slots(sol.energies):
        lines.append(f"  g^{gp} {sol.flavor}^{ep}: {c}")
    for n, level in enumerate(sol.terms):
        lines.append(f"level {n}:")
        lines.append(f"  {level.show(sol.flavor)}")
    if sol.base:
        lines.append("base exponent levels:")
        for level in sol.base:
            lines.append(f"  {level.show(sol.flavor)}")
    return "\n".join(lines) + "\n"


def render_solution(sol: SeriesSolution, method: str, fmt: str) -> str:
    if fmt == "json":
        return solution_to_json(sol, method)
    if fmt == "csv":
        return solution_to_csv(sol, method)
    if fmt == "text":
        return solution_to_text(sol, method)
    raise ValueError(f"unknown format {fmt!r}; choose from {', '.join(FORMATS)}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# -------------------------------------------------------------- config merge

# each --config key: its default, then the converters its JSON value goes through
_CONFIG_KEYS = {
    "method": ("hierarchy", _STRING, one_of(METHODS)),
    "b": (Fraction(1), _typed((str, int, float), "a string or a number"), positive_rational),
    "order": (2, _INT, truncation_order),
    "g": (10.0, _NUMBER, positive_float),
    "mu": (0.05, _NUMBER, finite_float),
    "grid_n": (None, _INT, grid_points),
    "format": ("json", _STRING),
    "out": (None, _STRING),
}


def _load_json(path: str):
    """A --config or --golden file; nesting too deep to parse is an input error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise InputError(f"{path}: JSON nested too deeply to parse") from None


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """The run's settings: explicit flags over an optional --config file over defaults."""
    cfg = argparse.Namespace(**{key: rules[0] for key, rules in _CONFIG_KEYS.items()})
    if args.config:
        doc = _load_json(args.config)
        if not isinstance(doc, dict):
            raise InputError("config file must hold a JSON object")
        for key, value in doc.items():
            if key not in _CONFIG_KEYS:
                raise InputError(f"unknown config key {key!r}")
            rules = _CONFIG_KEYS[key][1:]
            if key == "format":
                rules += (one_of(args.formats),)
            if value is not None or key not in ("grid_n", "out"):
                setattr(cfg, key, _get(doc, key, *rules, where="config key"))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    return cfg


# ----------------------------------------------------------------- commands


def cmd_run(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    sol = build_solution(cfg.method, cfg.b, cfg.order)
    _emit(render_solution(sol, cfg.method, cfg.format), cfg.out)
    return EXIT_OK


def _window_within(window: tuple[int, int], order: int, run: str) -> None:
    """Refuse a window that reaches above a compared run's order: the run has
    no terms there, so the comparison would report a false disagreement."""
    if window[0] > order:
        raise InputError(f"window order {window[0]} is above the order {order} of {run}")


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    window = args.window
    _window_within(window, cfg.order, "the run")
    sols, labels = [], []
    if args.golden:
        doc = _load_json(args.golden)
        golden = solution_from_doc(doc)
        if golden.b != cfg.b:
            raise ValueError(f"golden file has b={golden.b}, but the request has b={cfg.b}")
        _window_within(window, golden.order, "the golden file")
        sols.append(golden)
        labels.append(f"golden:{doc.get('method', '?')}")
    for name in args.methods:
        sols.append(build_solution(name, cfg.b, cfg.order))
        labels.append(name)
    if len(sols) < 2:
        raise ValueError("compare needs at least two runs (or one plus --golden)")
    diffs = compare_methods(sols, names=labels, window=window)
    doc = {
        "b": str(cfg.b),
        "order": cfg.order,
        "window": {"ep": window[0], "g_depth": window[1]},
        "reference": labels[0],
        "methods": labels,
        "agree": not diffs,
        "diffs": diffs,
    }
    if cfg.format == "json":
        _emit(doc_to_json(doc), cfg.out)
    else:
        lines = [
            f"compare b={cfg.b} order={cfg.order}"
            f" window=({window[0]},{window[1]}) reference={labels[0]}"
        ]
        for name in labels[1:]:
            if name in diffs:
                lines.append(f"{name}: DIFFERS")
                lines.extend(f"  {d}" for d in diffs[name])
            else:
                lines.append(f"{name}: agrees")
        lines.append("DISAGREE" if diffs else "AGREE")
        _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_DISAGREE if diffs else EXIT_OK


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    xs = [math.log(x) for x in xs]
    ys = [math.log(y) for y in ys]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def _series_energy(sol: SeriesSolution, g: float, mu: float) -> float:
    """Physical energy of the series, rejecting couplings it overflows at."""
    try:
        return sol.physical_energy(g, mu)
    except OverflowError:
        raise ValueError(f"series energy overflows at g={g:g}, mu={mu:g}") from None


# The most points per axis on the finest grid of a Richardson ladder.  The
# quarter-box factor, with the black points eliminated, holds about n^3/16
# floats: 135 MB at 647 points, criterion 9's finest grid (161 refined
# twice), and about 0.55 GB at this bound.
MAX_GRID_POINTS = 1023


def grid_spec(n: int | None, g: float, b, levels: int) -> GridSpec:
    """The n-by-n grid (`GridSpec`'s default when None), checked for a
    ladder of ``levels`` refinements at (g, b).

    A base spacing wider than the narrowest harmonic gaussian cannot
    resolve the state, and its energy would read as a disagreement.  Each
    of the ``levels`` halvings of the spacing turns n points into 2n + 1,
    so the finest grid has 2**levels * (n + 1) - 1 points per axis, which
    may not exceed `MAX_GRID_POINTS`; too many levels fail before
    2**levels is formed.
    """
    grid = GridSpec() if n is None else GridSpec(n, n)
    n = grid.n_x
    b = float(b)
    _, _, lx, ly = grid.resolved(g, b)
    spacing = 2 * max(lx, ly) / (n + 1)
    width = 1 / math.sqrt(g * max(1.0, b))
    # Equal spacing and width are admitted; the factor absorbs rounding.
    if spacing > width * (1 + 1e-9):
        raise ValueError(
            f"grid_n {n} is too coarse: spacing {spacing:.3g}"
            f" exceeds the gaussian width {width:.3g}"
        )
    if levels > MAX_GRID_POINTS.bit_length() or ((n + 1) << levels) - 1 > MAX_GRID_POINTS:
        raise ValueError(
            f"grid_n {n} with {levels} refinement levels: the finest grid"
            f" exceeds {MAX_GRID_POINTS} points per axis"
        )
    return grid


def _grid_check(sol: SeriesSolution, cfg: argparse.Namespace, grid, args) -> dict:
    """Series energy against the extrapolated grid energy at (g, mu)."""
    series = _series_energy(sol, cfg.g, cfg.mu)
    reference = extrapolated_ground_energy(
        cfg.g, float(cfg.b), cfg.mu, grid=grid, levels=args.levels
    )
    gap = abs(series - reference)
    rel_gap = gap / abs(reference)
    return {
        "series_energy": series,
        "grid_energy": reference,
        "abs_gap": gap,
        "rel_gap": rel_gap,
        "pass": rel_gap <= args.tol,
    }


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    mus = args.mu_sweep
    grid = grid_spec(cfg.grid_n, cfg.g, cfg.b, max(args.levels, 2) if mus else args.levels)
    method = cfg.method
    sol = build_solution(method, cfg.b, cfg.order)
    b = float(cfg.b)
    doc: dict = {
        "method": method,
        "b": str(cfg.b),
        "g": cfg.g,
        "mu": cfg.mu,
        "tol": args.tol,
    }
    doc.update(_grid_check(sol, cfg, grid, args))
    ok = doc["pass"]

    if mus:
        residuals = []
        for mu in mus:
            ref = extrapolated_ground_energy(
                cfg.g, b, mu, grid=grid, levels=max(args.levels, 2)
            )
            residuals.append(abs(_series_energy(sol, cfg.g, mu) - ref))
        order_fit = loglog_slope(mus, residuals)
        sweep_ok = order_fit >= args.min_order
        doc["sweep"] = {
            "mu": mus,
            "residuals": residuals,
            "fitted_order": order_fit,
            "min_order": args.min_order,
            "pass": sweep_ok,
        }
        ok = ok and sweep_ok

    if cfg.format == "json":
        _emit(doc_to_json(doc), cfg.out)
    else:
        lines = [
            f"verify method={method} b={cfg.b} g={cfg.g} mu={cfg.mu}",
            f"series energy = {doc['series_energy']!r}",
            f"grid energy   = {doc['grid_energy']!r}",
            f"abs gap = {doc['abs_gap']:.3e}  rel gap = {doc['rel_gap']:.3e}"
            f"  tol = {args.tol:.1e}",
        ]
        if "sweep" in doc:
            sw = doc["sweep"]
            pairs = "  ".join(
                f"mu={m:g}:{r:.3e}" for m, r in zip(sw["mu"], sw["residuals"])
            )
            lines.append(f"sweep residuals: {pairs}")
            lines.append(
                f"fitted truncation order = {sw['fitted_order']:.3f}"
                f" (need >= {sw['min_order']:g})"
            )
        lines.append("PASS" if ok else "FAIL")
        _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK if ok else EXIT_DISAGREE


def cmd_report(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    names = args.methods
    if len(names) < 2:
        raise ValueError("a report needs at least two methods")
    _window_within(DEFAULT_WINDOW, cfg.order, "the run")
    grid = grid_spec(cfg.grid_n, cfg.g, cfg.b, args.levels) if args.numeric else None
    sols = [build_solution(name, cfg.b, cfg.order) for name in names]
    diffs = compare_methods(sols, names=names)
    ref = sols[0]
    doc: dict = {
        "b": str(cfg.b),
        "order": cfg.order,
        "methods": list(names),
        "reference": names[0],
        "agree": not diffs,
        "diffs": diffs,
        "energy_series": [
            {"gp": gp, "ep": ep, "c": str(c)} for gp, ep, c in _energy_slots(ref.energies)
        ],
    }
    ok = not diffs
    if args.numeric:
        doc["numeric"] = {
            "g": cfg.g,
            "mu": cfg.mu,
            "tol": args.tol,
            **_grid_check(ref, cfg, grid, args),
        }
        ok = ok and doc["numeric"]["pass"]
    if cfg.format == "json":
        _emit(doc_to_json(doc), cfg.out)
    else:
        lines = [f"report b={cfg.b} order={cfg.order} reference={names[0]}"]
        lines.append("agreement: " + ("NO" if diffs else "yes"))
        for name, d in sorted(diffs.items()):
            lines.append(f"{name}: DIFFERS")
            lines.extend(f"  {s}" for s in d)
        lines.append("energy series (reference):")
        for gp, ep, c in _energy_slots(ref.energies):
            lines.append(f"  g^{gp} {ref.flavor}^{ep}: {c}")
        if "numeric" in doc:
            num = doc["numeric"]
            lines.append(
                f"numeric: series={num['series_energy']!r}"
                f" grid={num['grid_energy']!r} rel_gap={num['rel_gap']:.3e}"
            )
        lines.append("PASS" if ok else "FAIL")
        _emit("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK if ok else EXIT_DISAGREE


# ------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Raises a rejected command line instead of printing usage and exiting."""

    def error(self, message):
        raise InputError(message)


def _add_choice(p: argparse.ArgumentParser, flag: str, choices, help: str) -> None:
    metavar = "{" + ",".join(choices) + "}"
    p.add_argument(flag, type=one_of(choices), metavar=metavar, help=help)


def _add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    p.add_argument("--config", help="JSON file with defaults for these flags")
    p.add_argument("--b", type=positive_rational, help="frequency ratio, 'p/q'")
    p.add_argument("--order", type=truncation_order, help="perturbation order")
    _add_choice(p, "--format", formats, "output format")
    p.add_argument("--out", help="write output to this file")
    p.set_defaults(formats=formats)


def _add_numeric(p: argparse.ArgumentParser) -> None:
    p.add_argument("--g", type=positive_float, help="overall coupling for evaluation")
    p.add_argument("--mu", type=finite_float, help="quartic coupling for evaluation")
    p.add_argument("--grid-n", dest="grid_n", type=grid_points, help="grid points per axis")
    p.add_argument("--levels", type=positive_int, default=1, help="grid refinement passes")
    p.add_argument("--tol", type=positive_float, default=1e-4, help="relative energy tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadosc", description="Ground-state series for the coupled quartic oscillator."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one method and print its series")
    _add_common(p_run, FORMATS)
    _add_choice(p_run, "--method", METHODS, "which solver to run")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several methods and compare")
    _add_common(p_cmp, SUMMARY_FORMATS)
    p_cmp.add_argument(
        "--methods", type=parse_methods, default="all",
        help="comma-separated method names, or 'all' for the five pipelines",
    )
    p_cmp.add_argument("--golden", help="JSON run to compare against")
    p_cmp.add_argument(
        "--window", type=parse_window, default=DEFAULT_WINDOW, help="comparison window 'ep,gdepth'"
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="check the series against a grid solver")
    _add_common(p_ver, SUMMARY_FORMATS)
    _add_choice(p_ver, "--method", METHODS, "series to evaluate")
    _add_numeric(p_ver)
    p_ver.add_argument("--mu-sweep", type=parse_mu_sweep, help="comma-separated couplings to sweep")
    p_ver.add_argument(
        "--min-order", type=finite_float, default=2.5, help="least acceptable fitted order"
    )
    p_ver.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("report", help="full agreement and numeric summary")
    _add_common(p_rep, SUMMARY_FORMATS)
    p_rep.add_argument(
        "--methods", type=parse_methods, default="all", help="comma-separated method names or 'all'"
    )
    p_rep.add_argument("--numeric", action="store_true", help="include a grid comparison")
    _add_numeric(p_rep)
    p_rep.set_defaults(func=cmd_report)

    return parser


_PARSER = build_parser()


# BLAS and OpenMP start one thread per core unless told otherwise, and the
# grid solves' banded Cholesky loses by it: a default `verify` took 0.76-0.83 s
# against 0.48-0.63 s on one thread, and 11-15 s against 1.7-1.9 s beside
# two other grid solves on two cores.  numpy loads on the first grid solve,
# after `main` has set these; a value already in the environment wins.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main(argv: list[str] | None = None) -> int:
    """Run one command, return its exit code; ``--help`` exits 0 as argparse does."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except (ConvergenceFailure, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, ConvergenceFailure) else EXIT_USAGE
    except Exception as exc:
        # Exit 1 means "methods disagree"; an unforeseen failure must not
        # read as that, nor end in a traceback.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
