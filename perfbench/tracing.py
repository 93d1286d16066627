"""Spans and counts at the public-function boundaries of the program's modules.

The tracer wraps functions from outside the program.  For a traced pass it
replaces every binding of a wrapped function in the loaded ``quadosc``
modules (``from .x import f`` makes one per importing module) and restores
them afterwards.  A span records name, start, end, its parent span and the
job it belongs to; a layer's self time is its span's duration minus the time
its child spans cover.  Functions called too often for a span per call only
get a call count.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import Counter, defaultdict

# (module, function): one span per call.
SPANS = (
    ("cli", "main"),
    ("cli", "build_solution"),
    ("cli", "render_solution"),
    ("trajectory", "solve_classical_trajectory"),
    ("trajectory", "invert_endpoint_constants"),
    ("trajectory", "action_integral"),
    ("hierarchy", "solve_levels"),
    ("hierarchy", "quadrature_level"),
    ("perturbation", "solve_exponential"),
    ("perturbation", "solve_polynomial"),
    ("perturbation", "canonical_window"),
    ("greens", "solve_green"),
    ("greens", "resolvent_sum"),
    ("oracle", "rs_corrections"),
    ("oracle", "compare_methods"),
    ("oracle", "fd_ground_state"),
    ("oracle", "extrapolated_ground_energy"),
    ("algebra", "restrict_to_trajectory"),
    ("algebra", "evaluate_at_endpoint"),
)
# (module, function or Class.method): a call count only.
COUNTS = (
    ("algebra", "GradedPoly.mul"),
    ("algebra", "GradedPoly.subs"),
    ("algebra", "integrate_to_T"),
)


def poly_size(polys) -> tuple[int, int]:
    """Term count and largest numerator or denominator bit length."""
    terms = bits = 0
    for p in polys:
        terms += len(p.terms)
        for c in p.terms.values():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return terms, bits


class _CountingFactor:
    """The sparse LU factor, counting the inverse-iteration solves."""

    def __init__(self, factor, tracer: "Tracer"):
        self._factor = factor
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.counts["oracle.fd.iterations"] += 1
        return self._factor.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._factor, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.maxima: Counter[str] = Counter()
        self.job = -1
        self._ids = itertools.count()
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _span(self, name: str, fn, size=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [next(self._ids), name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span_id, _, start, child = frame
                duration = end - start
                self.self_s[name] += duration - child
                self.counts[f"{name}.calls"] += 1
                parent = self._stack[-1][0] if self._stack else -1
                self.spans.append((span_id, parent, self.job, name, start, end))
                if self._stack:
                    self._stack[-1][3] += duration
            if size is not None:
                # Sizing is tracer work: keep it out of every self time.
                t0 = time.perf_counter()
                size(result)
                if self._stack:
                    self._stack[-1][3] += time.perf_counter() - t0
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _factor(self, fn):
        timed = self._span("oracle.fd.factor", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _CountingFactor(timed(*args, **kwargs), self)

        return wrapper

    # ------------------------------------------------------------ sizes

    def _keep_max(self, name: str, value: int):
        self.maxima[name] = max(self.maxima[name], value)

    def _endpoint_size(self, traj):
        terms, bits = poly_size((traj.cx, traj.cy))
        self._keep_max("trajectory.endpoint.terms", terms)
        self._keep_max("trajectory.endpoint.max_bits", bits)

    def _level_size(self, result):
        terms, bits = poly_size((result[1],))
        self._keep_max("hierarchy.level.terms", terms)
        self._keep_max("hierarchy.level.max_bits", bits)

    def _window_size(self, form):
        self._keep_max("perturbation.canonical_window.terms", len(form.chi.terms))

    def _grid_size(self, estimate):
        self.counts["oracle.fd.unknowns"] += estimate.grid[0] * estimate.grid[1]

    # ------------------------------------------------------- install

    def _rebind(self, original, replacement):
        """Point every quadosc module binding of ``original`` at ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "quadosc" and not mod_name.startswith("quadosc."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self):
        sizes = {
            "trajectory.invert_endpoint_constants": self._endpoint_size,
            "hierarchy.quadrature_level": self._level_size,
            "perturbation.canonical_window": self._window_size,
            "oracle.fd_ground_state": self._grid_size,
        }
        for mod, fn_name in SPANS:
            name = f"{mod}.{fn_name}"
            original = getattr(sys.modules[f"quadosc.{mod}"], fn_name)
            self._rebind(original, self._span(name, original, sizes.get(name)))
        for mod, path in COUNTS:
            module = sys.modules[f"quadosc.{mod}"]
            owner_name, _, fn_name = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[fn_name]
                setattr(owner, fn_name, self._count(f"{mod}.{path}.calls", original))
                self._restore.append((owner, fn_name, original))
            else:
                original = getattr(module, fn_name)
                self._rebind(original, self._count(f"{mod}.{path}.calls", original))
        oracle = sys.modules["quadosc.oracle"]
        original = oracle.splu
        oracle.splu = self._factor(original)
        self._restore.append((oracle, "splu", original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        """Every self time, call count, size and computed count recorded."""
        out: dict[str, float] = {f"{name}.self_s": s for name, s in self.self_s.items()}
        out["oracle.fd.factor_s"] = out.pop("oracle.fd.factor.self_s", 0.0)
        out.update(self.counts)
        out.update(self.maxima)
        return out
