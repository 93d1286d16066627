"""Deferred-coupling solvers and the canonical cross-method form.

Three bookkeepings of the same coupling are supported.  The "mu" flavor
feeds it into the classical flow; this is the direct hierarchy.  The "eps"
and "lambda" flavors keep the flow harmonic and insert the coupling into one
fixed level of the quantum recursion; one eps unit is worth g^2 mu units and
one lambda unit g^1, so the insertion lands two levels or one level down.
`solve_exponential` runs all three the same way.

Solutions come in two shapes: exponent levels ("exp") and prefactor levels
("poly", the state being exp of the harmonic exponent times a graded
polynomial).  `canonical_window` flattens a solution of either shape and
any flavor to a single window-truncated polynomial in the eps grading,
where all methods can be compared slot by slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .algebra import GradedPoly, gradient, sum_of_products
from .hierarchy import (
    _HALF,
    SeriesSolution,
    _dot_terms,
    _half_laplacian_terms,
    _transport_source,
    classical_run,
    default_depth,
    fold_levels,
    quadrature_level,
    solve_levels,
)
from .trajectory import PotentialSpec, gaussian_exponent

# parameter half-window, g-depth half-window for cross-method comparison
DEFAULT_WINDOW = (2, 5)


def solve_exponential(spec: PotentialSpec, order: int = 2) -> SeriesSolution:
    """Exponent levels for any flavor: the direct hierarchy for "mu", a
    coupling insertion at one level for the deferred flavors."""
    flow, s0 = classical_run(spec, order)
    return solve_levels(s0, flow)


def solve_polynomial(spec: PotentialSpec, order: int = 2) -> SeriesSolution:
    """Prefactor levels chi_0, chi_1, ... solved by their own recursion.

    Level n obeys

        grad(S0).grad(chi_n) = (1/2) lap(chi_{n-1}) - grad(S1).grad(chi_{n-1})
                               - P chi_{n-1} + sum_j E_j chi_{n-j} + E_n,

    with P = (1/2)[lap(S1) - grad(S1)^2] plus the coupling for the eps
    flavor (for lambda the coupling is already inside S1).  Solved like the
    exponent levels, by inverting the flow operator; E_n is fixed by the
    flat part of the right side.
    """
    if spec.flavor == "mu":
        raise ValueError("prefactor recursion needs a deferred-coupling flavor")
    depth = default_depth(spec.flavor, order)
    flow, s0 = classical_run(spec, order)

    e0, s1 = quadrature_level(_transport_source(spec, [gradient(s0)], 0, order), flow)
    energies = e0.shift(gp=1)

    grad_s1 = gradient(s1)
    p_terms = [*_half_laplacian_terms(grad_s1), *_dot_terms(-_HALF, grad_s1, grad_s1)]
    if spec.flavor == "eps":
        p_terms.append((1, spec.coupling_term(), None))
    p_op = sum_of_products(p_terms, order)

    chis = [GradedPoly.const(1)]
    level_energies: list[GradedPoly] = []
    for n in range(1, depth + 2):
        prev = chis[n - 1]
        grad_prev = gradient(prev)
        terms = [
            *_half_laplacian_terms(grad_prev),
            *_dot_terms(-1, grad_s1, grad_prev),
            (-1, p_op, prev),
        ]
        for j in range(1, n):
            terms.append((1, level_energies[j - 1], chis[n - j]))
        flat, chi_n = quadrature_level(sum_of_products(terms, order), flow)
        e_n = -flat
        level_energies.append(e_n)
        energies = energies + e_n.shift(gp=1 - n)
        if n <= depth:
            chis.append(chi_n)

    return SeriesSolution(
        kind="poly",
        flavor=spec.flavor,
        b=spec.b,
        order=order,
        terms=tuple(chis),
        energies=energies,
        base=(s0, s1),
    )


def _truncate_g_depth(p: GradedPoly, g_depth: int) -> GradedPoly:
    return GradedPoly._reduced({k: n for k, n in p.num.items() if k[1] >= -g_depth}, p.den)


def _power_series(q: GradedPoly, coef, order: int, g_depth: int | None = None) -> GradedPoly:
    """Sum of coef(k) q^k over k >= 0, truncated above parameter ``order``
    and, if given, below g depth ``g_depth``.

    The series is finite when every term of q carries the parameter or,
    with a g-depth cut, lowers the g grade.
    """
    if any(ep == 0 and (g_depth is None or gp >= 0) for (ep, gp, _, _) in q.num):
        raise ValueError("series argument must carry the parameter or lower the g grade")
    terms = []
    pw = GradedPoly.const(1)
    while pw:
        terms.append((coef(len(terms)), pw, None))
        pw = pw.mul(q, order)
        if g_depth is not None:
            pw = _truncate_g_depth(pw, g_depth)
    return sum_of_products(terms)


def _exp_series(gen: GradedPoly, order: int, g_depth: int | None = None) -> GradedPoly:
    """exp(gen), cut as in `_power_series`."""
    return _power_series(gen, lambda k: Fraction(1, factorial(k)), order, g_depth)


def _series_inverse(p: GradedPoly, order: int) -> GradedPoly:
    """1/p for p = 1 + (parameter order >= 1 remainder)."""
    return _power_series(p - 1, lambda k: (-1) ** k, order)


@dataclass(frozen=True)
class NormalForm:
    """Window-truncated canonical prefactor plus energy slots.

    ``chi`` is the full state divided by the bare harmonic gaussian,
    expanded through the window's parameter order and g depth in the eps
    grading.  Two methods agree on the window exactly when their normal
    forms compare equal.
    """

    b: Fraction
    chi: GradedPoly
    energies: GradedPoly


def _generator_window(sol: SeriesSolution, window: tuple[int, int]) -> tuple:
    """(b, window generator, window energies) of a run, in the eps grading.

    The generator is -(fold(S) - gaussian), S the exponent levels of an exp
    run or the base of a poly run, regraded and cut to the window.  With the
    run's prefactor these fix its `NormalForm`, whose chi is exp of the
    generator times the prefactor.
    """
    ep_max, g_depth = window
    s_levels = sol.terms if sol.kind == "exp" else sol.base
    gen = fold_levels(s_levels, 1) - gaussian_exponent(sol.b).shift(gp=1)
    gen = -gen.regrade(sol.flavor, "eps").truncate_ep(ep_max)
    energies = sol.energies.regrade(sol.flavor, "eps").truncate_ep(ep_max)
    return sol.b, _truncate_g_depth(gen, g_depth), _truncate_g_depth(energies, g_depth)


def canonical_window(
    sol: SeriesSolution,
    window: tuple[int, int] = DEFAULT_WINDOW,
) -> NormalForm:
    """Map a solution of either kind and any flavor onto the common window.

    The comparison frame is the two-shift (eps) grading: it is the only one
    that sinks every correction below the gaussian, which is what keeps the
    g-depth window finite.
    """
    ep_max, g_depth = window
    b, gen, energies = _generator_window(sol, window)
    prefactor = GradedPoly.const(1) if sol.kind == "exp" else fold_levels(sol.terms, 0)
    chi = _exp_series(gen, ep_max, g_depth)
    chi = chi.mul(prefactor.regrade(sol.flavor, "eps"), ep_max)
    chi = _truncate_g_depth(chi, g_depth).truncate_ep(ep_max)
    return NormalForm(b=b, chi=chi, energies=energies)


def normal_form_diff(left: NormalForm, right: NormalForm) -> list[str]:
    """Human-readable slot differences, empty when the forms agree."""
    diffs = []
    if left.b != right.b:
        diffs.append("incompatible comparison frames")
        return diffs
    # energy slots are listed in (g power, parameter power) order
    if left.energies != right.energies:
        slots = set(left.energies.num) | set(right.energies.num)
        for slot in sorted(slots, key=lambda k: (k[1], k[0])):
            lv = left.energies.terms.get(slot, Fraction(0))
            rv = right.energies.terms.get(slot, Fraction(0))
            if lv != rv:
                diffs.append(f"energy slot g^{slot[1]} order {slot[0]}: {lv} != {rv}")
    if left.chi != right.chi:
        for key in sorted(set(left.chi.num) | set(right.chi.num)):
            lv = left.chi.terms.get(key, Fraction(0))
            rv = right.chi.terms.get(key, Fraction(0))
            if lv != rv:
                ep, gp, i, j = key
                diffs.append(
                    f"prefactor term x^{i} y^{j} g^{gp} order {ep}: {lv} != {rv}"
                )
    return diffs
