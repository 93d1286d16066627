"""Operator inversion of the ground-state condition, no trajectory needed.

Dividing the state by the bare gaussian turns the stationary equation into

    (A - (1/2) lap + coupling) chi = shift * chi,

where A scales each even monomial x^(2l) y^(2m) by 2g(l + m b).  Inverting
A maps the equation onto a geometric series: every application of
(1/2) lap o A^(-1) lowers the total degree by two, so the series terminates,
and the requirement that no flat term is ever handed to A^(-1) fixes the
energy shift order by order in the coupling.

Everything is exact: coefficients are rationals graded by explicit g powers
(one inverse scaling costs one g).  One diffusion step is built in one pass
over the terms: each even monomial is divided by its eigenvalue and
differentiated twice at once, with no intermediate polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import GradedPoly, _accumulate, integrate_to_T
from .errors import OddParity, SingularInverse
from .hierarchy import SeriesSolution, slice_level
from .trajectory import PotentialSpec, gaussian_exponent, zero_point_energy


def _check_even(p: GradedPoly) -> None:
    """Raise OddParity unless every monomial of ``p`` is even in x and in y."""
    for (_, _, i, j) in p.num:
        if i % 2 or j % 2:
            raise OddParity(f"x^{i} y^{j} is not an even monomial")


def apply_flow_inverse(p: GradedPoly, b: Fraction) -> GradedPoly:
    """Divide each even monomial by its flow eigenvalue 2g(l + m b).

    This is `integrate_to_T` with the g it costs made explicit; a flat term
    raises SingularInverse.
    """
    _check_even(p)
    return integrate_to_T(p, b).shift(gp=-1)


def diffusion_step(p: GradedPoly, b: Fraction) -> GradedPoly:
    """Half laplacian after inverse scaling; drops total degree by two.

    Built in one pass, equal to ``laplacian(apply_flow_inverse(p, b)) / 2``.
    For b = top/q the term c x^i y^j g^gp goes to
    c q (i (i-1) x^(i-2) y^j + j (j-1) x^i y^(j-2)) g^(gp-1) over
    2 (i q + j top).
    """
    _check_even(p)
    b = Fraction(b)
    top, q = b.numerator, b.denominator
    rates = []
    for (_, _, i, j) in p.num:
        rate = i * q + j * top  # q times the flow eigenvalue i + j*b
        if not rate:
            raise SingularInverse("flat term has flow eigenvalue zero")
        rates.append(rate)
    common = lcm(*rates)
    xs: dict[tuple[int, int, int, int], int] = {}
    ys = []
    for ((ep, gp, i, j), n), rate in zip(p.num.items(), rates):
        n *= q * (common // rate)
        if i:
            xs[(ep, gp - 1, i - 2, j)] = n * i * (i - 1)
        if j:
            ys.append(((ep, gp - 1, i, j - 2), n * j * (j - 1)))
    _accumulate(xs, ys)
    return GradedPoly._reduced(xs, 2 * p.den * common)


def resolvent_sum(p: GradedPoly, b: Fraction) -> GradedPoly:
    """Sum of all diffusion-step iterates of ``p``.

    Flat terms terminate their chain (they stay in the sum but are not
    stepped again), and each step lowers degree, so the sum is finite.
    """
    acc = GradedPoly.zero()
    cur = p
    while cur:
        acc = acc + cur
        cur = diffusion_step(cur.drop_constant(), b)
    return acc


def solve_green(spec: PotentialSpec, order: int = 2) -> SeriesSolution:
    """Iterate the inversion to the requested coupling order.

    At order k the source is the coupling times the previous prefactor plus
    the known shifts times the earlier prefactors; the new shift cancels the
    flat remnant of the resolved source and the inverse scaling of what is
    left is the new prefactor.

    Returns the summed prefactor sliced by g depth, with the shifts on top
    of the zero-point energy: the shape `solve_polynomial` gives.
    """
    if spec.flavor != "eps":
        raise ValueError("operator inversion uses the eps flavor")
    if order < 1:
        raise ValueError("order must be at least 1")
    b = spec.b
    coupling = spec.coupling_term()
    chi = [GradedPoly.const(1)]
    delta: list[GradedPoly] = [GradedPoly.zero()]
    total = chi[0]
    energies = zero_point_energy(b)
    for k in range(1, order + 1):
        source = -coupling.mul(chi[k - 1])
        for j in range(1, k):
            source = source + delta[j].mul(chi[k - j])
        resolved = resolvent_sum(source, b)
        shift = -resolved.constant_part()
        delta.append(shift)
        chi.append(apply_flow_inverse(resolved.drop_constant(), b))
        total = total + chi[k]
        energies = energies + shift
    depth = -min(gp for (_, gp, _, _) in total.num)
    return SeriesSolution(
        kind="poly",
        flavor="eps",
        b=b,
        order=order,
        terms=tuple(slice_level(total, -n) for n in range(depth + 1)),
        energies=energies,
        base=(gaussian_exponent(b), GradedPoly.zero()),
    )
