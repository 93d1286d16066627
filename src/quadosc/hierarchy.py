"""Level-by-level quadrature for the exponent of the ground state.

Writing the state as exp of a graded sum of polynomials S_0, S_1, ... the
stationary equation splits into one linear transport equation per level,

    grad(S_0) . grad(S_{n+1}) = (1/2) lap(S_n)
                                - (1/2) sum_{i+j=n+1, i,j>=1} grad(S_i).grad(S_j)
                                - E_n  (+ coupling insertion at one level),

and the left side is the time derivative of S_{n+1} along the classical
flow.  So each level is solved in four polynomial steps: substitute the
trajectory, a polynomial in the amplitudes X = cx e^t and Y = cy e^(bt);
move the flat part into the energy coefficient E_n; integrate in flow time,
which divides each amplitude monomial X^p Y^q by p + q*b; and substitute the
endpoint series for the amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    _G_SHIFT,
    GradedPoly,
    divergence,
    dot,
    evaluate_at_endpoint,
    gradient,
    integrate_to_T,
    restrict_to_trajectory,
)
from .trajectory import (
    PotentialSpec,
    Trajectory,
    action_integral,
    invert_endpoint_constants,
    solve_classical_trajectory,
)


@dataclass(frozen=True)
class SeriesSolution:
    """Graded solution of one method run.

    ``kind`` is "exp" when ``terms`` are the exponent levels (S_0, S_1, ...)
    and "poly" when they are prefactor levels (chi_0, chi_1, ...).  Level n
    carries an implicit overall factor g^(1-n) for "exp" and g^(-n) for
    "poly"; any further g dependence is explicit in the term grading.
    ``energies`` is the energy series as a flat polynomial: the term
    c * param^ep * g^gp is stored under the key (ep, gp, 0, 0), with gp the
    total g power.  Prefactor solutions keep the exponent levels they ride
    on (S_0, S_1) in ``base``.
    """

    kind: str
    flavor: str
    b: Fraction
    order: int
    terms: tuple[GradedPoly, ...]
    energies: GradedPoly
    base: tuple[GradedPoly, ...] = ()

    @property
    def depth(self) -> int:
        """Index of the deepest solved level; exponent runs store one level
        past it (S_0 .. S_{depth+1}), prefactor runs do not."""
        return len(self.terms) - (2 if self.kind == "exp" else 1)

    def term(self, n: int) -> GradedPoly:
        return self.terms[n]

    def physical_energy(self, g: float, mu: float) -> float:
        """Energy series at overall coupling g and quartic coupling mu."""
        return self.energies.evaluate(g, mu * g ** _G_SHIFT[self.flavor])


def fold_levels(levels, top_gp: int) -> GradedPoly:
    """Attach each level's implicit g power: level n sits at g^(top_gp - n)."""
    acc = GradedPoly.zero()
    for n, lev in enumerate(levels):
        acc = acc + lev.shift(gp=top_gp - n)
    return acc


def slice_level(p: GradedPoly, gp: int) -> GradedPoly:
    """Pull out one g slice, dropping the grade it implicitly carries."""
    return GradedPoly._reduced(
        {(ep, 0, i, j): n for (ep, g, i, j), n in p.num.items() if g == gp}, p.den
    )


def quadrature_level(rhs: GradedPoly, traj: Trajectory) -> tuple[GradedPoly, GradedPoly]:
    """Solve grad(S_0) . grad(S_next) = rhs - E along the flow.

    Returns (E, S_next) with E the flat part of the restricted right side
    and S_next the endpoint value of the time integral of the remainder,
    both truncated above ``traj.order``.
    """
    restricted = restrict_to_trajectory(rhs, traj)
    remainder = integrate_to_T(restricted.drop_constant(), traj.b)
    return restricted.constant_part(), evaluate_at_endpoint(remainder, traj)


def solve_levels(s0: GradedPoly, traj: Trajectory) -> SeriesSolution:
    """Run the level hierarchy down to the default depth of ``traj``.

    Levels S_1 .. S_{depth+1} are produced; the energy of one extra level is
    extracted (it needs no new unknown).  The truncation order and the
    coupling flavor, and so the depth, are those of ``traj``.
    """
    depth = default_depth(traj.spec.flavor, traj.order)
    terms = [s0]
    grads = [gradient(s0)]
    energies = GradedPoly.zero()
    for n in range(depth + 2):
        rhs = _transport_source(traj.spec, grads, n, traj.order)
        energy, s_next = quadrature_level(rhs, traj)
        energies = energies + energy.shift(gp=1 - n)
        if n <= depth:
            terms.append(s_next)
            grads.append(gradient(s_next))
    return SeriesSolution(
        kind="exp",
        flavor=traj.spec.flavor,
        b=traj.b,
        order=traj.order,
        terms=tuple(terms),
        energies=energies,
    )


def _transport_source(spec: PotentialSpec, grads, n: int, max_ep: int) -> GradedPoly:
    """Level-n right side built from the gradients of the known levels,
    before E_n, truncated above parameter order ``max_ep``.

    The coupling insertion of a deferred flavor is added at its level.
    """
    rhs = divergence(grads[n]) * Fraction(1, 2) if n < len(grads) else GradedPoly.zero()
    for i in range(1, n + 1):
        j = n + 1 - i
        if 1 <= j < len(grads) and i < len(grads):
            rhs = rhs - dot(grads[i], grads[j], max_ep) * Fraction(1, 2)
    if n == insertion_level_for(spec.flavor):
        rhs = rhs + spec.coupling_term()
    return rhs.truncate_ep(max_ep)


def classical_run(spec: PotentialSpec, order: int) -> tuple[Trajectory, GradedPoly]:
    """Inverted classical trajectory of ``spec`` and its action S_0."""
    traj = invert_endpoint_constants(solve_classical_trajectory(spec, order))
    return traj, action_integral(traj)


def pde_residual(sol: SeriesSolution, spec: PotentialSpec, n: int) -> GradedPoly:
    """Polynomial residual of the level-n transport equation.

    Rebuilt directly from the stored levels, independent of the quadrature
    that produced them; zero (within the truncation order) certifies the
    level.  Only valid for "exp" solutions.
    """
    if sol.kind != "exp":
        raise ValueError("pde_residual applies to exponent solutions")
    if not 0 <= n < len(sol.terms) - 1:
        raise ValueError("level outside the solved range")
    grads = [gradient(level) for level in sol.terms[: n + 2]]
    rhs = _transport_source(spec, grads, n, sol.order)
    lhs = dot(grads[0], grads[n + 1])
    return (lhs - rhs + slice_level(sol.energies, 1 - n)).truncate_ep(sol.order)


def default_depth(flavor: str, order: int) -> int:
    """Smallest depth whose energy ladder covers the requested order.

    One parameter unit costs ``_G_SHIFT[flavor]`` g powers on top of the one
    every level costs, so the deepest energy coefficient of parameter order
    k sits at level k (mu), 2k (lambda) or 3k (eps), and a run extracts
    energies one level past its depth.
    """
    return (1 + _G_SHIFT[flavor]) * order - 1


def insertion_level_for(flavor: str) -> int | None:
    """Level whose transport equation receives the coupling insertion.

    The mu flavor carries the coupling in the flow that builds S_0, one
    level above the level-0 equation.  One parameter unit costs two more g
    powers in the eps convention and one in the lambda convention, which is
    how many levels further down a deferred flavor's coupling lands.
    """
    return None if flavor == "mu" else _G_SHIFT[flavor] - 1
