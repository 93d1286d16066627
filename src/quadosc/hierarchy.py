"""Level-by-level solution of the transport equations for the exponent.

Writing the state as exp of a graded sum of polynomials S_0, S_1, ... the
stationary equation splits into the eikonal equation (1/2)|grad S_0|^2 = V
and one linear transport equation per level,

    grad(S_0) . grad(S_{n+1}) = (1/2) lap(S_n)
                                - (1/2) sum_{i+j=n+1, i,j>=1} grad(S_i).grad(S_j)
                                - E_n  (+ coupling insertion at one level).

The characteristics of the left side are the classical flow x' = grad(S_0),
and the paper solves each level by quadrature along one trajectory
(`trajectory` keeps that route as the reference construction).  Read
backwards, the quadrature is a solve in the plane: the parameter-free part
of grad(S_0) . grad is the flow operator x d/dx + b y d/dy, and integrating
along the flow from t = -infinity divides each monomial x^i y^j by i + j*b
(`integrate_to_T`).  A level is solved one parameter order at a time: the
known orders of grad(S_0) . grad(S_{n+1}) move to the right side, the flat
part of what is left joins E_n, and the rest is divided.  On the harmonic
flow of the eps and lambda flavors S_0 is the bare gaussian, and one
division solves a level.

The pair sum on the right is symmetric in i and j, so each pair i < j is
formed once at weight -1, and the square grad(S_m) . grad(S_m) at -1/2 when
n + 1 = 2m.  Each right side is one `sum_of_products`: every term goes over
one common denominator and the whole is reduced once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import _G_SHIFT, GradedPoly, gradient, integrate_to_T, sum_of_products
from .trajectory import PotentialSpec, gaussian_exponent

_HALF = Fraction(1, 2)


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

    def physical_energy(self, g: float, mu: float) -> float:
        """Energy series at overall coupling g and quartic coupling mu.

        The float sum runs over the keys of ``energies`` in the order the
        solver booked them, one key per parameter order: ep = 0, 1, ...,
        ``order``, except that `rs` books ep = 1, ..., ``order`` and then its
        zero-point slot (ep 0, g^1) last.  No kernel's own key order reaches
        this sum.
        """
        return self.energies.evaluate(g, mu * g ** _G_SHIFT[self.flavor])


def fold_levels(levels, top_gp: int) -> GradedPoly:
    """Attach each level's implicit g power: level n sits at g^(top_gp - n)."""
    return sum_of_products((1, lev.shift(gp=top_gp - n), None) for n, lev in enumerate(levels))


def slice_level(p: GradedPoly, gp: int) -> GradedPoly:
    """Pull out one g slice, dropping the grade it implicitly carries."""
    return GradedPoly._reduced(
        {(ep, 0, i, j): n for (ep, g, i, j), n in p.num.items() if g == gp}, p.den
    )


@dataclass(frozen=True)
class _Flow:
    """The flow grad(S_0) of one run: the well, the truncation order, and
    the gradients of the parameter orders of S_0 above the gaussian,
    ``slices[j - 1]`` at order j.  A harmonic flow has none."""

    spec: PotentialSpec
    order: int
    slices: tuple = ()

    @property
    def b(self) -> Fraction:
        return self.spec.b


def _ep_slice(p: GradedPoly, k: int) -> GradedPoly:
    """The terms of ``p`` at parameter order ``k``."""
    return GradedPoly._reduced({key: n for key, n in p.num.items() if key[0] == k}, p.den)


def _dot_terms(weight, u, v) -> list:
    """The two terms of weight * (u . v) for `sum_of_products`."""
    return [(weight, u[0], v[0]), (weight, u[1], v[1])]


def _half_laplacian_terms(grad) -> list:
    """The two terms of (1/2) lap(p) for `sum_of_products`, from grad(p)."""
    return [(_HALF, grad[0].diff("x"), None), (_HALF, grad[1].diff("y"), None)]


def quadrature_level(rhs: GradedPoly, flow: _Flow) -> tuple[GradedPoly, GradedPoly]:
    """Solve grad(S_0) . grad(S_next) = rhs - E in the plane.

    ``rhs`` comes truncated above ``flow.order``.  Returns (E, S_next): E
    collects the flat parts of the right side and S_next is the solution
    with no flat part.  At parameter order k the known terms
    grad(S_0)^(j) . grad(S_next)^(k-j), j >= 1, move to the right side and
    the flow operator is inverted on the rest.
    """
    energy = rhs.constant_part()
    source = rhs.drop_constant()
    if not flow.slices:
        return energy, integrate_to_T(source, flow.b)
    levels = []
    grads = []
    for k in range(flow.order + 1):
        terms = [(1, _ep_slice(source, k), None)]
        for j in range(1, k + 1):
            terms += _dot_terms(-1, flow.slices[j - 1], grads[k - j])
        part = sum_of_products(terms)
        energy = energy + part.constant_part()
        s_k = integrate_to_T(part.drop_constant(), flow.b)
        levels.append(s_k)
        grads.append(gradient(s_k))
    return energy, sum_of_products((1, s_k, None) for s_k in levels)


def solve_levels(s0: GradedPoly, flow: _Flow) -> SeriesSolution:
    """Run the level hierarchy down to the default depth of ``flow``.

    Levels S_1 .. S_{depth+1} are produced; the energy of one extra level is
    extracted (it needs no new unknown).  The truncation order and the
    coupling flavor, and so the depth, are those of ``flow``.
    """
    depth = default_depth(flow.spec.flavor, flow.order)
    terms = [s0]
    grads = [gradient(s0)]
    energies = GradedPoly.zero()
    for n in range(depth + 2):
        rhs = _transport_source(flow.spec, grads, n, flow.order)
        energy, s_next = quadrature_level(rhs, flow)
        energies = energies + energy.shift(gp=1 - n)
        if n <= depth:
            terms.append(s_next)
            grads.append(gradient(s_next))
    return SeriesSolution(
        kind="exp",
        flavor=flow.spec.flavor,
        b=flow.b,
        order=flow.order,
        terms=tuple(terms),
        energies=energies,
    )


def _transport_source(spec: PotentialSpec, grads, n: int, max_ep: int) -> GradedPoly:
    """Level-n right side built from the gradients of the known levels,
    before E_n, truncated above parameter order ``max_ep``.

    One `sum_of_products` builds it: (1/2) lap(S_n); the symmetric pair sum
    over i + j = n + 1, each pair i < j once at weight -1 and the square
    i = j at -1/2 when n + 1 is even; and the coupling insertion of a
    deferred flavor at its level, all cut above ``max_ep`` and reduced once.
    """
    total = n + 1
    terms = []
    if n < len(grads):
        terms += _half_laplacian_terms(grads[n])
    for i in range(1, total // 2 + 1):
        j = total - i
        if j < len(grads):
            terms += _dot_terms(-_HALF if i == j else -1, grads[i], grads[j])
    if n == insertion_level_for(spec.flavor):
        terms.append((1, spec.coupling_term(), None))
    return sum_of_products(terms, max_ep)


def classical_run(spec: PotentialSpec, order: int) -> tuple[_Flow, GradedPoly]:
    """The classical flow of ``spec`` cut above ``order``, and its exponent S_0.

    For the mu flavor S_0 solves the eikonal equation (1/2)|grad S_0|^2 = V
    one parameter order at a time; above the gaussian, order k is
    integrate_to_T(V^(k) - (1/2) sum_{i=1}^{k-1} grad S_0^(i) . grad S_0^(k-i)).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    s0 = gaussian_exponent(spec.b)
    if spec.flavor != "mu":
        return _Flow(spec, order), s0
    potential = spec.potential()
    parts = [s0]
    slices = []
    for k in range(1, order + 1):
        terms = [(1, _ep_slice(potential, k), None)]
        for i in range(1, k // 2 + 1):
            terms += _dot_terms(-1 if i < k - i else -_HALF, slices[i - 1], slices[k - i - 1])
        s_k = integrate_to_T(sum_of_products(terms), spec.b)
        parts.append(s_k)
        slices.append(gradient(s_k))
    return _Flow(spec, order, tuple(slices)), sum_of_products((1, p, None) for p in parts)


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
