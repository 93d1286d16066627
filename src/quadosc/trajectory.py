"""The potential, and the classical escape trajectory of the inverted one.

In the paper the ground-state exponent is built from the trajectory that
leaves the origin at t = -infinity with zero energy and reaches a given
endpoint at time T.  The program solves the same equations in the plane
(`hierarchy`); the trajectory route is kept here as the reference
construction those solves are checked against.  No workload runs it, so it
is kept plain: each substitution builds the powers it needs, and nothing is
cached on the trajectory.  In scaled coordinates the flow is

    x'' = x + mu * dU/dx,    y'' = b^2 y + mu * dU/dy

when the coupling is carried classically (mu flavor).  For the eps and
lambda flavors the coupling is booked as a quantum insertion instead and the
classical flow stays harmonic.

Every solution component is a polynomial in the amplitudes X = cx e^t and
Y = cy e^(bt) of the harmonic flow, so d/dt is the flow operator
x d/dx + b y d/dy acting on it.  At t = T the amplitudes are functions of
the endpoint alone, which is what lets endpoint evaluation eliminate T
exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    _G_SHIFT,
    GradedPoly,
    _scale_terms,
    evaluate_at_endpoint,
    flow_derivative,
    integrate_to_T,
    restrict_to_trajectory,
)
from .errors import ResonantDenominator


@dataclass(frozen=True)
class PotentialSpec:
    """Anharmonic well ``(1/2)(x^2 + b^2 y^2) + <param> * coupling``.

    ``flavor`` names the bookkeeping parameter multiplying the coupling
    polynomial: "mu" couples it into the classical flow, "eps" and "lambda"
    defer it to a fixed level of the quantum recursion.
    """

    b: Fraction
    coupling: GradedPoly
    flavor: str = "mu"

    def __post_init__(self):
        object.__setattr__(self, "b", Fraction(self.b))
        if self.b <= 0:
            raise ValueError("frequency ratio b must be positive")
        if self.flavor not in _G_SHIFT:
            raise ValueError(f"unknown coupling flavor {self.flavor!r}")
        if any(ep for (ep, _, _, _) in self.coupling.num):
            raise ValueError("coupling polynomial must be parameter-free")
        if self.coupling.constant_part():
            raise ValueError("coupling polynomial must vanish at the origin")

    def coupling_term(self) -> GradedPoly:
        """The coupling with one power of the flavor parameter attached."""
        return self.coupling.shift(ep=1)

    def harmonic_part(self) -> GradedPoly:
        half = Fraction(1, 2)
        return GradedPoly({(0, 0, 2, 0): half, (0, 0, 0, 2): half * self.b**2})

    def potential(self) -> GradedPoly:
        """Full scaled well, coupling included only for the mu flavor."""
        v = self.harmonic_part()
        if self.flavor == "mu":
            v = v + self.coupling_term()
        return v


def gaussian_exponent(b) -> GradedPoly:
    """Exponent (1/2)(x^2 + b y^2) of the bare harmonic ground state."""
    half = Fraction(1, 2)
    return GradedPoly({(0, 0, 2, 0): half, (0, 0, 0, 2): half * Fraction(b)})


def zero_point_energy(b) -> GradedPoly:
    """Energy g(1 + b)/2 of the bare harmonic ground state, as an energy series."""
    return GradedPoly.mono((1 + Fraction(b)) / 2, gp=1)


def standard_spec(b, flavor: str = "mu") -> PotentialSpec:
    """The x^2 y^2 cross coupling studied throughout."""
    return PotentialSpec(b=Fraction(b), coupling=GradedPoly.mono(1, i=2, j=2), flavor=flavor)


@dataclass(frozen=True)
class Trajectory:
    """Escape trajectory, optionally with endpoint constants solved.

    ``order`` is the run's truncation order in the perturbation parameter:
    every substitution of the trajectory, and every product along the flow,
    is cut above it.  ``x`` and ``y`` are polynomials in the amplitudes
    X = cx e^t and Y = cy e^(bt), stored in the x and y slots of a
    `GradedPoly`; the harmonic flow is x = X, y = Y.  ``cx`` and ``cy``, when
    present, express the amplitudes at t = T as polynomial series in the
    endpoint coordinates; they are what `evaluate_at_endpoint` substitutes.
    """

    spec: PotentialSpec
    order: int
    x: GradedPoly
    y: GradedPoly
    cx: GradedPoly | None = None
    cy: GradedPoly | None = None

    @property
    def b(self) -> Fraction:
        return self.spec.b


def solve_classical_trajectory(spec: PotentialSpec, order: int) -> Trajectory:
    """Solve the flow order by order in the coupling parameter.

    Each correction solves a driven oscillator z'' - w^2 z = source with the
    source a sum of pure exponentials; the decaying particular solution
    divides each amplitude monomial X^p Y^q by (p + q b)^2 - w^2, which must
    not vanish.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    b = spec.b
    x = GradedPoly.variable("x")
    y = GradedPoly.variable("y")
    if spec.flavor != "mu":
        return Trajectory(spec, order, x, y)

    fx = spec.coupling_term().diff("x")
    fy = spec.coupling_term().diff("y")
    for n in range(1, order + 1):
        partial = Trajectory(spec, n, x, y)
        x = x + _particular(restrict_to_trajectory(fx, partial), n, Fraction(1), b)
        y = y + _particular(restrict_to_trajectory(fy, partial), n, b, b)
    return Trajectory(spec, order, x, y)


def _particular(source: GradedPoly, ep: int, freq: Fraction, b: Fraction) -> GradedPoly:
    """Decaying response to the order-``ep`` slice of ``source``."""
    factors = {}
    for key in source.num:
        e, _, p, q = key
        if e != ep:
            continue
        denom = (p + q * b) ** 2 - freq**2
        if denom == 0:
            raise ResonantDenominator(
                f"exponent {p}+{q}b resonates with frequency {freq}"
            )
        factors[key] = (denom.denominator, denom.numerator)
    return _scale_terms(source, factors)


def invert_endpoint_constants(traj: Trajectory) -> Trajectory:
    """Express the trajectory amplitudes through the endpoint coordinates.

    Writing X = cx e^T and Y = cy e^(bT), the endpoint conditions read
    x_T = X + Gx(X, Y) and y_T = Y + Gy(X, Y) with G collecting the
    correction terms.  The fixed point X = x_T - Gx(X, Y) is solved one
    order at a time, as in Lagrange inversion: G starts at first order, so
    its order-n part needs X and Y only through order n - 1.  Pass n
    substitutes G / param through order n - 1 and multiplies the parameter
    back in, which fixes exactly the order-n slice; the slices below it are
    already final.  After ``traj.order`` passes the result is the unique
    fixed point truncated above ``traj.order``.
    """
    var_x = GradedPoly.variable("x")
    var_y = GradedPoly.variable("y")
    gx = (traj.x - var_x).shift(ep=-1)
    gy = (traj.y - var_y).shift(ep=-1)
    cx, cy = var_x, var_y
    for n in range(1, traj.order + 1):
        cx, cy = (
            var_x - gx.subs(cx, cy, max_ep=n - 1).shift(ep=1),
            var_y - gy.subs(cx, cy, max_ep=n - 1).shift(ep=1),
        )
    return dataclasses.replace(traj, cx=cx, cy=cy)


def action_integral(traj: Trajectory) -> GradedPoly:
    """Endpoint action of the zero-energy trajectory.

    Integrand is kinetic plus potential energy; on the zero-energy flow this
    equals twice the potential, every term decays toward t = -infinity, and
    the endpoint value is a polynomial in the endpoint coordinates.
    """
    integrand = _kinetic(traj) + restrict_to_trajectory(traj.spec.potential(), traj)
    return evaluate_at_endpoint(integrate_to_T(integrand, traj.b), traj)


def _kinetic(traj: Trajectory) -> GradedPoly:
    vx = flow_derivative(traj.x, traj.b)
    vy = flow_derivative(traj.y, traj.b)
    return (vx.mul(vx, traj.order) + vy.mul(vy, traj.order)) * Fraction(1, 2)

