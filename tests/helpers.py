"""Closed-form reference values shared by the test modules.

Every builder returns exact rationals parametrized by the frequency ratio,
so tests compare solver output against independently coded formulas rather
than per-b literals.
"""

import dataclasses
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import diags, identity, kron
from scipy.sparse.linalg import splu

from quadosc import GradedPoly, SeriesSolution, hierarchy, oracle, perturbation
from quadosc.algebra import (
    _G_SHIFT,
    evaluate_at_endpoint,
    flow_derivative,
    gradient,
    integrate_to_T,
    restrict_to_trajectory,
)
from quadosc.greens import diffusion_step
from quadosc.hierarchy import _transport_source, fold_levels, insertion_level_for, slice_level
from quadosc.perturbation import _exp_series, _power_series, _series_inverse, _truncate_g_depth
from quadosc.trajectory import (
    Trajectory,
    _kinetic,
    action_integral,
    invert_endpoint_constants,
    solve_classical_trajectory,
)

B_VALUES = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


def F(x) -> Fraction:
    return Fraction(x)


def poly(entries) -> GradedPoly:
    """Build a polynomial from (coef, i, j, gp, ep) tuples."""
    out = GradedPoly.zero()
    for coef, i, j, gp, ep in entries:
        out = out + GradedPoly.mono(Fraction(coef), i=i, j=j, gp=gp).shift(ep=ep)
    return out


def evaluate_at(p: GradedPoly, g: float, param: float, x: float, y: float) -> float:
    """The float value of ``p`` at the point (x, y), term by term in key order."""
    den = p.den
    total = 0.0
    for (ep, gp, i, j), n in p.num.items():
        total += n / den * g**gp * param**ep * x**i * y**j
    return total


def slot(p: GradedPoly, i: int, j: int, gp: int | None = None, ep: int | None = None) -> GradedPoly:
    """The terms of ``p`` at the monomial x^i y^j, optionally pinned to one
    g power or parameter power, as a flat polynomial."""
    return GradedPoly({
        (e, g, 0, 0): c
        for (e, g, ii, jj), c in p.terms.items()
        if (ii, jj) == (i, j) and gp in (None, g) and ep in (None, e)
    })


def divergence(grad: tuple[GradedPoly, GradedPoly]) -> GradedPoly:
    """Sum of the x derivative of the first and the y derivative of the second."""
    return grad[0].diff("x") + grad[1].diff("y")


def dot(u, v, max_ep: int | None = None) -> GradedPoly:
    """Dot product of two gradients, optionally truncated above ``max_ep``."""
    return u[0].mul(v[0], max_ep) + u[1].mul(v[1], max_ep)


def laplacian(p: GradedPoly) -> GradedPoly:
    """Sum of the second x and y derivatives: the reference for
    `greens.diffusion_step`."""
    return divergence(gradient(p))


# -------------------------------------------------- exponent building blocks
# The ground-state exponent decomposes into five b-dependent pieces that
# appear at different levels depending on where the coupling is booked.


def gaussian_exponent(b) -> GradedPoly:
    b = F(b)
    return poly([(Fraction(1, 2), 2, 0, 0, 0), (b / 2, 0, 2, 0, 0)])


def coupling_piece(b, ep) -> GradedPoly:
    """x^2 y^2 / (2(1+b)) at the given parameter order."""
    b = F(b)
    return poly([(1 / (2 * (1 + b)), 2, 2, 0, ep)])


def quartic_exponent_piece(b, ep) -> GradedPoly:
    """-x^2 y^2 (x^2/(b+2) + y^2/(2b+1)) / (4(1+b)^2)."""
    b = F(b)
    c = -1 / (4 * (1 + b) ** 2)
    return poly([(c / (b + 2), 4, 2, 0, ep), (c / (2 * b + 1), 2, 4, 0, ep)])


def linear_correction_piece(b, ep) -> GradedPoly:
    """(x^2 + y^2/b) / (4(1+b))."""
    b = F(b)
    a = 1 / (4 * (1 + b))
    return poly([(a, 2, 0, 0, ep), (a / b, 0, 2, 0, ep)])


def quartic_correction_piece(b, ep) -> GradedPoly:
    """-(x^4/(4(2+b)) + x^2y^2/b + 9x^2y^2/((2+b)(1+2b)) + y^4/(4b(1+2b))) / (4(1+b)^2)."""
    b = F(b)
    d = -1 / (4 * (1 + b) ** 2)
    return poly(
        [
            (d / (4 * (2 + b)), 4, 0, 0, ep),
            (d * (1 / b + F(9) / ((2 + b) * (1 + 2 * b))), 2, 2, 0, ep),
            (d / (4 * b * (1 + 2 * b)), 0, 4, 0, ep),
        ],
    )


def deep_correction_piece(b, ep) -> GradedPoly:
    """The pure-quadratic second-order piece (three grouped terms)."""
    b = F(b)
    t1 = -1 / (16 * (b + 1) ** 2)
    t2 = -1 / (8 * b * (b + 1) ** 2)
    t3 = -1 / (8 * (1 + b) ** 2)
    x2 = t1 + t2 + t3 * (F(9) / ((1 + 2 * b) * (2 + b)) + Fraction(3, 2) / (2 + b))
    y2 = (
        t1 / b**3
        + t2 / b
        + t3 * (F(9) / (b * (1 + 2 * b) * (2 + b)) + Fraction(3, 2) / (b**2 * (1 + 2 * b)))
    )
    return poly([(x2, 2, 0, 0, ep), (y2, 0, 2, 0, ep)])


# ------------------------------------------------------------- whole levels


def classical_exponent(b) -> GradedPoly:
    """Leading exponent of the classically coupled run, through order 2."""
    return (
        gaussian_exponent(b)
        + coupling_piece(b, 1)
        + quartic_exponent_piece(b, 2)
    )


def mu_levels(b) -> tuple:
    """The three stored exponent levels of an order-2, depth-1 run."""
    s1 = linear_correction_piece(b, 1) + quartic_correction_piece(b, 2)
    return (classical_exponent(b), s1, deep_correction_piece(b, 2))


def eps_exponent_levels(b) -> tuple:
    """The seven exponent levels of the two-shift deferred-coupling run."""
    zero = GradedPoly.zero()
    return (
        gaussian_exponent(b),
        zero,
        coupling_piece(b, 1),
        linear_correction_piece(b, 1),
        quartic_exponent_piece(b, 2),
        quartic_correction_piece(b, 2),
        deep_correction_piece(b, 2),
    )


def lambda_exponent_levels(b) -> tuple:
    """The five exponent levels of the one-shift deferred-coupling run."""
    return (
        gaussian_exponent(b),
        coupling_piece(b, 1),
        linear_correction_piece(b, 1) + quartic_exponent_piece(b, 2),
        quartic_correction_piece(b, 2),
        deep_correction_piece(b, 2),
    )


def eps_prefactor_levels(b) -> tuple:
    """The six prefactor levels of the two-shift polynomial run.

    The quartic-in-quartic coefficient at depth two and the overall 1/16 at
    depth four are the cross-method values (two misprints exist in older
    write-ups of this expansion; all pipelines here agree on these).
    """
    b = F(b)
    one = GradedPoly.const(1)
    chi1 = -coupling_piece(b, 1)
    chi2 = -linear_correction_piece(b, 1) + poly(
        [(1 / (8 * (1 + b) ** 2), 4, 4, 0, 2)]
    )
    c3 = 1 / (8 * (1 + b) ** 2)
    chi3 = poly(
        [
            (c3 * (4 + b) / (2 + b), 4, 2, 0, 2),
            (c3 * (4 * b + 1) / (b * (2 * b + 1)), 2, 4, 0, 2),
        ],
    )
    c4 = 1 / (16 * (1 + b) ** 2)
    chi4 = poly(
        [
            (c4 * (4 + b) / (2 * (2 + b)), 4, 0, 0, 2),
            (c4 * (F(36) / ((1 + 2 * b) * (2 + b)) + 5 / b), 2, 2, 0, 2),
            (c4 * (4 * b + 1) / (2 * b**2 * (2 * b + 1)), 0, 4, 0, 2),
        ],
    )
    chi5 = -deep_correction_piece(b, 2)
    return (one, chi1, chi2, chi3, chi4, chi5)


# ------------------------------------------------------------ energy slots


def energy_poly(slots: dict) -> GradedPoly:
    """Flat energy series from {(total g power, parameter power): coef}."""
    return GradedPoly({(ep, gp, 0, 0): c for (gp, ep), c in slots.items()})


def mu_energy_slots(b) -> GradedPoly:
    b = F(b)
    return energy_poly({
        (1, 0): (1 + b) / 2,
        (0, 1): 1 / (4 * b),
        (-1, 2): -(b**2 + 4 * b + 1) / (16 * b**3 * (1 + b)),
    })


def eps_energy_slots(b) -> GradedPoly:
    b = F(b)
    return energy_poly({
        (1, 0): (1 + b) / 2,
        (-2, 1): 1 / (4 * b),
        (-5, 2): -(b**2 + 4 * b + 1) / (16 * b**3 * (1 + b)),
    })


def lambda_energy_slots(b) -> GradedPoly:
    b = F(b)
    return energy_poly({
        (1, 0): (1 + b) / 2,
        (-1, 1): 1 / (4 * b),
        (-3, 2): -(b**2 + 4 * b + 1) / (16 * b**3 * (1 + b)),
    })


# ------------------------------------------- operator-method coefficients


def shift_first_order(b) -> Fraction:
    return 1 / (4 * F(b))


def shift_second_order(b) -> Fraction:
    b = F(b)
    return -(b**2 + 4 * b + 1) / (16 * b**3 * (1 + b))


def operator_first_order(b) -> dict:
    """(i, j) -> (g power, coefficient) for the first-order prefactor."""
    b = F(b)
    return {
        (2, 2): (-1, -1 / (2 * (1 + b))),
        (2, 0): (-2, -1 / (4 * (1 + b))),
        (0, 2): (-2, -1 / (4 * b * (1 + b))),
    }


def operator_second_order(b) -> dict:
    """(i, j) -> (g power, coefficient) for the second-order prefactor."""
    b = F(b)
    w = (1 + b) ** 2
    return {
        (4, 4): (-2, 1 / (8 * w)),
        (4, 2): (-3, (4 + b) / (8 * w * (2 + b))),
        (2, 4): (-3, (1 + 4 * b) / (8 * b * w * (1 + 2 * b))),
        (4, 0): (-4, (4 + b) / (32 * w * (2 + b))),
        (2, 2): (-4, (F(5) / (2 * b) + F(18) / ((1 + 2 * b) * (2 + b))) / (8 * w)),
        (0, 4): (-4, (1 + 4 * b) / (32 * w * (1 + 2 * b) * b**2)),
        (2, 0): (
            -5,
            ((b + 2) / b + F(18) / ((2 + b) * (1 + 2 * b)) + F(3) / (2 + b)) / (16 * w),
        ),
        (0, 2): (
            -5,
            ((2 * b + 1) / b**3 + F(18) / (b * (2 + b) * (1 + 2 * b)) + F(3) / (b**2 * (1 + 2 * b)))
            / (16 * w),
        ),
    }


def green_orders(series: SeriesSolution) -> tuple[list, list]:
    """The operator inversion's prefactor corrections and energies by
    coupling order k = 0 .. order: the parameter-order slices of the folded
    prefactor and of the energy series.  Order 0 holds 1 and the zero-point
    energy."""

    def by_order(p: GradedPoly) -> list:
        return [
            GradedPoly({key: c for key, c in p.terms.items() if key[0] == k})
            for k in range(series.order + 1)
        ]

    return by_order(fold_levels(series.terms, 0)), by_order(series.energies)


def odd_double_factorial(n: int) -> int:
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


# --------------------------------------------------- basis-recursion values


def basis_first_order_table(b) -> dict:
    """(m, n) -> coefficient of the first-order basis correction."""
    b = F(b)
    return {
        (2, 2): -1 / (32 * b * (1 + b)),
        (2, 0): -1 / (16 * b),
        (0, 2): -1 / (16 * b**2),
    }


def basis_second_order_amplitudes(b) -> dict:
    """(m, n) -> normalized second-order amplitude (floats)."""
    import math

    b = float(b)
    s2 = math.sqrt(2.0)
    s3 = math.sqrt(3.0)
    return {
        (2, 0): (2 * b * b + 8 * b + 1) / (16 * s2 * b**3 * (b + 1)),
        (0, 2): (b * b + 8 * b + 2) / (16 * s2 * b**4 * (b + 1)),
        (2, 2): (5 * b * b + 34 * b + 5) / (32 * b**3 * (b + 1) ** 2),
        (4, 2): s3 * (b + 6) / (16 * b * b * (b + 1) * (b + 2)),
        (2, 4): s3 * (6 * b + 1) / (16 * b**3 * (b + 1) * (2 * b + 1)),
        (4, 0): s3 * (b + 3) / (32 * s2 * b * b * (b + 1)),
        (0, 4): s3 * (3 * b + 1) / (32 * s2 * b**4 * (b + 1)),
        (4, 4): 3 / (16 * b * b * (b + 1) ** 2),
    }


def origin_constant_first_order(b) -> Fraction:
    b = F(b)
    return (b**2 + b + 1) / (8 * b**2 * (1 + b))


# ------------------------------------------------- full-box grid reference


def _second_difference(n: int, h: float):
    main = np.full(n, -2.0 / (h * h))
    off = np.full(n - 1, 1.0 / (h * h))
    return diags([off, main, off], [-1, 0, 1])


def full_box_ground_state(g: float, b: float, mu: float, grid, tol: float = 1e-10):
    """(energy, psi) of the 5-point Hamiltonian on the whole Dirichlet box.

    Inverse iteration on every grid point, with no use of the mirror
    symmetries: the reference that `fd_ground_state`'s quarter-box solve
    must reproduce.
    """
    nx, ny, lx, ly = grid.resolved(g, b)
    hx = 2 * lx / (nx + 1)
    hy = 2 * ly / (ny + 1)
    xx = (-lx + hx * np.arange(1, nx + 1))[:, None]
    yy = (-ly + hy * np.arange(1, ny + 1))[None, :]
    pot = g * g * (0.5 * (xx**2 + b * b * yy**2) + mu * xx**2 * yy**2)
    ham = (
        -0.5 * kron(_second_difference(nx, hx), identity(ny))
        - 0.5 * kron(identity(nx), _second_difference(ny, hy))
        + diags(pot.ravel())
    ).tocsc()
    solver = splu(ham)
    vec = np.exp(-0.5 * g * (xx**2 + b * yy**2)).ravel()
    vec /= np.linalg.norm(vec)
    tol_eff = tol * max(1.0, (max(nx, ny) / 161.0) ** 2)
    for _ in range(200):
        vec = solver.solve(vec)
        vec /= np.linalg.norm(vec)
        hv = ham @ vec
        energy = float(vec @ hv)
        if np.linalg.norm(hv - energy * vec) <= tol_eff:
            break
    else:
        raise AssertionError("full-box reference did not converge")
    if vec.sum() < 0:
        vec = -vec
    return energy, vec.reshape(nx, ny) / math.sqrt(hx * hy)


def axis_ground_level(n: int, length: float, freq: float) -> float:
    """Lowest eigenvalue of -D/2 + freq^2 s^2/2 on a full n-point Dirichlet axis.

    No mirror symmetry is used: at zero coupling the grid ground energy is
    the sum of the two axes' levels.
    """
    h = 2 * length / (n + 1)
    s = -length + h * np.arange(1, n + 1)
    level = eigh_tridiagonal(
        np.full(n, 1.0 / (h * h)) + 0.5 * freq**2 * s**2,
        np.full(n - 1, -0.5 / (h * h)),
        eigvals_only=True,
        select="i",
        select_range=(0, 0),
    )
    return float(level[0])


# ------------------------------------------------ level-by-level transforms
# Native runs of different flavors and shapes agree level by level once
# mapped through these; the program itself compares runs on
# `canonical_window` alone.


def series_log(p: GradedPoly, order: int) -> GradedPoly:
    """log p for p = 1 + (parameter order >= 1 remainder)."""
    return _power_series(p - 1, lambda k: Fraction((-1) ** (k + 1), k) if k else 0, order)


def exp_to_poly(sol: SeriesSolution) -> SeriesSolution:
    """Fold exponent levels below the first into prefactor levels.

    exp(-(S2/g + S3/g^2 + ...)) is expanded and collected by total g depth.
    Only meaningful when the flow is harmonic, i.e. for deferred flavors;
    the mu flavor keeps coupling terms in S0 and must go through
    `normalize_grading` instead.
    """
    if sol.kind != "exp":
        raise ValueError("expected an exponent-level solution")
    if sol.flavor == "mu":
        raise ValueError("mu-flavor exponents do not fold level by level")
    depth = sol.depth
    gen = -fold_levels(sol.terms[2:], -1)
    gen = _truncate_g_depth(gen.truncate_ep(sol.order), depth)
    folded = _exp_series(gen, sol.order, depth)
    chis = [slice_level(folded, -n) for n in range(depth + 1)]
    return SeriesSolution(
        kind="poly",
        flavor=sol.flavor,
        b=sol.b,
        order=sol.order,
        terms=tuple(chis),
        energies=sol.energies,
        base=(sol.terms[0], sol.terms[1]),
    )


def normalize_grading(sol: SeriesSolution, target: str = "eps") -> SeriesSolution:
    """Re-express a solution in the grading of another coupling flavor.

    One eps unit of the coupling is worth g^2 mu units and one lambda unit
    is worth g mu units, so a flavor change moves every coefficient's g
    power by a multiple of its parameter order.  Levels carry implicit g
    powers (g^(1-n) for exponent levels, g^(-n) for prefactor levels), so
    moved terms migrate between levels: the levels are folded into a single
    total-grade object, regraded and sliced back into levels of the target
    convention.  Prefactor solutions additionally renormalize the
    exponent/prefactor split (exponent terms pushed below the harmonic
    levels are expanded into the prefactor and the prefactor is rescaled so
    its depth-zero slice stays 1), which makes the result agree level by
    level with a native run of the target flavor.

    The mu flavor keeps the coupling inside the classical flow and has no
    prefactor form, so prefactor solutions cannot be regraded to it.
    """
    if target not in _G_SHIFT:
        raise ValueError(f"unknown flavor {target!r}")
    if target == sol.flavor:
        return sol

    energies = sol.energies.regrade(sol.flavor, target)
    if sol.kind == "exp":
        folded = fold_levels(sol.terms, 1).regrade(sol.flavor, target)
        if any(gp > 1 for (_, gp, _, _) in folded.num):
            raise ValueError("terms would land above the leading level")
        last = max((1 - gp for (_, gp, _, _) in folded.num), default=1)
        last = max(last, 1)
        terms = tuple(slice_level(folded, 1 - n) for n in range(last + 1))
        base: tuple[GradedPoly, ...] = ()
    else:
        if target == "mu":
            raise ValueError("the mu flavor has no prefactor form")
        exponent = fold_levels(sol.base, 1).regrade(sol.flavor, target)
        if any(gp > 1 for (_, gp, _, _) in exponent.num):
            raise ValueError("terms would land above the leading level")
        deep = GradedPoly._reduced(
            {k: n for k, n in exponent.num.items() if k[1] < 0}, exponent.den
        )
        pf = fold_levels(sol.terms, 0).regrade(sol.flavor, target)
        if any(gp > 0 for (_, gp, _, _) in pf.num):
            raise ValueError("prefactor terms would land above depth zero")
        pf = pf.mul(_exp_series(-deep, sol.order), sol.order)
        head = slice_level(pf, 0)
        s1 = slice_level(exponent, 0) - series_log(head, sol.order)
        pf = pf.mul(_series_inverse(head, sol.order), sol.order)
        depth = max((-gp for (_, gp, _, _) in pf.num), default=0)
        terms = tuple(slice_level(pf, -n) for n in range(depth + 1))
        base = (slice_level(exponent, 1), s1)

    return SeriesSolution(
        kind=sol.kind,
        flavor=target,
        b=sol.b,
        order=sol.order,
        terms=terms,
        energies=energies,
        base=base,
    )


# ------------------------------------------------ the trajectory route
# The paper's construction: S_0 is the action of the inverted classical
# trajectory, and each level is the time integral of its right side along
# that trajectory, evaluated at the endpoint.  The program solves the same
# equations in the plane; these are the reference it is checked against.


def trajectory_run(spec, order: int) -> tuple[Trajectory, GradedPoly]:
    """Inverted classical trajectory of ``spec`` and its action S_0."""
    traj = invert_endpoint_constants(solve_classical_trajectory(spec, order))
    return traj, action_integral(traj)


def trajectory_level(rhs: GradedPoly, traj: Trajectory) -> tuple[GradedPoly, GradedPoly]:
    """Solve grad(S_0) . grad(S_next) = rhs - E along the flow.

    Returns (E, S_next) with E the flat part of the restricted right side
    and S_next the endpoint value of the time integral of the remainder,
    both truncated above ``traj.order``.
    """
    restricted = restrict_to_trajectory(rhs, traj)
    remainder = integrate_to_T(restricted.drop_constant(), traj.b)
    return restricted.constant_part(), evaluate_at_endpoint(remainder, traj)


def energy_conservation_residual(traj: Trajectory, max_ep: int | None = None) -> GradedPoly:
    """Kinetic minus potential energy along the flow.

    Exactly zero through the solved order; the first truncated order shows
    up when ``max_ep`` exceeds ``traj.order``.
    """
    if max_ep is not None:
        traj = dataclasses.replace(traj, order=max_ep)
    return _kinetic(traj) - restrict_to_trajectory(traj.spec.potential(), traj)


def flow_equation_residual(traj: Trajectory, max_ep: int | None = None) -> tuple[GradedPoly, GradedPoly]:
    """Second-derivative residuals of both flow equations, truncated."""
    if max_ep is not None:
        traj = dataclasses.replace(traj, order=max_ep)
    fx = traj.spec.potential().diff("x")
    fy = traj.spec.potential().diff("y")
    ax = flow_derivative(flow_derivative(traj.x, traj.b), traj.b)
    ay = flow_derivative(flow_derivative(traj.y, traj.b), traj.b)
    res_x = ax - restrict_to_trajectory(fx, traj)
    res_y = ay - restrict_to_trajectory(fy, traj)
    return res_x.truncate_ep(traj.order), res_y.truncate_ep(traj.order)


def pde_residual(sol: SeriesSolution, spec, n: int) -> GradedPoly:
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


@contextmanager
def swapped(modules, **swaps):
    """Bind each of ``swaps`` by name in every one of ``modules`` while the
    block lasts."""
    saved = [(mod, name, getattr(mod, name)) for mod in modules for name in swaps]
    try:
        for mod, name, _ in saved:
            setattr(mod, name, swaps[name])
        yield
    finally:
        for mod, name, original in saved:
            setattr(mod, name, original)


def unreachable(*args, **kwargs):
    """Stands in for a solver that a refused input must not reach."""
    raise AssertionError("a rejected input reached the solver")


def trajectory_route():
    """Run the solvers through the trajectory route while the block lasts."""
    return swapped(
        (hierarchy, perturbation),
        classical_run=trajectory_run,
        quadrature_level=trajectory_level,
    )


# ------------------------------------------------ the loops the solvers replaced
# Each builds the same exact value as the program's faster form, the way the
# equations are written; the tests check values, and the energies' key order,
# against them.


def pairwise_transport_source(spec, grads, n: int, max_ep: int) -> GradedPoly:
    """`hierarchy._transport_source` by the ordered pair loop: every
    (i, j) with i + j = n + 1 formed and halved on its own."""
    rhs = divergence(grads[n]) * Fraction(1, 2) if n < len(grads) else GradedPoly.zero()
    for i in range(1, n + 1):
        j = n + 1 - i
        if 1 <= j < len(grads) and i < len(grads):
            rhs = rhs - dot(grads[i], grads[j], max_ep) * Fraction(1, 2)
    if n == insertion_level_for(spec.flavor):
        rhs = rhs + spec.coupling_term()
    return rhs.truncate_ep(max_ep)


def chain_resolvent_sum(p: GradedPoly, b: Fraction) -> GradedPoly:
    """`greens.resolvent_sum` by the iterate chain p + D(p) + D^2(p) + ...,
    D the diffusion step: each iterate is stepped whole, its flat terms
    dropped first, until an iterate is zero."""
    total = GradedPoly.zero()
    cur = p
    while cur:
        total = total + cur
        cur = diffusion_step(cur.drop_constant(), b)
    return total


def entrywise_chi_from_tables(tables, b, order: int) -> GradedPoly:
    """`oracle._chi_from_tables` with one Hermite product per table entry."""
    max_m = max((k[2] for t in tables for k in t.num), default=0)
    max_n = max((k[3] for t in tables for k in t.num), default=0)
    hx = oracle._hermite_table(max_m, "x", b)
    hy = oracle._hermite_table(max_n, "y", b)
    chi = GradedPoly.zero()
    for k, table in enumerate(tables):
        state = GradedPoly.zero()
        for (_, _, m, n), v in table.num.items():
            state = state + hx[m].mul(hy[n]) * v
        chi = chi + (state * Fraction(1, table.den)).shift(ep=k, gp=-3 * k)
    head = chi.constant_part()
    return chi.mul(_series_inverse(head, order), order)


def solution_to_doc(sol: SeriesSolution, method: str) -> dict:
    """A run's JSON document as the dict `json.dumps` would be given: the
    reference for `cli.render_solution`'s JSON."""

    def rows(p: GradedPoly) -> list[dict]:
        return [
            {"ep": ep, "gp": gp, "i": i, "j": j, "c": str(c)}
            for (ep, gp, i, j), c in p.sorted_terms()
        ]

    return {
        "method": method,
        "kind": sol.kind,
        "flavor": sol.flavor,
        "b": str(sol.b),
        "order": sol.order,
        "depth": sol.depth,
        "levels": [rows(t) for t in sol.terms],
        "base": [rows(t) for t in sol.base],
        "energies": [
            {"gp": gp, "ep": ep, "c": str(c)}
            for gp, ep, c in sorted((gp, ep, c) for (ep, gp, _, _), c in sol.energies.terms.items())
        ],
    }
