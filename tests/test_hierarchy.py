"""Direct level-by-level solver: closed-form levels, energies, and guards."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadosc import (
    GradedPoly,
    hierarchy,
    perturbation,
    solve_exponential,
    standard_spec,
)

from quadosc.algebra import gradient
from quadosc.cli import PIPELINES, build_solution
from quadosc.hierarchy import fold_levels

from helpers import (
    B_VALUES,
    dot,
    laplacian,
    mu_energy_slots,
    mu_levels,
    pairwise_transport_source,
    pde_residual,
    swapped,
    trajectory_route,
)


@pytest.fixture(params=B_VALUES, ids=str)
def b(request):
    return request.param


@pytest.fixture
def solution(b):
    return solve_exponential(standard_spec(b), order=2)


def test_levels_match_closed_form(b, solution):
    assert solution.kind == "exp"
    assert solution.flavor == "mu"
    assert solution.b == b
    assert solution.order == 2
    assert solution.depth == 1
    assert solution.base == ()
    assert solution.terms == mu_levels(b)


def test_energy_slots_match_closed_form(b, solution):
    assert solution.energies == mu_energy_slots(b)


def test_transport_equations_hold_in_coordinates(b, solution):
    # Residuals rebuilt in (x, y) variables, not merely along the flow.  The
    # deferred flavors at order 3 add the coupling insertion to the sources.
    runs = [(standard_spec(b), solution)]
    for flavor in ("eps", "lambda"):
        spec = standard_spec(b, flavor)
        runs.append((spec, solve_exponential(spec, order=3)))
    zero = GradedPoly.zero()
    for spec, run in runs:
        for n in range(len(run.terms) - 1):
            assert pde_residual(run, spec, n) == zero, (spec.flavor, n)


def test_residual_level_range(b, solution):
    spec = standard_spec(b)
    with pytest.raises(ValueError):
        pde_residual(solution, spec, len(solution.terms) - 1)
    with pytest.raises(ValueError):
        pde_residual(solution, spec, -1)


def test_energy_equals_origin_value_of_source(b, solution):
    # The level-n energy must be the literal x=y=0 value of that level's
    # right-hand side, not just whatever the flow quadrature left flat.
    half = Fraction(1, 2)
    for n in range(len(solution.terms) - 1):
        rhs = laplacian(solution.terms[n]) * half
        for i in range(1, n + 1):
            j = n + 1 - i
            if j < len(solution.terms):
                rhs = rhs - dot(gradient(solution.terms[i]), gradient(solution.terms[j])) * half
        rhs = rhs.truncate_ep(solution.order)
        origin = {
            (ep, gp): c for (ep, gp, i, j), c in rhs.constant_part().terms.items()
        }
        expected = {
            (ep, 0): c for (ep, gp, _, _), c in solution.energies.terms.items() if gp == 1 - n
        }
        assert origin == expected


def test_assembled_exponent_folds_levels(b, solution):
    # the state is exp(-(g S_0 + S_1 + S_2/g + ...)): one total-grade exponent
    rebuilt = GradedPoly.zero()
    for n, level in enumerate(solution.terms):
        rebuilt = rebuilt + level.shift(gp=1 - n)
    assert fold_levels(solution.terms, 1) == rebuilt
    assert solution.energies == mu_energy_slots(b)


def test_residual_rejects_prefactor_solutions(b, solution):
    fake = dataclasses.replace(solution, kind="poly")
    with pytest.raises(ValueError):
        pde_residual(fake, standard_spec(b), 0)


def test_physical_energy_exact_sample():
    sol = solve_exponential(standard_spec(Fraction(1)), order=2)
    g, mu = Fraction(10), Fraction(1, 10)
    exact = sum(c * g**gp * mu**ep for (ep, gp, _, _), c in sol.energies.terms.items())
    assert exact == Fraction(160397, 16000)
    assert sol.physical_energy(10.0, 0.1) == pytest.approx(float(exact), rel=1e-14)


def _check_swap_symmetry(b: Fraction, order: int) -> None:
    direct = solve_exponential(standard_spec(b), order).energies.terms
    swapped = solve_exponential(standard_spec(1 / b), order).energies.terms
    assert direct.keys() == swapped.keys()
    for (ep, gp, i, j), c in direct.items():
        assert c == swapped[(ep, gp, i, j)] * b ** (gp - 2 * ep)


def test_energy_swap_symmetry(b):
    # E(g, b, mu) == E(g*b, 1/b, mu/b**2) slot by slot.
    for order in (2, 4):
        _check_swap_symmetry(b, order)


@settings(deadline=None, max_examples=8)
@given(
    st.fractions(
        min_value=Fraction(1, 5), max_value=Fraction(5), max_denominator=5
    ).filter(lambda q: q > 0)
)
def test_energy_swap_symmetry_random_ratio(ratio):
    for order in (2, 4):
        _check_swap_symmetry(ratio, order)


# ----- the plane solve is the paper's trajectory quadrature -------------------


def _check_plane_solve_is_the_quadrature(b: Fraction, order: int) -> None:
    for method in PIPELINES:
        plane = build_solution(method, b, order)
        with trajectory_route():
            reference = build_solution(method, b, order)
        assert plane.terms == reference.terms, method
        assert plane.base == reference.base, method
        assert plane.energies == reference.energies, method
        # `evaluate` sums the energy terms in insertion order
        assert list(plane.energies.num) == list(reference.energies.num), method


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 6))
def test_plane_solve_is_the_trajectory_quadrature(p, q, order):
    _check_plane_solve_is_the_quadrature(Fraction(p, q), order)


def test_plane_solve_is_the_trajectory_quadrature_at_order_16():
    _check_plane_solve_is_the_quadrature(Fraction(1, 2), 16)


# ----- each unordered pair of the transport source once -----------------------


@settings(deadline=None, max_examples=12)
@given(st.sampled_from(PIPELINES), st.integers(1, 9), st.integers(1, 9), st.integers(1, 5))
@example("hierarchy", 1, 2, 8)
def test_pair_sum_is_the_ordered_pair_loop(method, p, q, order):
    b = Fraction(p, q)
    paired = build_solution(method, b, order)
    with swapped((hierarchy, perturbation), _transport_source=pairwise_transport_source):
        reference = build_solution(method, b, order)
    assert paired == reference
    # `evaluate` sums the energy terms in insertion order
    assert list(paired.energies.num) == list(reference.energies.num)
