"""Classical escape trajectory: flow solution, endpoint inversion, action."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadosc import GradedPoly, PotentialSpec, standard_spec
from quadosc.algebra import evaluate_at_endpoint
from quadosc.errors import ResonantDenominator
from quadosc.trajectory import (
    action_integral,
    invert_endpoint_constants,
    solve_classical_trajectory,
)

from helpers import (
    B_VALUES,
    F,
    classical_exponent,
    energy_conservation_residual,
    flow_equation_residual,
    slot,
)

ratios = st.fractions(
    min_value=Fraction(1, 5), max_value=Fraction(5), max_denominator=6
)


def test_spec_validation():
    good = GradedPoly.mono(1, i=2, j=2)
    with pytest.raises(ValueError):
        PotentialSpec(b=Fraction(0), coupling=good)
    with pytest.raises(ValueError):
        PotentialSpec(b=Fraction(-1), coupling=good)
    with pytest.raises(ValueError):
        PotentialSpec(b=Fraction(1), coupling=good, flavor="nu")
    with pytest.raises(ValueError):
        PotentialSpec(b=Fraction(1), coupling=good.shift(ep=1))
    with pytest.raises(ValueError):
        PotentialSpec(b=Fraction(1), coupling=good + GradedPoly.const(1))


def test_standard_spec_shape():
    spec = standard_spec(Fraction(3, 2))
    assert spec.coupling == GradedPoly.mono(1, i=2, j=2)
    assert slot(spec.potential(), 0, 2, gp=0, ep=0).terms == {
        (0, 0, 0, 0): Fraction(9, 8)
    }
    # deferred flavors keep the classical well harmonic
    assert standard_spec(2, "eps").potential() == standard_spec(2, "eps").harmonic_part()


def test_deferred_flavor_trajectory_is_harmonic():
    traj = solve_classical_trajectory(standard_spec(2, "eps"), order=2)
    assert set(traj.x.terms) == {(0, 0, 1, 0)}
    assert set(traj.y.terms) == {(0, 0, 0, 1)}


@pytest.mark.parametrize("b", B_VALUES)
def test_flow_solution_closed_form(b):
    """Each correction is a short amplitude polynomial with known coefficients."""
    traj = solve_classical_trajectory(standard_spec(b), order=2)
    x1 = 1 / (2 * b * (b + 1))
    y1 = 1 / (2 * (b + 1))
    assert traj.x.terms == {
        (0, 0, 1, 0): F(1),
        (1, 0, 1, 2): x1,
        (2, 0, 3, 2): 1 / (2 * (b + 2) * (b + 1) ** 2),
        (2, 0, 1, 4): 1 / (8 * b**2 * (2 * b + 1) * (b + 1)),
    }
    assert traj.y.terms == {
        (0, 0, 0, 1): F(1),
        (1, 0, 2, 1): y1,
        (2, 0, 4, 1): 1 / (8 * (b + 2) * (b + 1)),
        (2, 0, 2, 3): 1 / (2 * b * (2 * b + 1) * (b + 1) ** 2),
    }


@pytest.mark.parametrize("b", B_VALUES)
def test_endpoint_inversion_closed_form(b):
    traj = invert_endpoint_constants(solve_classical_trajectory(standard_spec(b), 2))
    w = (1 + b) ** 2
    assert traj.cx.terms == {
        (0, 0, 1, 0): F(1),
        (1, 0, 1, 2): -1 / (2 * b * (1 + b)),
        (2, 0, 3, 2): 1 / (w * b * (2 + b)),
        (2, 0, 1, 4): (3 * b + 1) / (8 * b**2 * (2 * b + 1) * w),
    }
    assert traj.cy.terms == {
        (0, 0, 0, 1): F(1),
        (1, 0, 2, 1): -1 / (2 * (1 + b)),
        (2, 0, 2, 3): 1 / (w * (2 * b + 1)),
        (2, 0, 4, 1): (3 + b) / (8 * (2 + b) * w),
    }


def _check_endpoint_roundtrip(b, order):
    """Substituting the solved amplitudes back gives the endpoint coordinate."""
    traj = invert_endpoint_constants(solve_classical_trajectory(standard_spec(b), order))
    assert evaluate_at_endpoint(traj.x, traj) == GradedPoly.variable("x")
    assert evaluate_at_endpoint(traj.y, traj) == GradedPoly.variable("y")
    # the power tables filled above take no part in comparison
    assert traj == invert_endpoint_constants(solve_classical_trajectory(standard_spec(b), order))


@pytest.mark.parametrize("b", B_VALUES)
def test_endpoint_inversion_roundtrip(b):
    _check_endpoint_roundtrip(b, 2)


@pytest.mark.parametrize("order", [4, 6])
def test_endpoint_inversion_roundtrip_high_order(order):
    """Order-by-order inversion still gives the full truncated inverse."""
    _check_endpoint_roundtrip(Fraction(5, 3), order)


@settings(deadline=None, max_examples=10)
@given(st.integers(1, 9), st.integers(1, 9))
def test_endpoint_inversion_roundtrip_random_ratio(p, q):
    _check_endpoint_roundtrip(Fraction(p, q), 4)


@pytest.mark.parametrize("b", B_VALUES)
def test_action_integral_closed_form(b):
    traj = invert_endpoint_constants(solve_classical_trajectory(standard_spec(b), 2))
    assert action_integral(traj) == classical_exponent(b)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_flow_equations_satisfied(order):
    traj = solve_classical_trajectory(standard_spec(Fraction(5, 3)), order)
    rx, ry = flow_equation_residual(traj)
    assert not rx and not ry


def test_conservation_holds_to_solved_order_only():
    traj = solve_classical_trajectory(standard_spec(Fraction(2)), order=2)
    assert not energy_conservation_residual(traj)
    assert not energy_conservation_residual(traj, max_ep=2)
    beyond = energy_conservation_residual(traj, max_ep=3)
    assert beyond
    assert {k[0] for k in beyond.terms} == {3}


@settings(deadline=None, max_examples=20)
@given(ratios, st.integers(0, 2))
def test_conservation_property(b, order):
    traj = solve_classical_trajectory(standard_spec(b), order)
    assert not energy_conservation_residual(traj)
    rx, ry = flow_equation_residual(traj)
    assert not rx and not ry


def test_resonant_coupling_detected():
    # an x*y coupling drives the x equation at frequency b, resonant at b=1
    spec = PotentialSpec(b=Fraction(1), coupling=GradedPoly.mono(1, i=1, j=1))
    with pytest.raises(ResonantDenominator):
        solve_classical_trajectory(spec, order=1)


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        solve_classical_trajectory(standard_spec(1), order=-1)
