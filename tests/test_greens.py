"""Operator-inversion method: single steps, chain coefficients, full runs."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadosc import (
    GradedPoly,
    OddParity,
    SingularInverse,
    apply_flow_inverse,
    diffusion_step,
    resolvent_sum,
    solve_green,
    solve_polynomial,
    standard_spec,
)
from quadosc.hierarchy import fold_levels
from quadosc.trajectory import zero_point_energy

from helpers import (
    B_VALUES,
    F,
    green_orders,
    laplacian,
    odd_double_factorial,
    operator_first_order,
    operator_second_order,
    shift_first_order,
    shift_second_order,
    slot,
)


@lru_cache(maxsize=None)
def green_run(b: Fraction):
    return solve_green(standard_spec(b, "eps"), order=2)


@pytest.fixture(params=B_VALUES, ids=str)
def b(request):
    return request.param


def mono(c, i=0, j=0, gp=0, ep=0):
    return GradedPoly.mono(Fraction(c), i=i, j=j, gp=gp, ep=ep)


def full_chain(l, m, b):
    """Flat remnant of the whole diffusion chain on x^(2l) y^(2m)."""
    return resolvent_sum(mono(1, i=2 * l, j=2 * m), b).constant_part()


def partial_chain(i, j, n, b):
    """n diffusion steps, then the inverse scaling, on x^i y^j."""
    p = mono(1, i=i, j=j)
    for _ in range(n):
        p = diffusion_step(p, b)
    return apply_flow_inverse(p, b)


# ----- single operator steps -------------------------------------------------


def test_inverse_scaling_divides_by_flow_eigenvalue(b):
    assert apply_flow_inverse(mono(1, i=2), b) == mono(F(1) / 2, i=2, gp=-1)
    assert apply_flow_inverse(mono(1, j=2), b) == mono(1 / (2 * b), j=2, gp=-1)
    assert apply_flow_inverse(mono(1, i=2, j=2), b) == mono(
        1 / (2 * (1 + b)), i=2, j=2, gp=-1
    )
    assert apply_flow_inverse(mono(1, i=4, j=6), b) == mono(
        1 / (4 + 6 * b), i=4, j=6, gp=-1
    )


def test_inverse_scaling_preserves_grading_tags(b):
    p = GradedPoly.mono(Fraction(3), i=2, j=4, gp=-1, ep=2)
    out = apply_flow_inverse(p, b)
    assert out == GradedPoly.mono(
        Fraction(3) / (2 + 4 * b), i=2, j=4, gp=-2, ep=2
    )


def test_inverse_scaling_guards():
    with pytest.raises(OddParity):
        apply_flow_inverse(mono(1, i=3), Fraction(1))
    with pytest.raises(OddParity):
        apply_flow_inverse(mono(1, i=1, j=2), Fraction(1))
    with pytest.raises(SingularInverse):
        apply_flow_inverse(mono(5), Fraction(1))
    with pytest.raises(SingularInverse):
        apply_flow_inverse(mono(1, i=2) + mono(1), Fraction(1))


def test_diffusion_step_lowers_pure_powers(b):
    for l in range(1, 5):
        assert diffusion_step(mono(1, i=2 * l), b) == mono(
            F(2 * l - 1) / 2, i=2 * (l - 1), gp=-1
        )
        assert diffusion_step(mono(1, j=2 * l), b) == mono(
            F(2 * l - 1) / (2 * b), j=2 * (l - 1), gp=-1
        )


def test_diffusion_step_quartic_samples(b):
    assert diffusion_step(mono(1, j=4), b) == mono(3 / (2 * b), j=2, gp=-1)
    expected = mono(1 / (2 * (1 + b)), i=2, gp=-1) + mono(
        1 / (2 * (1 + b)), j=2, gp=-1
    )
    assert diffusion_step(mono(1, i=2, j=2), b) == expected


even_keys = st.tuples(
    st.integers(0, 2), st.integers(-2, 1), st.sampled_from((0, 2, 4, 6)), st.sampled_from((0, 2, 4, 6))
).filter(lambda k: k[2] or k[3])
even_polys = st.dictionaries(
    even_keys, st.fractions(min_value=-6, max_value=6, max_denominator=8).filter(bool), max_size=8
).map(GradedPoly)


@settings(deadline=None, max_examples=60)
@given(even_polys, st.integers(1, 9), st.integers(1, 9))
@example(mono(1, i=2) - mono(1, j=2) + mono(3, i=2, j=2, ep=1), 1, 1)  # x^2 - y^2 cancels
def test_diffusion_step_is_half_laplacian_of_inverse(p, top, q):
    b = Fraction(top, q)
    step = diffusion_step(p, b)
    reference = laplacian(apply_flow_inverse(p, b)) * Fraction(1, 2)
    assert step == reference


def test_diffusion_step_rejects_odd_and_flat_terms():
    with pytest.raises(OddParity):
        diffusion_step(mono(1) + mono(1, i=1, j=2), Fraction(1))
    with pytest.raises(SingularInverse):
        diffusion_step(mono(1, i=2) + mono(1), Fraction(1))


# ----- resolvent (geometric) sum ---------------------------------------------


def test_resolvent_sum_of_coupling_monomial(b):
    w = 1 / (2 * (1 + b))
    expected = (
        mono(1, i=2, j=2)
        + mono(w, i=2, gp=-1)
        + mono(w, j=2, gp=-1)
        + mono(1 / (4 * b), gp=-2)
    )
    assert resolvent_sum(mono(1, i=2, j=2), b) == expected


def test_resolvent_sum_terminates_on_constants():
    c = mono(7, gp=-3)
    assert resolvent_sum(c, Fraction(2)) == c
    assert resolvent_sum(GradedPoly.zero(), Fraction(2)) == GradedPoly.zero()


# ----- chain coefficients ----------------------------------------------------


def test_pure_chain_closed_forms(b):
    for l in range(1, 5):
        assert full_chain(l, 0, b) == mono(Fraction(odd_double_factorial(l), 2**l), gp=-l)
        assert full_chain(0, l, b) == mono(odd_double_factorial(l) / (2 * b) ** l, gp=-l)


def test_mixed_chain_printed_values(b):
    assert full_chain(1, 1, b) == mono(1 / (4 * b), gp=-2)
    assert full_chain(2, 1, b) == mono(
        (6 / b + 3) / (8 * (2 + b)), gp=-3
    )
    assert full_chain(1, 2, b) == mono(
        (3 / b**2 + 6 / b) / (8 * (1 + 2 * b)), gp=-3
    )
    assert full_chain(2, 2, b) == mono(
        (
            6 / (1 + 2 * b) * (3 / b**2 + 6 / b)
            + 6 / (2 + b) * (6 / b + 3)
        )
        / (32 * (1 + b)),
        gp=-4,
    )


def test_mixed_chain_agrees_with_collapse(b):
    # l + m diffusion steps flatten x^(2l) y^(2m); no earlier iterate is flat
    for l in range(1, 4):
        for m in range(1, 4):
            p = mono(1, i=2 * l, j=2 * m)
            for _ in range(l + m):
                assert not p.constant_part()
                p = diffusion_step(p, b)
            assert p == p.constant_part() == full_chain(l, m, b)


def test_partial_chain_closed_form(b):
    # n diffusion steps then one inverse scaling on a pure power of x:
    # (2l-1)!! / (2(l-n)-1)!! / (2g)^n / (2 g (l-n)).
    for l in range(1, 5):
        for n in range(l):
            ratio = Fraction(odd_double_factorial(l), odd_double_factorial(l - n))
            keep = 2 * (l - n)
            expected = mono(ratio / 2**n / (2 * (l - n)), gp=-(n + 1))
            assert slot(partial_chain(2 * l, 0, n, b), keep, 0) == expected
            expected = mono(
                ratio / (2 * b) ** n / (2 * b * (l - n)), gp=-(n + 1)
            )
            assert slot(partial_chain(0, 2 * l, n, b), 0, keep) == expected


# ----- full inversion runs ---------------------------------------------------


def test_order_zero_and_one_slices(b):
    series = green_run(b)
    chi, delta = green_orders(series)
    assert chi[0] == GradedPoly.const(Fraction(1))
    assert delta[0] == zero_point_energy(b)
    # no term lies outside coupling orders 0 .. order
    assert sum(chi, GradedPoly.zero()) == fold_levels(series.terms, 0)
    assert sum(delta, GradedPoly.zero()) == series.energies


def test_first_order_prefactor_and_shift(b):
    chi, delta = green_orders(green_run(b))
    expected = GradedPoly(
        {
            (1, gp, i, j): c
            for (i, j), (gp, c) in operator_first_order(b).items()
        }
    )
    assert chi[1] == expected
    assert len(chi[1].terms) == 3
    assert delta[1] == GradedPoly({(1, -2, 0, 0): shift_first_order(b)})


def test_second_order_prefactor_and_shift(b):
    chi, delta = green_orders(green_run(b))
    expected = GradedPoly(
        {
            (2, gp, i, j): c
            for (i, j), (gp, c) in operator_second_order(b).items()
        }
    )
    assert chi[2] == expected
    assert len(chi[2].terms) == 8
    assert delta[2] == GradedPoly({(2, -5, 0, 0): shift_second_order(b)})


def test_coefficient_accessor(b):
    folded = fold_levels(green_run(b).terms, 0)
    assert slot(folded, 2, 2, ep=1) == GradedPoly(
        {(1, -1, 0, 0): -1 / (2 * (1 + b))}
    )
    gp, c = operator_second_order(b)[(4, 4)]
    assert slot(folded, 4, 4, ep=2) == GradedPoly({(2, gp, 0, 0): c})
    assert slot(folded, 1, 1, ep=1) == GradedPoly.zero()


def _check_rebooking(b: Fraction, order: int) -> None:
    spec = standard_spec(b, "eps")
    green, poly = solve_green(spec, order), solve_polynomial(spec, order)
    assert green == poly
    # the energy sum runs in key order, so the two also print one float
    assert list(green.energies.num) == list(poly.energies.num)


def test_series_rebooking_matches_prefactor_recursion(b):
    for order in range(1, 9):
        _check_rebooking(b, order)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 8))
def test_series_rebooking_matches_prefactor_recursion_random_ratio(p, q, order):
    _check_rebooking(Fraction(p, q), order)


def test_run_guards():
    with pytest.raises(ValueError):
        solve_green(standard_spec(Fraction(1), "mu"))
    with pytest.raises(ValueError):
        solve_green(standard_spec(Fraction(1), "lambda"))
    with pytest.raises(ValueError):
        solve_green(standard_spec(Fraction(1), "eps"), order=0)


@settings(deadline=None, max_examples=10)
@given(
    st.fractions(min_value=Fraction(1, 6), max_value=Fraction(6), max_denominator=6)
)
def test_two_step_collapse_random_ratio(ratio):
    assert full_chain(1, 1, ratio) == mono(1 / (4 * ratio), gp=-2)
