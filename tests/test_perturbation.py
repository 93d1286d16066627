"""Deferred-coupling expansions: closed forms, regrading, canonical windows."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadosc import (
    GradedPoly,
    canonical_window,
    default_depth,
    normal_form_diff,
    solve_exponential,
    solve_polynomial,
    standard_spec,
)
from quadosc.cli import METHODS, PIPELINES, build_solution

from helpers import (
    B_VALUES,
    coupling_piece,
    eps_energy_slots,
    eps_exponent_levels,
    eps_prefactor_levels,
    exp_to_poly,
    gaussian_exponent,
    lambda_energy_slots,
    lambda_exponent_levels,
    normalize_grading,
)


@lru_cache(maxsize=None)
def exp_run(b: Fraction, flavor: str):
    return solve_exponential(standard_spec(b, flavor), order=2)


@lru_cache(maxsize=None)
def poly_run(b: Fraction, flavor: str):
    return solve_polynomial(standard_spec(b, flavor), order=2)


@lru_cache(maxsize=None)
def mu_run(b: Fraction):
    return solve_exponential(standard_spec(b), order=2)


@pytest.fixture(params=B_VALUES, ids=str)
def b(request):
    return request.param


# ----- default depths and validation ---------------------------------------


def test_default_depths_cover_requested_order():
    assert default_depth("mu", 2) == 1
    assert default_depth("eps", 2) == 5
    assert default_depth("lambda", 2) == 3
    assert default_depth("mu", 1) == 0
    assert default_depth("eps", 1) == 2
    assert default_depth("lambda", 1) == 1


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("method", METHODS)
def test_depth_follows_level_count(method, order):
    sol = build_solution(method, Fraction(1, 2), order)
    # exponent runs store one level past their depth, prefactor runs do not
    assert len(sol.terms) == sol.depth + (2 if sol.kind == "exp" else 1)
    assert sol.terms[-1], "the deepest stored level is empty"
    if method in PIPELINES:
        assert sol.depth == default_depth(sol.flavor, order)


def test_prefactor_rejects_direct_flavor():
    with pytest.raises(ValueError):
        solve_polynomial(standard_spec(Fraction(1)))


def test_exponential_delegates_direct_flavor():
    assert exp_run(Fraction(2), "mu") == mu_run(Fraction(2))


# ----- closed-form exponent levels ------------------------------------------


def test_quadratic_coupling_exponent_levels(b):
    sol = exp_run(b, "eps")
    assert sol.kind == "exp"
    assert sol.flavor == "eps"
    assert sol.depth == 5
    assert sol.terms == eps_exponent_levels(b)


def test_quadratic_coupling_energy_slots(b):
    assert exp_run(b, "eps").energies == eps_energy_slots(b)


def test_linear_coupling_exponent_levels(b):
    sol = exp_run(b, "lambda")
    assert sol.kind == "exp"
    assert sol.flavor == "lambda"
    assert sol.depth == 3
    assert sol.terms == lambda_exponent_levels(b)


def test_linear_coupling_energy_slots(b):
    assert exp_run(b, "lambda").energies == lambda_energy_slots(b)


# ----- closed-form prefactor levels -----------------------------------------


def test_prefactor_levels(b):
    sol = poly_run(b, "eps")
    assert sol.kind == "poly"
    assert sol.depth == 5
    assert sol.terms == eps_prefactor_levels(b)
    assert sol.base == (gaussian_exponent(b), GradedPoly.zero())


def test_prefactor_energy_slots(b):
    assert poly_run(b, "eps").energies == eps_energy_slots(b)


def test_linear_prefactor_base_and_energies(b):
    sol = poly_run(b, "lambda")
    assert sol.kind == "poly"
    assert sol.energies == lambda_energy_slots(b)
    assert sol.base == (gaussian_exponent(b), coupling_piece(b, 1))


# ----- exponent/prefactor consistency ---------------------------------------


def test_prefactor_is_truncated_exponential_of_deep_levels(b):
    # chi_1 = -S2, chi_2 = -S3 + S2^2/2, chi_3 = -S4 + S2*S3,
    # chi_4 = -S5 + S3^2/2, chi_5 = -S6, all at second parameter order.
    s = exp_run(b, "eps").terms
    chi = poly_run(b, "eps").terms
    half = Fraction(1, 2)
    assert chi[0] == GradedPoly.const(Fraction(1))
    assert chi[1] == GradedPoly.zero() - s[2]
    assert chi[2] == s[2].mul(s[2], 2) * half - s[3]
    assert chi[3] == s[2].mul(s[3], 2) - s[4]
    assert chi[4] == s[3].mul(s[3], 2) * half - s[5]
    assert chi[5] == GradedPoly.zero() - s[6]


def test_exponent_folds_into_prefactor_run(b):
    assert exp_to_poly(exp_run(b, "eps")) == poly_run(b, "eps")
    assert exp_to_poly(exp_run(b, "lambda")) == poly_run(b, "lambda")


def test_fold_guards():
    with pytest.raises(ValueError):
        exp_to_poly(poly_run(Fraction(1), "eps"))
    with pytest.raises(ValueError):
        exp_to_poly(mu_run(Fraction(1)))


# ----- regrading between flavors --------------------------------------------


def test_regrade_direct_to_quadratic(b):
    assert normalize_grading(mu_run(b), "eps") == exp_run(b, "eps")


def test_regrade_quadratic_to_direct(b):
    assert normalize_grading(exp_run(b, "eps"), "mu") == mu_run(b)


def test_regrade_between_deferred_exponents(b):
    assert normalize_grading(exp_run(b, "lambda"), "eps") == exp_run(b, "eps")
    assert normalize_grading(exp_run(b, "eps"), "lambda") == exp_run(b, "lambda")


def test_regrade_between_deferred_prefactors(b):
    assert normalize_grading(poly_run(b, "lambda"), "eps") == poly_run(b, "eps")
    assert normalize_grading(poly_run(b, "eps"), "lambda") == poly_run(b, "lambda")


def test_regrade_identity_returns_same_object(b):
    sol = exp_run(b, "eps")
    assert normalize_grading(sol, "eps") is sol


def test_regrade_guards():
    with pytest.raises(ValueError):
        normalize_grading(mu_run(Fraction(1)), "nu")
    with pytest.raises(ValueError):
        normalize_grading(poly_run(Fraction(1), "eps"), "mu")


# ----- canonical comparison window ------------------------------------------


def all_runs(b):
    return [
        mu_run(b),
        exp_run(b, "eps"),
        exp_run(b, "lambda"),
        poly_run(b, "eps"),
        poly_run(b, "lambda"),
    ]


def test_canonical_window_agrees_across_methods(b):
    forms = [canonical_window(sol) for sol in all_runs(b)]
    reference = forms[0]
    for form in forms[1:]:
        assert normal_form_diff(reference, form) == []
        assert form == reference


def test_canonical_window_bounds(b):
    form = canonical_window(mu_run(b))
    for (ep, gp, _, _) in form.chi.terms:
        assert 0 <= ep <= 2
        assert -5 <= gp <= 0
    for (ep, gp, _, _) in form.energies.terms:
        assert ep <= 2
        assert gp >= -5


def test_canonical_window_survives_regrading(b):
    sol = poly_run(b, "lambda")
    assert canonical_window(normalize_grading(sol, "eps")) == canonical_window(sol)


def test_normal_form_diff_reports_slots():
    form = canonical_window(mu_run(Fraction(1)))
    bad_energy = GradedPoly({**form.energies.terms, (2, -5, 0, 0): Fraction(99, 7)})
    tweaked = dataclasses.replace(form, energies=bad_energy)
    messages = normal_form_diff(form, tweaked)
    assert any("energy slot" in m for m in messages)

    bad_chi = form.chi + GradedPoly.mono(Fraction(1), i=2, j=2, gp=-1).shift(ep=1)
    tweaked = dataclasses.replace(form, chi=bad_chi)
    messages = normal_form_diff(form, tweaked)
    assert messages and any("x^2 y^2" in m or "term" in m for m in messages)


@settings(deadline=None, max_examples=6)
@given(
    st.fractions(min_value=Fraction(1, 4), max_value=Fraction(4), max_denominator=4)
)
def test_canonical_window_agreement_random_ratio(ratio):
    reference = canonical_window(solve_exponential(standard_spec(ratio), 2))
    other = canonical_window(solve_exponential(standard_spec(ratio, "eps"), 2))
    assert other == reference
