"""End-to-end acceptance: one test per contracted behavior, stated tolerances.

Each test prints one PASS line when every assertion in it held; the pytest
verbose listing provides the per-criterion pass/fail status.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache

from quadosc import (
    GradedPoly,
    GridSpec,
    canonical_window,
    compare_methods,
    extrapolated_ground_energy,
    fd_ground_state,
    normal_form_diff,
    resolvent_sum,
    rs_corrections,
    solve_exponential,
    solve_green,
    solve_polynomial,
    standard_spec,
)
from quadosc.cli import loglog_slope, main as cli_main
from quadosc.trajectory import solve_classical_trajectory, zero_point_energy

from helpers import (
    B_VALUES,
    energy_conservation_residual,
    energy_poly,
    eps_energy_slots,
    eps_exponent_levels,
    eps_prefactor_levels,
    green_orders,
    mu_energy_slots,
    mu_levels,
    odd_double_factorial,
    operator_first_order,
    operator_second_order,
    shift_first_order,
    shift_second_order,
)

PIPE_NAMES = ("hierarchy", "exp-eps", "exp-lambda", "poly-eps", "poly-lambda")


@lru_cache(maxsize=None)
def pipeline_runs(b: Fraction):
    return (
        solve_exponential(standard_spec(b), order=2),
        solve_exponential(standard_spec(b, "eps"), order=2),
        solve_exponential(standard_spec(b, "lambda"), order=2),
        solve_polynomial(standard_spec(b, "eps"), order=2),
        solve_polynomial(standard_spec(b, "lambda"), order=2),
    )


def test_criterion_1_direct_solver_closed_forms():
    started = time.monotonic()
    for b in B_VALUES:
        sol = solve_exponential(standard_spec(b), order=2)
        assert sol.terms == mu_levels(b), f"levels differ at b={b}"
        assert sol.energies == mu_energy_slots(b), f"energies differ at b={b}"
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(
        "CRITERION 1: PASS — direct solver reproduces the closed-form exponent"
        f" levels and energies exactly at four frequency ratios in {elapsed:.2f}s"
    )


def test_criterion_2_deferred_expansions_closed_forms():
    for b in B_VALUES:
        exp_sol = solve_exponential(standard_spec(b, "eps"), order=2)
        assert exp_sol.terms == eps_exponent_levels(b), f"exponent at b={b}"
        poly_sol = solve_polynomial(standard_spec(b, "eps"), order=2)
        expected = eps_prefactor_levels(b)
        assert poly_sol.terms[1] == expected[1], f"first prefactor at b={b}"
        assert poly_sol.terms[3] == expected[3], f"third prefactor at b={b}"
        assert poly_sol.energies == eps_energy_slots(b), f"energies at b={b}"
        # the two slots pinned by cross-method agreement
        assert poly_sol.terms[2] == expected[2], f"second prefactor at b={b}"
        assert poly_sol.terms[4] == expected[4], f"fourth prefactor at b={b}"
        assert poly_sol.terms == expected
    print(
        "CRITERION 2: PASS — deferred-coupling exponent and prefactor runs"
        " match every closed-form level, including the two pinned slots"
    )


def test_criterion_3_operator_inversion_closed_forms():
    for b in B_VALUES:
        chi, delta = green_orders(solve_green(standard_spec(b, "eps"), order=2))
        first = GradedPoly(
            {(1, gp, i, j): c for (i, j), (gp, c) in operator_first_order(b).items()},
        )
        second = GradedPoly(
            {(2, gp, i, j): c for (i, j), (gp, c) in operator_second_order(b).items()},
        )
        assert chi[1] == first, f"first-order prefactor at b={b}"
        assert chi[2] == second, f"second-order prefactor at b={b}"
        assert delta[1] == GradedPoly(
            {(1, -2, 0, 0): shift_first_order(b)}
        ), f"first shift at b={b}"
        assert delta[2] == GradedPoly(
            {(2, -5, 0, 0): shift_second_order(b)}
        ), f"second shift at b={b}"
    print(
        "CRITERION 3: PASS — operator inversion reproduces both prefactor"
        " orders and both energy shifts exactly at four frequency ratios"
    )


def test_criterion_4_chain_coefficient_closed_forms():
    def full_chain(l, m, b):
        # the flat remnant of the whole diffusion chain on x^(2l) y^(2m)
        return resolvent_sum(GradedPoly.mono(1, i=2 * l, j=2 * m), b).constant_part()

    for b in B_VALUES:
        for l in range(1, 5):
            assert full_chain(l, 0, b) == GradedPoly.mono(
                Fraction(odd_double_factorial(l), 2**l), gp=-l
            )
            assert full_chain(0, l, b) == GradedPoly.mono(
                odd_double_factorial(l) / (2 * b) ** l, gp=-l
            )
        assert full_chain(1, 1, b) == GradedPoly.mono(
            1 / (4 * b), gp=-2
        )
        assert full_chain(2, 1, b) == GradedPoly.mono(
            (6 / b + 3) / (8 * (2 + b)), gp=-3
        )
        assert full_chain(1, 2, b) == GradedPoly.mono(
            (3 / b**2 + 6 / b) / (8 * (1 + 2 * b)), gp=-3
        )
        assert full_chain(2, 2, b) == GradedPoly.mono(
            (6 / (1 + 2 * b) * (3 / b**2 + 6 / b) + 6 / (2 + b) * (6 / b + 3))
            / (32 * (1 + b)),
            gp=-4,
        )
    print(
        "CRITERION 4: PASS — iterated-chain collapse coefficients match the"
        " double-factorial and mixed closed forms exactly"
    )


def test_criterion_5_textbook_series_agreement():
    for b in B_VALUES:
        rs = rs_corrections(b, order=2)
        assert rs.energies - zero_point_energy(b) == energy_poly({
            (-2, 1): 1 / (4 * b),
            (-5, 2): -(b**2 + 4 * b + 1) / (16 * b**3 * (b + 1)),
        }), f"shifts at b={b}"
        window = canonical_window(rs)
        reference = canonical_window(solve_polynomial(standard_spec(b, "eps"), 2))
        assert normal_form_diff(reference, window) == [], f"prefactor at b={b}"
        assert window == reference
    print(
        "CRITERION 5: PASS — textbook perturbation theory reproduces both"
        " energy shifts and the identical prefactor through depth five"
    )


def test_criterion_6_five_pipelines_agree():
    for b in B_VALUES:
        diffs = compare_methods(pipeline_runs(b), names=PIPE_NAMES)
        assert diffs == {}, f"disagreement at b={b}: {diffs}"
        assert cli_main(["compare", "--b", str(b)]) == 0
    print(
        "CRITERION 6: PASS — all five symbolic pipelines agree term-by-term"
        " on the shared window at four frequency ratios; compare exits 0"
    )


def test_criterion_7_energy_conservation_along_flow():
    for b in B_VALUES:
        traj = solve_classical_trajectory(standard_spec(b), order=2)
        assert not energy_conservation_residual(traj), f"residual at b={b}"
        assert not energy_conservation_residual(traj, max_ep=2)
        beyond = energy_conservation_residual(traj, max_ep=3)
        surviving = {key[0] for key in beyond.terms}
        assert surviving and min(surviving) >= 3, f"low-order leak at b={b}"
    print(
        "CRITERION 7: PASS — flow energy is conserved identically through"
        " second order; the first surviving residual is third order"
    )


def test_criterion_8_frequency_swap_symmetry():
    for b in B_VALUES:
        direct = solve_exponential(standard_spec(b), 2).energies.terms
        swapped = solve_exponential(standard_spec(1 / b), 2).energies.terms
        assert direct.keys() == swapped.keys()
        for (ep, gp, i, j), c in direct.items():
            assert c == swapped[(ep, gp, i, j)] * b ** (gp - 2 * ep), f"slot {(gp, ep)} at b={b}"
    print(
        "CRITERION 8: PASS — the energy series maps onto itself under"
        " swapping the two directions and inverting the frequency ratio"
    )


def test_criterion_9_grid_verification():
    started = time.monotonic()
    g = 10.0
    sol = solve_exponential(standard_spec(Fraction(1)), order=2)

    # truncated series vs extrapolated grid energies on small couplings
    for mu in (0.02, 0.05):
        reference = extrapolated_ground_energy(g, 1.0, mu, levels=1)
        rel = abs(sol.physical_energy(g, mu) - reference) / abs(reference)
        assert rel <= 1e-4, f"mu={mu}: relative gap {rel:.3e}"

    # the residual against a sharper grid scales like the first dropped power
    mus = (0.02, 0.04, 0.08)
    residuals = []
    for mu in mus:
        reference = extrapolated_ground_energy(g, 1.0, mu, levels=2)
        gap = abs(sol.physical_energy(g, mu) - reference)
        assert gap / abs(reference) <= 1e-4
        residuals.append(gap)
    slope = loglog_slope(mus, residuals)
    assert slope >= 2.5, f"fitted truncation order {slope:.3f}"

    # pure harmonic check: halving the grid spacing quarters the energy error
    coarse = fd_ground_state(g, 1.0, 0.0, GridSpec(81, 81)).energy
    fine = fd_ground_state(g, 1.0, 0.0, GridSpec(163, 163)).energy
    ratio = (coarse - g) / (fine - g)
    assert 3.5 <= ratio <= 4.5, f"refinement ratio {ratio:.3f}"

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        "CRITERION 9: PASS — series agrees with the grid to 1e-4 relative up"
        f" to mu=0.05, truncation order fits {slope:.2f}, refinement ratio"
        f" {ratio:.2f}, in {elapsed:.1f}s"
    )
