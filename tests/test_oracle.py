"""Perturbative and grid oracles, and the cross-method comparison report."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import diags, identity, kron

from quadosc import (
    ConvergenceFailure,
    GradedPoly,
    GridSpec,
    OscBasisIndex,
    canonical_window,
    compare_methods,
    extrapolated_ground_energy,
    fd_ground_state,
    oscillator_matrix_element,
    rs_corrections,
    rs_series,
    solve_exponential,
    solve_polynomial,
    standard_spec,
)
import quadosc.oracle as oracle
from quadosc.cli import METHODS, build_solution

from helpers import (
    B_VALUES,
    axis_ground_level,
    basis_first_order_table,
    basis_second_order_amplitudes,
    energy_poly,
    eps_energy_slots,
    full_box_ground_state,
    origin_constant_first_order,
    shift_first_order,
    shift_second_order,
)


@lru_cache(maxsize=None)
def rs_run(b: Fraction):
    return rs_corrections(b, order=2)


@pytest.fixture(params=B_VALUES, ids=str)
def b(request):
    return request.param


# ----- basis bookkeeping ------------------------------------------------------


def test_basis_index_accepts_even_pairs():
    assert OscBasisIndex(0, 0).pair == (0, 0)
    assert OscBasisIndex(2, 4).pair == (2, 4)


@pytest.mark.parametrize("pair", [(1, 2), (-2, 0), (0, 3), (-1, -1)])
def test_basis_index_rejects_odd_or_negative(pair):
    with pytest.raises(ValueError):
        OscBasisIndex(*pair)


def test_square_matrix_elements():
    # <m| s^2 |n> at unit frequency: tridiagonal in steps of two.
    assert oscillator_matrix_element(0, 0, 1.0) == pytest.approx(0.5)
    assert oscillator_matrix_element(2, 2, 1.0) == pytest.approx(2.5)
    assert oscillator_matrix_element(0, 2, 1.0) == pytest.approx(np.sqrt(2) / 2)
    assert oscillator_matrix_element(2, 4, 1.0) == pytest.approx(np.sqrt(3))
    assert oscillator_matrix_element(0, 4, 1.0) == 0.0
    assert oscillator_matrix_element(5, 1, 1.0) == 0.0


def test_square_matrix_element_symmetry_and_scaling():
    for m, n in [(0, 2), (2, 4), (4, 4), (6, 4)]:
        lhs = oscillator_matrix_element(m, n, 3.0)
        assert lhs == pytest.approx(oscillator_matrix_element(n, m, 3.0))
        assert lhs == pytest.approx(oscillator_matrix_element(m, n, 1.0) / 3.0)


def test_square_matrix_element_guards():
    with pytest.raises(ValueError):
        oscillator_matrix_element(-1, 0, 1.0)
    with pytest.raises(ValueError):
        oscillator_matrix_element(0, 0, 0.0)


# ----- textbook perturbation series -------------------------------------------


def test_perturbative_energy_shifts(b):
    assert rs_run(b).energies == energy_poly({
        (-2, 1): shift_first_order(b),
        (-5, 2): shift_second_order(b),
    })


def test_first_order_basis_table(b):
    rs = rs_run(b)
    assert rs.tables[1] == basis_first_order_table(b)
    assert rs.tables[0] == {(0, 0): Fraction(1)}


def test_corrections_keep_no_ground_component(b):
    rs = rs_run(b)
    for k in (1, 2):
        assert rs.coefficient(k, 0, 0) == 0


def test_first_order_origin_constant(b):
    rs = rs_run(b)
    combo = (
        4 * rs.coefficient(1, 2, 2)
        - 2 * rs.coefficient(1, 2, 0)
        - 2 * rs.coefficient(1, 0, 2)
    )
    assert combo == origin_constant_first_order(b)


def test_second_order_amplitudes(b):
    rs = rs_run(b)
    expected = basis_second_order_amplitudes(b)
    assert set(rs.tables[2]) == set(expected)
    for (m, n), amp in expected.items():
        assert rs.amplitude(2, m, n) == pytest.approx(amp, abs=1e-12)


def test_normalized_prefactor_starts_at_one(b):
    chi = rs_run(b).chi
    assert chi.constant_part() == GradedPoly.const(Fraction(1))


def test_perturbative_guards():
    with pytest.raises(ValueError):
        rs_corrections(0)
    with pytest.raises(ValueError):
        rs_corrections(-2)
    with pytest.raises(ValueError):
        rs_corrections(1, order=0)


def test_series_packaging(b):
    sol = rs_series(b)
    assert sol.kind == "poly"
    assert sol.flavor == "eps"
    assert sol.depth == 0
    assert sol.terms == (rs_run(b).chi,)
    assert sol.energies == eps_energy_slots(b)


def test_perturbative_prefactor_matches_methods(b):
    reference = canonical_window(solve_polynomial(standard_spec(b, "eps"), order=2))
    assert canonical_window(rs_series(b)) == reference


@settings(deadline=None, max_examples=10)
@given(
    st.fractions(min_value=Fraction(1, 6), max_value=Fraction(6), max_denominator=6)
)
def test_perturbative_shifts_random_ratio(ratio):
    assert rs_corrections(ratio).energies == energy_poly({
        (-2, 1): shift_first_order(ratio),
        (-5, 2): shift_second_order(ratio),
    })


# ----- finite-difference oracle ------------------------------------------------


def test_grid_resolution_defaults():
    assert GridSpec().resolved(4.0, 1.0) == (161, 161, 3.0, 3.0)
    assert GridSpec().resolved(1.0, 0.25) == (161, 161, 12.0, 12.0)
    assert GridSpec(41, 31, l_x=2.0, l_y=5.0).resolved(9.0, 1.0) == (41, 31, 2.0, 5.0)


def test_grid_recovers_harmonic_levels():
    est = fd_ground_state(1.0, 1.0, 0.0)
    assert abs(est.energy - 1.0) < 5e-4
    assert est.residual <= 1e-10
    assert abs(fd_ground_state(1.0, 2.0, 0.0).energy - 1.5) < 1.5e-3
    assert abs(fd_ground_state(3.0, 0.5, 0.0).energy - 2.25) < 2e-3


def test_grid_state_is_normalized():
    est = fd_ground_state(1.0, 1.0, 0.0)
    nx, ny, lx, ly = est.grid
    hx = 2 * lx / (nx + 1)
    hy = 2 * ly / (ny + 1)
    assert float(np.sum(est.psi**2) * hx * hy) == pytest.approx(1.0, abs=1e-9)
    assert est.psi.shape == (nx, ny)


def test_grid_guards():
    with pytest.raises(ValueError):
        fd_ground_state(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        fd_ground_state(1.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        fd_ground_state(1.0, 1.0, -0.1)


def test_grid_convergence_failure():
    with pytest.raises(ConvergenceFailure):
        fd_ground_state(1.0, 1.0, 0.05, max_iter=1, tol=1e-14)


@pytest.mark.parametrize("mu", [0.0, 0.05])
@pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(5, 3)])
@pytest.mark.parametrize(
    "n_x, n_y", [(41, 41), (40, 40), (41, 44), (21, 30), (1, 5), (5, 2), (2, 2), (1, 1)]
)
def test_quarter_box_matches_full_box(n_x, n_y, b, mu):
    # Odd and even axes, square and not: the even-quarter solve must give the
    # full box's ground state, not only an eigenvalue near it.
    _check_quarter_box(10.0, b, mu, n_x, n_y)


@pytest.mark.parametrize("b, mu", [(1.0, 1.0), (1.0, 1e12), (1e-3, 1.0), (1e3, 1.0)])
def test_quarter_box_matches_full_box_at_extremes(b, mu):
    # A stiff well, a coupling that dominates it, and frequency ratios far
    # from one, where the grid resolves the state along one axis only.
    _check_quarter_box(1e4, b, mu, 41, 41)


def _check_quarter_box(g, b, mu, n_x, n_y):
    grid = GridSpec(n_x, n_y)
    est = fd_ground_state(g, b, mu, grid)
    energy, psi = full_box_ground_state(g, float(b), mu, grid)
    assert est.energy == pytest.approx(energy, rel=1e-12, abs=0)
    assert est.psi.shape == (n_x, n_y)
    assert float(np.abs(est.psi - psi).max()) <= 1e-10
    assert np.array_equal(est.psi, est.psi[::-1, :])
    assert np.array_equal(est.psi, est.psi[:, ::-1])
    _, _, lx, ly = est.grid
    cell = (2 * lx / (n_x + 1)) * (2 * ly / (n_y + 1))
    assert float(np.sum(est.psi**2) * cell) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("b", [0.5, 5 / 3])
@pytest.mark.parametrize("n_x, n_y", [(41, 41), (40, 40), (41, 44), (21, 30)])
def test_harmonic_energy_is_the_separable_floor(n_x, n_y, b):
    # At mu = 0 the energy is the sum of the two full axes' levels, the bound
    # the shift sits a sixteenth of a gap below, where it is closest to E_0.
    est = fd_ground_state(10.0, b, 0.0, GridSpec(n_x, n_y))
    _, _, lx, ly = est.grid
    floor = axis_ground_level(n_x, lx, 10.0) + axis_ground_level(n_y, ly, 10.0 * b)
    assert est.energy == pytest.approx(floor, rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "mu, n",
    [
        # criterion 9: its couplings on the base grid, its harmonic pair
        *((mu, 161) for mu in (0.02, 0.04, 0.05, 0.08)),
        (0.0, 81),
        (0.0, 163),
        (0.05, 41),
        (0.05, 83),
    ],
)
def test_shifted_iteration_needs_few_solves(monkeypatch, mu, n):
    factors, solves = [], []
    factor = oracle.splu

    class CountingFactor:
        def __init__(self, inner):
            self.inner = inner

        def solve(self, rhs):
            solves.append(1)
            return self.inner.solve(rhs)

    def counting_splu(matrix, **kw):
        factors.append(1)
        return CountingFactor(factor(matrix, **kw))

    monkeypatch.setattr(oracle, "splu", counting_splu)
    fd_ground_state(10.0, 1.0, mu, GridSpec(n, n))
    assert len(factors) == 1
    assert 0 < len(solves) <= 10


@pytest.mark.parametrize(
    "n_x, n_y", [(41, 41), (40, 40), (21, 30), (41, 44), (161, 161), (5, 1), (1, 2)]
)
def test_band_operator_equals_kron_assembly(monkeypatch, n_x, n_y):
    # The five-band build must give the Kronecker-sum operator bit for bit.
    g, b, mu = 10.0, 5 / 3, 0.05
    built = []
    band = oracle.diags

    def recording_diags(*args, **kw):
        built.append(band(*args, **kw))
        return built[-1]

    monkeypatch.setattr(oracle, "diags", recording_diags)
    grid = GridSpec(n_x, n_y)
    fd_ground_state(g, b, mu, grid)
    _, _, lx, ly = grid.resolved(g, b)
    _, x, _, main_x, off_x = oracle._half_axis(n_x, lx)
    _, y, _, main_y, off_y = oracle._half_axis(n_y, ly)
    xx = x[:, None]
    yy = y[None, :]
    pot = g * g * (0.5 * (xx**2 + b * b * yy**2) + mu * xx**2 * yy**2)
    reference = (
        -0.5 * kron(diags([off_x, main_x, off_x], [-1, 0, 1]), identity(len(y)))
        - 0.5 * kron(identity(len(x)), diags([off_y, main_y, off_y], [-1, 0, 1]))
        + diags(pot.ravel())
    ).tocsc()
    [ham] = built
    assert np.array_equal(ham.indptr, reference.indptr)
    assert np.array_equal(ham.indices, reference.indices)
    assert np.array_equal(ham.data, reference.data)


@pytest.mark.parametrize(
    "n_x, n_y", [(41, 41), (40, 40), (21, 30), (41, 44), (161, 161), (5, 1), (1, 2), (1, 1)]
)
def test_band_storage_is_shifted_operator(monkeypatch, n_x, n_y):
    # The factor gets H - sigma*I in LAPACK lower band storage: row k holds
    # the k-th subdiagonal, the x bonds in row 1 on a one-point y axis.
    g, b, mu = 10.0, 5 / 3, 0.05
    built, stored = [], []
    band, factor = oracle.diags, oracle.splu

    def recording_diags(*args, **kw):
        built.append(band(*args, **kw))
        return built[-1]

    def recording_factor(ab, **kw):
        stored.append(ab.copy())  # the factor overwrites its argument
        return factor(ab, **kw)

    monkeypatch.setattr(oracle, "diags", recording_diags)
    monkeypatch.setattr(oracle, "splu", recording_factor)
    grid = GridSpec(n_x, n_y)
    fd_ground_state(g, b, mu, grid)
    _, _, lx, ly = grid.resolved(g, b)
    _, x, _, main_x, off_x = oracle._half_axis(n_x, lx)
    _, y, _, main_y, off_y = oracle._half_axis(n_y, ly)
    levels = [
        oracle._lowest_levels(main_x, off_x, 0.5 * g * g * x**2),
        oracle._lowest_levels(main_y, off_y, 0.5 * g * g * b * b * y**2),
    ]
    floor = sum(lv[0] for lv in levels)
    gaps = [lv[1] - lv[0] for lv in levels if len(lv) > 1]
    sigma = floor - (min(gaps) if gaps else floor) / 16
    [ham], [ab] = built, stored
    size = ham.shape[0]
    assert ab.shape == (len(y) + 1, size)
    below = diags([ab[k, : size - k] for k in range(1, len(ab))], range(-1, -len(ab), -1))
    rebuilt = below + below.T + diags(ab[0])
    # sparse, not dense: the 161-point grid has 6,561 unknowns
    assert (rebuilt != ham - sigma * identity(size)).nnz == 0


def test_extrapolation_sharpens_harmonic_energy():
    assert abs(extrapolated_ground_energy(1.0, 1.0, 0.0, levels=1) - 1.0) < 1e-6
    with pytest.raises(ValueError):
        extrapolated_ground_energy(1.0, 1.0, 0.0, levels=0)


def test_refinement_halving_quarters_the_error():
    coarse = fd_ground_state(10.0, 1.0, 0.0, GridSpec(81, 81)).energy
    fine = fd_ground_state(10.0, 1.0, 0.0, GridSpec(163, 163)).energy
    ratio = (coarse - 10.0) / (fine - 10.0)
    assert 3.5 <= ratio <= 4.5


# ----- comparison report --------------------------------------------------------


def test_compare_agreement_and_names():
    b = Fraction(2)
    report = compare_methods(
        [
            solve_exponential(standard_spec(b), 2),
            solve_exponential(standard_spec(b, "eps"), 2),
        ],
        names=["direct", "deferred"],
    )
    assert report.agree
    assert report.names == ("direct", "deferred")
    assert report.window == (2, 5)
    assert report.diffs == {}
    assert report.numeric is None


def _check_all_methods_agree(b: Fraction, order: int) -> None:
    window = (order, 3 * order + 2)
    report = compare_methods(
        [build_solution(m, b, order) for m in METHODS], names=METHODS, window=window
    )
    assert report.diffs == {}
    assert report.agree


@pytest.mark.parametrize("order", [3, 4, 5, 6])
def test_all_methods_agree_past_second_order(order):
    _check_all_methods_agree(Fraction(5, 3), order)


@settings(deadline=None, max_examples=8)
@given(st.integers(1, 9), st.integers(1, 9))
def test_all_methods_agree_past_second_order_random_ratio(p, q):
    _check_all_methods_agree(Fraction(p, q), 3)


def test_compare_reports_disagreements():
    import dataclasses

    b = Fraction(1)
    good = solve_exponential(standard_spec(b), 2)
    bad_energies = good.energies + GradedPoly.mono(Fraction(1, 3), gp=-1, ep=2)
    bad = dataclasses.replace(good, energies=bad_energies)
    report = compare_methods([good, bad])
    assert not report.agree
    assert set(report.diffs) == {"run1"}
    assert any("energy slot" in line for line in report.diffs["run1"])


def test_compare_guards():
    with pytest.raises(ValueError):
        compare_methods([])
    sol = solve_exponential(standard_spec(Fraction(1)), 2)
    with pytest.raises(ValueError):
        compare_methods([sol], names=["a", "b"])


def test_compare_numeric_block():
    sol = solve_exponential(standard_spec(Fraction(1)), 2)
    est = fd_ground_state(10.0, 1.0, 0.05)
    report = compare_methods([sol], estimate=est)
    assert report.numeric is not None
    assert set(report.numeric) == {
        "series_energy",
        "grid_energy",
        "abs_gap",
        "rel_gap",
    }
    assert report.numeric["series_energy"] == pytest.approx(
        sol.physical_energy(10.0, 0.05)
    )
    assert report.numeric["rel_gap"] < 1e-3
