"""Perturbative and grid oracles, and the cross-method comparison report."""

from __future__ import annotations

import argparse
import dataclasses
import math
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
    canonical_window,
    compare_methods,
    extrapolated_ground_energy,
    fd_ground_state,
    rs_corrections,
    rs_series,
    solve_exponential,
    solve_polynomial,
    standard_spec,
)
import quadosc.oracle as oracle
from quadosc.cli import METHODS, _grid_check, build_solution
from quadosc.trajectory import zero_point_energy

from helpers import (
    B_VALUES,
    axis_ground_level,
    basis_first_order_table,
    basis_second_order_amplitudes,
    energy_poly,
    entrywise_chi_from_tables,
    eps_energy_slots,
    full_box_ground_state,
    origin_constant_first_order,
    shift_first_order,
    shift_second_order,
    swapped,
)


@lru_cache(maxsize=None)
def rs_run(b: Fraction):
    return rs_corrections(b, order=2)


@lru_cache(maxsize=None)
def rs_tables(b: Fraction) -> tuple:
    """The raw-basis coefficient tables of an order-2 `rs_corrections`, one
    per coupling order, as it hands them to `_chi_from_tables`."""
    seen = []
    chi_from_tables = oracle._chi_from_tables

    def capture(tables, b, order):
        seen.append(tuple(tables))
        return chi_from_tables(tables, b, order)

    with swapped((oracle,), _chi_from_tables=capture):
        rs_corrections(b, order=2)
    [tables] = seen
    return tables


@pytest.fixture(params=B_VALUES, ids=str)
def b(request):
    return request.param


# ----- textbook perturbation series -------------------------------------------


def test_perturbative_energy_shifts(b):
    assert rs_run(b).energies - zero_point_energy(b) == energy_poly({
        (-2, 1): shift_first_order(b),
        (-5, 2): shift_second_order(b),
    })


def _table(b, k):
    """Order k's coefficients keyed by (m, n)."""
    return {(m, n): c for (_, _, m, n), c in rs_tables(b)[k].terms.items()}


def test_first_order_basis_table(b):
    assert _table(b, 1) == basis_first_order_table(b)
    assert _table(b, 0) == {(0, 0): Fraction(1)}


def test_corrections_keep_no_ground_component(b):
    for k in (1, 2):
        assert (0, 0) not in _table(b, k)


def test_first_order_origin_constant(b):
    table = _table(b, 1)
    combo = 4 * table[2, 2] - 2 * table[2, 0] - 2 * table[0, 2]
    assert combo == origin_constant_first_order(b)


def test_second_order_amplitudes(b):
    table = _table(b, 2)
    expected = basis_second_order_amplitudes(b)
    assert set(table) == set(expected)
    for (m, n), amp in expected.items():
        # the raw basis state |m> has squared norm 2^m m!
        norm = math.sqrt(2 ** (m + n) * math.factorial(m) * math.factorial(n))
        assert float(table[m, n]) * norm == pytest.approx(amp, abs=1e-12)


def test_normalized_prefactor_starts_at_one(b):
    [chi] = rs_run(b).terms
    assert chi.constant_part() == GradedPoly.const(Fraction(1))


@settings(deadline=None, max_examples=10)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 5))
def test_hermite_rows_are_the_entrywise_sum(p, q, order):
    b = Fraction(p, q)
    rows = rs_corrections(b, order)
    with swapped((oracle,), _chi_from_tables=entrywise_chi_from_tables):
        reference = rs_corrections(b, order)
    assert rows == reference
    assert list(rows.energies.num) == list(reference.energies.num)


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
    assert sol.terms == (oracle._chi_from_tables(rs_tables(b), b, 2),)
    assert sol.energies == eps_energy_slots(b)


def test_perturbative_prefactor_matches_methods(b):
    reference = canonical_window(solve_polynomial(standard_spec(b, "eps"), order=2))
    assert canonical_window(rs_series(b)) == reference


@settings(deadline=None, max_examples=10)
@given(
    st.fractions(min_value=Fraction(1, 6), max_value=Fraction(6), max_denominator=6)
)
def test_perturbative_shifts_random_ratio(ratio):
    assert rs_corrections(ratio).energies - zero_point_energy(ratio) == energy_poly({
        (-2, 1): shift_first_order(ratio),
        (-5, 2): shift_second_order(ratio),
    })


# ----- finite-difference oracle ------------------------------------------------


def test_grid_resolution_defaults():
    assert GridSpec().resolved(4.0, 1.0) == (161, 161, 3.0, 3.0)
    assert GridSpec().resolved(1.0, 0.25) == (161, 161, 12.0, 12.0)


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


def test_grid_convergence_failure(monkeypatch):
    monkeypatch.setattr(oracle, "FD_MAX_ITER", 1)
    monkeypatch.setattr(oracle, "FD_TOL", 1e-14)
    with pytest.raises(ConvergenceFailure):
        fd_ground_state(1.0, 1.0, 0.05)


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


def test_state_at_small_even_gap_is_good_to_residual_over_gap():
    # At b = 1e-3 the y axis's even gap is about 2gb = 0.02: the energies still
    # agree to 1e-12, but each solve's unit vector only to its residual over
    # that gap, which at mu = 0 is the smaller of the axes' even-level gaps.
    g, b, n = 10.0, 1e-3, 41
    grid = GridSpec(n, n)
    est = fd_ground_state(g, b, 0.0, grid)
    energy, psi = full_box_ground_state(g, b, 0.0, grid)
    assert est.energy == pytest.approx(energy, rel=1e-12, abs=0)
    _, _, lx, ly = est.grid
    hx, x, _, main_x, off_x = oracle._half_axis(n, lx)
    hy, y, _, main_y, off_y = oracle._half_axis(n, ly)
    gap = min(
        lv[1] - lv[0]
        for lv in (
            oracle._lowest_levels(main_x, off_x, 0.5 * g * g * x**2),
            oracle._lowest_levels(main_y, off_y, 0.5 * g * g * b * b * y**2),
        )
    )
    # the full-box reference stops at a residual of at most 1e-10 on this grid
    bound = (est.residual + 1e-10) / gap / np.sqrt(hx * hy)
    assert float(np.abs(est.psi - psi).max()) <= bound


@pytest.mark.parametrize("b", [0.5, 5 / 3])
@pytest.mark.parametrize("n_x, n_y", [(41, 41), (40, 40), (41, 44), (21, 30)])
def test_harmonic_energy_is_the_separable_floor(n_x, n_y, b):
    # At mu = 0 the energy is the sum of the two full axes' levels: the floor
    # itself, the lower bound the shift's floor rule starts from.
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
    assert 0 < len(solves) <= 3


def _axis_levels(g, b, grid):
    """Both half axes' lowest levels, and the axes' points and weights."""
    _, _, lx, ly = grid.resolved(g, b)
    _, x, w_x, main_x, off_x = oracle._half_axis(grid.n_x, lx)
    _, y, w_y, main_y, off_y = oracle._half_axis(grid.n_y, ly)
    levels = [
        oracle._lowest_levels(main_x, off_x, 0.5 * g * g * x**2),
        oracle._lowest_levels(main_y, off_y, 0.5 * g * g * b * b * y**2),
    ]
    return levels, (x, w_x, main_x, off_x), (y, w_y, main_y, off_y)


def _floor_rule(levels):
    floor = sum(lv[0] for lv in levels)
    gaps = [lv[1] - lv[0] for lv in levels if len(lv) > 1]
    return floor - (min(gaps) if gaps else floor) / 16


def _kron_operator(g, b, mu, grid):
    """The quarter-box H assembled as a Kronecker sum, and its shift sigma.

    sigma is the larger of the floor rule and the Temple bound on the
    gaussian start vector, both computed from the assembled matrix.
    """
    levels, (x, w_x, main_x, off_x), (y, w_y, main_y, off_y) = _axis_levels(g, b, grid)
    xx = x[:, None]
    yy = y[None, :]
    pot = g * g * (0.5 * (xx**2 + b * b * yy**2) + mu * xx**2 * yy**2)
    reference = (
        -0.5 * kron(diags([off_x, main_x, off_x], [-1, 0, 1]), identity(len(y)))
        - 0.5 * kron(identity(len(x)), diags([off_y, main_y, off_y], [-1, 0, 1]))
        + diags(pot.ravel())
    ).tocsc()
    sigma = _floor_rule(levels)
    gaps = [lv[1] - lv[0] for lv in levels if len(lv) > 1]
    if not gaps:
        return reference, sigma
    beta = sum(lv[0] for lv in levels) + min(gaps)
    vec = (np.sqrt(w_x[:, None] * w_y[None, :]) * np.exp(-0.5 * g * (xx**2 + b * yy**2))).ravel()
    vec /= np.linalg.norm(vec)
    hv = reference @ vec
    rho = float(vec @ hv)
    eps2 = float(np.linalg.norm(hv - rho * vec)) ** 2
    if not rho < beta:
        return reference, sigma
    size = reference.shape[0]
    delta = size * 2.0**-53 * float((abs(reference) @ np.ones(size)).max())
    return reference, max(sigma, rho - 2 * eps2 / (beta - rho) - delta)


@pytest.mark.parametrize(
    "g, b, mu, n, tightened",
    [
        # the verify-numeric points on its two smallest grids
        *(
            (g, b, mu, n, True)
            for g in (10.0, 20.0)
            for mu in (0.02, 0.03, 0.05)
            for b in (0.5, 1.0, 5 / 3, 2.0)
            for n in (41, 83)
        ),
        # a coupling that dominates the well, frequency ratios far from one,
        # and strong couplings: the gaussian start's rho is at or above beta
        (1e4, 1.0, 1e12, 41, False),
        (1e4, 1e-3, 1.0, 41, False),
        (1e4, 1e3, 1.0, 41, False),
        (10.0, 1.0, 10.0, 41, False),
        (10.0, 1.0, 100.0, 41, False),
        # eps^2 overflows
        (10.0, 1.0, 1e300, 21, False),
        # one unknown: no gap
        (10.0, 1.0, 0.05, 1, False),
    ],
)
def test_shift_is_below_the_ground_energy(monkeypatch, g, b, mu, n, tightened):
    # The converged energy E has an eigenvalue within its residual, which is
    # E_0 since the residual is far below the even gap, so sigma < E - residual
    # puts sigma below E_0.  Where the Temple bound does not apply or does not
    # tighten, sigma is the floor rule to the bit.
    shifts = []
    shift = oracle._shift
    monkeypatch.setattr(oracle, "_shift", lambda *args: shifts.append(shift(*args)) or shifts[-1])
    grid = GridSpec(n, n)
    est = fd_ground_state(g, b, mu, grid)
    [sigma] = shifts
    assert sigma < est.energy - est.residual
    floor_rule = _floor_rule(_axis_levels(g, b, grid)[0])
    if tightened:
        assert sigma > floor_rule
    else:
        assert sigma == floor_rule


BAND_SHAPES = [(41, 41), (40, 40), (21, 30), (41, 44), (161, 161), (5, 1), (1, 2), (1, 1)]


@pytest.mark.parametrize("n_x, n_y", BAND_SHAPES)
def test_band_operator_equals_kron_assembly(monkeypatch, n_x, n_y):
    # H v from the three band arrays must be the Kronecker-sum operator's
    # sparse product bit for bit: on every vector the solve multiplies, and
    # on random ones.
    g, b, mu = 10.0, 5 / 3, 0.05
    calls = []
    matvec = oracle._band_matvec
    monkeypatch.setattr(oracle, "_band_matvec", lambda *args: calls.append(args) or matvec(*args))
    grid = GridSpec(n_x, n_y)
    fd_ground_state(g, b, mu, grid)
    reference, _ = _kron_operator(g, b, mu, grid)
    rng = np.random.default_rng(n_x * 1000 + n_y)
    bands = calls[0][:3]
    vectors = [args[3] for args in calls] + [rng.standard_normal(len(bands[0])) for _ in range(3)]
    for vec in vectors:
        assert np.array_equal(matvec(*bands, vec), reference @ vec)


def _red_schur(shifted, n_x, n_y):
    """S = D_r - B D_b^-1 B^T of the quarter-box matrix on its red points (i + j even)."""
    mx, my = (n_x + 1) // 2, (n_y + 1) // 2
    red = (np.add.outer(np.arange(mx), np.arange(my)) % 2 == 0).ravel()
    rows = shifted.tocsr()
    coupling = rows[red][:, ~red]
    return rows[red][:, red] - coupling @ diags(1 / shifted.diagonal()[~red]) @ coupling.T


def _assert_lower_band(ab, matrix, atol):
    # row k of LAPACK lower band storage holds the k-th subdiagonal, and the
    # band holds every entry of the symmetric matrix
    size = matrix.shape[0]
    assert ab.shape[1] == size
    for k in range(len(ab)):
        cut = max(size - k, 0)
        np.testing.assert_allclose(ab[k, :cut], matrix.diagonal(-k), rtol=0, atol=atol)
        assert not ab[k, cut:].any()
    in_band = sum(np.count_nonzero(matrix.diagonal(k)) for k in range(1 - len(ab), len(ab)))
    assert matrix.count_nonzero() == in_band


# a y half axis of an even and an odd length on each side of the crossover,
# and a one-point x axis above it
CROSSOVER_SHAPES = [
    (41, 2 * oracle.RED_BLACK_MIN_MY - 5),
    (40, 2 * oracle.RED_BLACK_MIN_MY - 3),
    (41, 2 * oracle.RED_BLACK_MIN_MY - 1),
    (30, 2 * oracle.RED_BLACK_MIN_MY + 1),
    (1, 2 * oracle.RED_BLACK_MIN_MY + 1),
]


@pytest.mark.parametrize("n_x, n_y", BAND_SHAPES + CROSSOVER_SHAPES)
def test_band_storage_is_shifted_operator(monkeypatch, n_x, n_y):
    # `splu` gets H - sigma*I as its diagonal, y bonds and x bonds, exactly.
    # The band factor gets that matrix in LAPACK lower band storage, the x
    # bonds in row 1 on a one-point y axis; from `RED_BLACK_MIN_MY` on it
    # gets the Schur complement of the black points on the red ones, to
    # rounding, in the same storage and of the same half-width.
    g, b, mu = 10.0, 5 / 3, 0.05
    received, stored = [], []
    factor, band = oracle.splu, oracle._BandCholesky
    monkeypatch.setattr(oracle, "splu", lambda bands: received.append(bands) or factor(bands))
    # the band factor overwrites its argument
    monkeypatch.setattr(oracle, "_BandCholesky", lambda ab: stored.append(ab.copy()) or band(ab))
    grid = GridSpec(n_x, n_y)
    fd_ground_state(g, b, mu, grid)
    reference, sigma = _kron_operator(g, b, mu, grid)
    shifted = reference - sigma * identity(reference.shape[0])
    [(diag, ybond, xbond)] = received
    my = (n_y + 1) // 2
    row_end = np.arange(1, len(diag)) % my == 0
    assert np.array_equal(diag, shifted.diagonal())
    assert np.array_equal(ybond, np.where(row_end, 0.0, shifted.diagonal(-1)))
    assert np.array_equal(xbond, shifted.diagonal(-my))
    bonds = np.count_nonzero(ybond) + np.count_nonzero(xbond)
    assert shifted.count_nonzero() == np.count_nonzero(diag) + 2 * bonds
    [ab] = stored
    assert len(ab) == my + 1
    if my < oracle.RED_BLACK_MIN_MY:
        _assert_lower_band(ab, shifted, atol=0)
    else:
        schur = _red_schur(shifted, n_x, n_y)
        _assert_lower_band(ab, schur, atol=8 * np.finfo(float).eps * abs(schur).max())


@pytest.mark.parametrize("n", [2 * oracle.RED_BLACK_MIN_MY - 1, 2 * oracle.RED_BLACK_MIN_MY])
@pytest.mark.parametrize("g, b, mu", [(10.0, 1.0, 0.05), (20.0, 5 / 3, 1.0)])
def test_both_factors_agree_at_the_crossover(monkeypatch, n, g, b, mu):
    # The grid with a y half axis of RED_BLACK_MIN_MY points, solved with
    # the red points' Schur complement and with the whole band.
    runs = []
    factor = oracle.splu

    class CountingFactor:
        def __init__(self, inner):
            self.inner = inner

        def solve(self, rhs):
            runs[-1]["solves"] += 1
            return self.inner.solve(rhs)

    def counting_splu(bands):
        solver = factor(bands)
        runs[-1]["reduced"] = isinstance(solver, oracle._RedBlackCholesky)
        return CountingFactor(solver)

    monkeypatch.setattr(oracle, "splu", counting_splu)
    for crossover in (oracle.RED_BLACK_MIN_MY, oracle.RED_BLACK_MIN_MY + 1):
        monkeypatch.setattr(oracle, "RED_BLACK_MIN_MY", crossover)
        runs.append({"solves": 0})
        runs[-1]["estimate"] = fd_ground_state(g, b, mu, GridSpec(n, n))
    reduced, whole = runs
    assert reduced["reduced"] and not whole["reduced"]
    assert reduced["solves"] == whole["solves"]
    assert reduced["estimate"].energy == pytest.approx(whole["estimate"].energy, rel=1e-14, abs=0)
    assert float(np.abs(reduced["estimate"].psi - whole["estimate"].psi).max()) <= 1e-12


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
    direct = solve_exponential(standard_spec(b), 2)
    deferred = solve_exponential(standard_spec(b, "eps"), 2)
    assert compare_methods([direct, deferred], names=["direct", "deferred"]) == {}
    # a differing run is keyed by its name
    shifted = deferred.energies + GradedPoly.mono(1, gp=-1).shift(ep=2)
    off = dataclasses.replace(deferred, energies=shifted)
    assert set(compare_methods([direct, off], names=["direct", "deferred"])) == {"deferred"}


def _check_all_methods_agree(b: Fraction, order: int) -> None:
    window = (order, 3 * order + 2)
    diffs = compare_methods(
        [build_solution(m, b, order) for m in METHODS], names=METHODS, window=window
    )
    assert diffs == {}


@pytest.mark.parametrize("order", [3, 4, 5, 6])
def test_all_methods_agree_past_second_order(order):
    _check_all_methods_agree(Fraction(5, 3), order)


def test_all_methods_agree_at_order_12():
    _check_all_methods_agree(Fraction(1, 2), 12)


@settings(deadline=None, max_examples=8)
@given(st.integers(1, 9), st.integers(1, 9))
def test_all_methods_agree_past_second_order_random_ratio(p, q):
    _check_all_methods_agree(Fraction(p, q), 3)


def test_compare_reports_disagreements():
    b = Fraction(1)
    good = solve_exponential(standard_spec(b), 2)
    bad_energies = good.energies + GradedPoly.mono(Fraction(1, 3), gp=-1).shift(ep=2)
    bad = dataclasses.replace(good, energies=bad_energies)
    diffs = compare_methods([good, bad])
    assert set(diffs) == {"run1"}
    assert any("energy slot" in line for line in diffs["run1"])


def _counted_windows(monkeypatch) -> list:
    """Record each run that `compare_methods` builds a normal form of."""
    built = []
    real = oracle.canonical_window

    def counting(sol, window):
        built.append(sol)
        return real(sol, window)

    monkeypatch.setattr(oracle, "canonical_window", counting)
    return built


def test_matching_exp_runs_build_no_normal_form(monkeypatch):
    built = _counted_windows(monkeypatch)
    b, order = Fraction(1, 2), 6
    runs = [build_solution(m, b, order) for m in ("hierarchy", "exp-eps", "exp-lambda")]
    assert compare_methods(runs, window=(order, 3 * order + 2)) == {}
    assert built == []


def test_reference_normal_form_is_built_once(monkeypatch):
    built = _counted_windows(monkeypatch)
    b = Fraction(5, 3)
    ref, exp_run, *polys = (build_solution(m, b, 3) for m in ("exp-eps", "hierarchy", "green", "rs"))
    assert compare_methods([ref, exp_run, *polys], window=(3, 11)) == {}
    assert built == [ref, *polys]
    # a poly reference has no generator shortcut
    built.clear()
    assert compare_methods([polys[0], ref, exp_run], window=(3, 11)) == {}
    assert built == [polys[0], ref, exp_run]


def test_compare_guards():
    with pytest.raises(ValueError):
        compare_methods([])
    sol = solve_exponential(standard_spec(Fraction(1)), 2)
    with pytest.raises(ValueError):
        compare_methods([sol], names=["a", "b"])


def test_compare_numeric_block():
    # the numeric block of verify and report --numeric: the one place that
    # sets a series energy against the grid's
    sol = solve_exponential(standard_spec(Fraction(1)), 2)
    cfg = argparse.Namespace(g=10.0, mu=0.05, b=Fraction(1))
    args = argparse.Namespace(levels=1, tol=1e-3)
    doc = _grid_check(sol, cfg, GridSpec(81, 81), args)
    assert set(doc) == {"g", "mu", "tol", "series_energy", "grid_energy", "abs_gap", "rel_gap", "pass"}
    assert (doc["g"], doc["mu"], doc["tol"]) == (10.0, 0.05, 1e-3)
    assert doc["series_energy"] == sol.physical_energy(10.0, 0.05)
    assert doc["grid_energy"] == extrapolated_ground_energy(10.0, 1.0, 0.05, GridSpec(81, 81), 1)
    assert doc["abs_gap"] == abs(doc["series_energy"] - doc["grid_energy"])
    assert doc["rel_gap"] < 1e-3
    assert doc["pass"] is True
