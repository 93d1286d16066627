"""Independent checks: textbook perturbation series and a grid eigensolver.

The perturbative oracle works in the unnormalized oscillator product basis,
where the squared coordinate acts by a three-point rule on each quantum
number; no inner products are ever taken and everything stays rational,
with the frequency g carried as an explicit grade.

The numeric oracle is the 5-point finite-difference Hamiltonian on a
Dirichlet box, inverse-iterated to its ground state.  The well and the box
are both symmetric under x -> -x and under y -> -y, and the discrete
operator is an irreducible M-matrix, so its ground state is positive and
nondegenerate, hence even in x and in y.  The solve therefore runs on the
nonnegative quarter of the grid with each axis reflected at the origin:
the lowest eigenvalue of that reflected operator is exactly the lowest
eigenvalue of the full box, at about a quarter of the unknowns.

On the quarter grid, unknown (i, j) sits at i*m_y + j, so the operator is
five bands: the diagonal, the y bonds at offsets +-1 (zero across the end
of each row) and the x bonds at offsets +-m_y.  Those three arrays are the
operator's only form: H v adds shifted slices of them, and H - sigma*I is
copied from them into the factor's band storage.

The iteration is shifted by the larger of two lower bounds on the ground
energy.  The operator splits as H = A_x (+) A_y + g^2 mu x^2 y^2, with
A_x = -D_xx/2 + g^2 x^2/2 and A_y = -D_yy/2 + g^2 b^2 y^2/2 the tridiagonal
half-axis operators, and the coupling term is nonnegative, so by Weyl's
monotonicity each eigenvalue of H lies above the same one of A_x (+) A_y:
E_0 >= floor = l_0(A_x) + l_0(A_y), and E_1 >= beta = floor + the smaller
even-level gap l_1 - l_0.  The floor rule takes a sixteenth of that gap off
the floor, which at mu = 0 leaves each step an error contraction of 1/17.
The second bound is Temple's (Proc. R. Soc. A 119, 276, 1928; Kato,
J. Phys. Soc. Japan 4, 334, 1949): for the unit start vector v with
rho = v.Hv < beta and eps = ||Hv - rho v||, E_0 >= rho - eps^2/(beta - rho).
The shift takes twice that correction and a further
delta = n u ||H||_inf (n unknowns, u the unit roundoff), which covers the
rounding of rho and eps^2 and keeps H - sigma*I away from singular.  Near
the harmonic well the gaussian start is close to the ground state, so
(E_0 - sigma)/(beta - sigma), which bounds each step's error contraction,
falls to between 2e-7 and 7e-4 at g = 10 and 20, mu <= 0.05, and two or
three solves converge.
Where there is no gap (a one-point axis on both sides), rho >= beta, or
rho or eps^2 is not finite, the floor rule alone sets the shift.

A symmetric positive definite band matrix needs neither pivoting nor a
fill-reducing ordering, so H - sigma*I is factored as L L^T by banded
Cholesky (Golub & Van Loan, Matrix Computations, sec. 4.3).  Its fill stays
inside the band of half-width m_y, which LAPACK's lower band storage holds
as an (m_y + 1) x (m_x*m_y) array: row k is the k-th subdiagonal, so row 0
is the diagonal, row 1 the y bonds and row m_y the x bonds.

Larger grids take one step of odd-even reduction first (Buzbee, Golub &
Nielson, SIAM J. Numer. Anal. 7, 627, 1970).  Colour point (i, j) red where
i + j is even and black where it is odd.  The 5-point stencil couples each
point only to points of the other colour, so in red-black order
H - sigma*I = [[D_r, B], [B^T, D_b]] with D_r and D_b diagonal, and
eliminating the black points leaves the Schur complement
S = D_r - B D_b^-1 B^T on the red points.  S is symmetric positive definite,
as every Schur complement of a symmetric positive definite matrix is.  It
couples red (i, j) to the red points two steps away, (i, j +- 2),
(i +- 1, j +- 1) and (i +- 2, j), each through their common black
neighbours.  Either colour takes every other point of a row, and two
consecutive rows hold m_y points of each, so in row-major order point
(i, j) has index (i*m_y + j) // 2 among the points of its colour.  The
farthest of those couplings, (i + 2, j), then sits m_y red points on: S has
half-width m_y on ceil(m_x*m_y/2) unknowns, half the band storage and half
the flops of the full factor.  A solve eliminates the black right side, solves with S
and back-substitutes the black points, at the price of a few passes over
the grid, so grids whose y half axis has fewer than `RED_BLACK_MIN_MY`
points keep the full band.

Only the grid solve needs numpy and SciPy, so they are imported inside it
and load on the first grid solve: the exact series, `rs_corrections` and
`compare_methods` run without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import GradedPoly, _accumulate, integrate_to_T
from .errors import ConvergenceFailure
from .hierarchy import SeriesSolution
from .perturbation import (
    DEFAULT_WINDOW,
    canonical_window,
    normal_form_diff,
    _series_inverse,
)
from .trajectory import gaussian_exponent, zero_point_energy

if TYPE_CHECKING:
    import numpy as np


def oscillator_matrix_element(m: int, n: int, omega) -> float:
    """<m| s^2 |n> in the normalized oscillator basis of frequency omega.

    Nonzero only on the diagonal and two off the diagonal.
    """
    if m < 0 or n < 0:
        raise ValueError("quantum numbers must be nonnegative")
    omega = float(omega)
    if omega <= 0:
        raise ValueError("frequency must be positive")
    if m == n:
        return (2 * n + 1) / (2 * omega)
    if abs(m - n) == 2:
        lo = min(m, n)
        return math.sqrt((lo + 1) * (lo + 2)) / (2 * omega)
    return 0.0


def _square_action(table: GradedPoly, b: Fraction) -> GradedPoly:
    """Act with x^2 y^2 on a raw-basis coefficient table.

    A table stores entry (m, n) at the monomial x^m y^n.  In the
    unnormalized basis s^2 maps entry m to (1/omega) times 1/4 of entry m+2,
    (m + 1/2) of entry m, and m(m-1) of entry m-2; the loop uses four times
    these weights on each axis and divides by 16 at the end.  The two
    1/omega factors contribute 1/b here and g^-2 to the implicit grading.
    """
    out: dict[tuple[int, int, int, int], int] = {}
    for (_, _, m, n), v in table.num.items():
        v *= b.denominator
        for dm, ax in ((2, 1), (0, 4 * m + 2), (-2, 4 * m * (m - 1))):
            if not ax:
                continue
            for dn, ay in ((2, 1), (0, 4 * n + 2), (-2, 4 * n * (n - 1))):
                if not ay:
                    continue
                key = (0, 0, m + dm, n + dn)
                out[key] = out.get(key, 0) + v * ax * ay
    return GradedPoly._reduced(
        {k: v for k, v in out.items() if v}, table.den * 16 * b.numerator
    )


def _hermite_table(max_m: int, axis: str, b: Fraction) -> dict[int, GradedPoly]:
    """Even Hermite polynomials at the oscillator-scaled argument.

    Entry m is H_m(sqrt(omega) s) written in the bare coordinate, so each
    s^(2j) carries an explicit grade g^j (times b^j on the y axis).
    """
    i, j = (2, 0) if axis == "x" else (0, 2)
    scale = Fraction(1) if axis == "x" else Fraction(b)
    u4 = GradedPoly({(0, 1, i, j): 4 * scale})
    tab = {0: GradedPoly.const(1)}
    if max_m >= 2:
        tab[2] = u4 - GradedPoly.const(2)
    for m in range(2, max_m, 2):
        tab[m + 2] = (u4 - GradedPoly.const(4 * m + 2)).mul(tab[m]) - tab[m - 2] * Fraction(4 * m * (m - 1))
    return tab


def _chi_from_tables(tables: list[GradedPoly], b: Fraction, order: int) -> GradedPoly:
    """Divide the corrected state by the bare gaussian and normalize at 0.

    Table entry (m, n) stands for H_m(x) H_n(y).  The entries of one m are
    summed into the row sum_n v H_n(y) first, over one denominator of the
    H_n(y), so each table takes one product per m.
    """
    max_m = max((k[2] for t in tables for k in t.num), default=0)
    max_n = max((k[3] for t in tables for k in t.num), default=0)
    hx = _hermite_table(max_m, "x", b)
    hy = _hermite_table(max_n, "y", b)
    common = math.lcm(*(h.den for h in hy.values()))
    chi = GradedPoly.zero()
    for k, table in enumerate(tables):
        rows: dict[int, dict] = {}
        for (_, _, m, n), v in table.num.items():
            h = hy[n]
            v *= common // h.den
            _accumulate(rows.setdefault(m, {}), ((key, v * c) for key, c in h.num.items()))
        state = GradedPoly.zero()
        for m, row in rows.items():
            state = state + hx[m].mul(GradedPoly._reduced(row, common))
        chi = chi + (state / table.den).shift(ep=k, gp=-3 * k)
    head = chi.constant_part()
    return chi.mul(_series_inverse(head, order), order)


def rs_corrections(b, order: int = 2) -> SeriesSolution:
    """Textbook perturbation series for the ground state, exact in g,
    packaged like a method run for comparison.

    Solved in the raw product basis with the usual intermediate
    normalization (the corrections keep no raw ground-state component).
    Table k holds the raw-basis coefficient of even (m, n) at coupling
    order k at the monomial x^m y^n, with an implicit grade g^(-3k) (two
    inverse frequencies per coupling action, one per energy denominator).
    Selection rules keep every table finite, so the sums are exact.  The
    series' one level is the origin-normalized prefactor of the state
    divided by the bare gaussian, and its energies are the shifts on top of
    the zero-point energy, in the eps grading.
    """
    b = Fraction(b)
    if b <= 0:
        raise ValueError("frequency ratio must be positive")
    if order < 1:
        raise ValueError("order must be at least 1")
    tables = [GradedPoly.const(1)]
    shifts: list[Fraction] = []
    for k in range(1, order + 1):
        acted = _square_action(tables[k - 1], b)
        shifts.append(Fraction(acted.num.get((0, 0, 0, 0), 0), acted.den))
        acted = acted.drop_constant()
        for r in range(1, k):
            acted = acted - tables[k - r] * shifts[r - 1]
        # integrate_to_T divides entry (m, n) by its energy denominator m + n b
        tables.append(-integrate_to_T(acted, b))
    energies = GradedPoly({(k, 1 - 3 * k, 0, 0): e for k, e in enumerate(shifts, start=1)})
    return SeriesSolution(
        kind="poly",
        flavor="eps",
        b=b,
        order=order,
        terms=(_chi_from_tables(tables, b, order),),
        energies=energies + zero_point_energy(b),
        base=(gaussian_exponent(b), GradedPoly.zero()),
    )


# The benchmark tracer wraps `rs_corrections` by name, and the benchmark's
# checker and the CLI call it as `rs_series`.
rs_series = rs_corrections


@dataclass(frozen=True)
class GridSpec:
    """Dirichlet box for the finite-difference solve.

    Half-widths default to six standard deviations of the widest harmonic
    ground-state gaussian, so the boundary error is negligible next to the
    stencil error.
    """

    n_x: int = 161
    n_y: int = 161
    l_x: float | None = None
    l_y: float | None = None

    def resolved(self, g: float, b: float) -> tuple[int, int, float, float]:
        fallback = 6.0 / math.sqrt(g * min(1.0, b))
        lx = fallback if self.l_x is None else float(self.l_x)
        ly = fallback if self.l_y is None else float(self.l_y)
        return self.n_x, self.n_y, lx, ly


@dataclass(frozen=True)
class SpectralEstimate:
    """Converged grid eigenpair on the resolved (n_x, n_y, l_x, l_y) grid."""

    energy: float
    grid: tuple[int, int, float, float]
    residual: float
    psi: np.ndarray


def _half_axis(n: int, length: float):
    """One axis of the box reflected at the origin.

    Returns the grid spacing, the nonnegative grid points, the number of
    full-grid points each stands for, and the main and off-diagonal of the
    second difference on even functions, symmetrized by the square root of
    those multiplicities.  For odd n the origin is a grid point and its
    mirror neighbour is its right one, so that coupling doubles, and becomes
    sqrt(2)/h^2 both ways once symmetrized; for even n the first point is
    its own mirror neighbour.
    """
    import numpy as np

    h = 2 * length / (n + 1)
    half = (n + 1) // 2
    points = -length + h * np.arange(n - half + 1, n + 1)
    weight = np.full(half, 2.0)
    main = np.full(half, -2.0 / (h * h))
    off = np.full(half - 1, 1.0 / (h * h))
    if n % 2:
        weight[0] = 1.0
        off[:1] = math.sqrt(2.0) / (h * h)
    else:
        main[0] = -1.0 / (h * h)
    return h, points, weight, main, off


def _lowest_levels(main, off, potential) -> np.ndarray:
    """The lowest one or two eigenvalues of the axis operator -D/2 + potential."""
    from scipy.linalg import eigh_tridiagonal

    top = min(1, len(main) - 1)
    return eigh_tridiagonal(
        -0.5 * main + potential, -0.5 * off, eigvals_only=True, select="i", select_range=(0, top)
    )


class _BandCholesky:
    """LL^T factor of a symmetric positive definite band matrix.

    ``ab`` is in LAPACK lower band storage and is factored in place (LAPACK
    ``pbtrf``); Fortran order spares f2py a copy of it on the factor call
    and on every solve.
    """

    def __init__(self, ab: np.ndarray):
        from scipy.linalg import cho_solve_banded, cholesky_banded

        self._factor = cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
        self._cho_solve = cho_solve_banded

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._cho_solve((self._factor, True), rhs, check_finite=False)


class _RedBlackCholesky:
    """H - sigma*I with its black points eliminated (module docstring).

    Keeps the band factor of the red points' Schur complement S.  The
    coupling B between the colours is applied as H - sigma*I times a vector
    that is zero on the other colour: the rows read from it are B's.
    """

    def __init__(self, shifted: np.ndarray, ybond: np.ndarray, xbond: np.ndarray):
        import numpy as np

        size = len(shifted)
        my = size - len(xbond)
        points = np.arange(size)
        black = (points // my + points % my) % 2 == 1
        self._bands = shifted, ybond, xbond
        self._red = p = np.flatnonzero(~black)
        self._black_inv = np.where(black, 1 / shifted, 0.0)
        # bonds from each point to the next one in y and in x, and D_b^-1,
        # each with a zero tail that the indices below reach past either end
        yb, xb, w = np.zeros((3, size + my + 1))
        yb[: size - 1] = ybond
        xb[: size - my] = xbond
        w[:size] = self._black_inv
        ab = np.zeros((my + 1, len(p)), order="F")
        ab[0] = shifted[p] - (
            yb[p] ** 2 * w[p + 1]
            + yb[p - 1] ** 2 * w[p - 1]
            + xb[p] ** 2 * w[p + my]
            + xb[p - my] ** 2 * w[p - my]
        )
        # S at red points p + offset and p: minus bond * bond / d_k summed
        # over their common black neighbours k.  An offset that runs off the
        # row holds a zero bond, so adding its entry changes nothing.
        lower = (
            (2, yb[p] * yb[p + 1] * w[p + 1]),
            (my - 1, yb[p - 1] * xb[p - 1] * w[p - 1] + xb[p] * yb[p + my - 1] * w[p + my]),
            (my + 1, yb[p] * xb[p + 1] * w[p + 1] + xb[p] * yb[p + my] * w[p + my]),
            (2 * my, xb[p] * xb[p + my] * w[p + my]),
        )
        for offset, value in lower:
            # red point p has red index p // 2, and p ascends
            count = np.count_nonzero(p + offset < size)
            col = np.arange(count)
            ab[(p[:count] + offset) // 2 - col, col] -= value[:count]
        self._schur = _BandCholesky(ab)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        import numpy as np

        reduced = rhs - _band_matvec(*self._bands, rhs * self._black_inv)
        vec = np.zeros_like(rhs)
        vec[self._red] = self._schur.solve(reduced[self._red])
        return vec + (rhs - _band_matvec(*self._bands, vec)) * self._black_inv


# The smallest y half axis whose factor eliminates the black points first.
# Measured per `fd_ground_state` call (g = 10, b = 1, mu = 0.05, one BLAS
# thread, 2-vCPU VM, best of 3 x 40), the reduced path against the full
# band ran 0.75x as fast at m_y = 21, 0.93x at 31, 1.00x at 36, 1.02x at
# 38, 1.09x at 42, 1.39x at 62 and 82 and 1.80x at 162.
RED_BLACK_MIN_MY = 38


def splu(bands: tuple[np.ndarray, np.ndarray, np.ndarray]):
    """Factor H - sigma*I, given as its diagonal, y bonds and x bonds.

    Grids whose y half axis has `RED_BLACK_MIN_MY` points or more factor
    the red points' Schur complement, smaller ones the whole band (module
    docstring).  LL^T is the symmetric LU, so this seam keeps the name the
    benchmark tracer and the tests wrap; renaming it waits for the tracer
    to read spans instead of rebinding names.
    """
    import numpy as np

    shifted, ybond, xbond = bands
    size = len(shifted)
    my = size - len(xbond)
    if my >= RED_BLACK_MIN_MY:
        return _RedBlackCholesky(shifted, ybond, xbond)
    # on a one-point y axis the x bonds overwrite the all-zero y bonds in row 1
    ab = np.zeros((my + 1, size), order="F")
    ab[0] = shifted
    ab[1, :-1] = ybond
    ab[my, : size - my] = xbond
    return _BandCholesky(ab)


def _band_matvec(diag, ybond, xbond, vec) -> np.ndarray:
    """H v on the five bands of the module docstring.

    Each row sums its terms from zero in column order, i - m_y, i - 1, i,
    i + 1, i + m_y, as a compressed-column sparse product does, so the
    result is that product's to the bit.
    """
    import numpy as np

    my = len(diag) - len(xbond)
    hv = np.zeros_like(vec)
    hv[my:] += xbond * vec[:-my]
    hv[1:] += ybond * vec[:-1]
    hv += diag * vec
    hv[:-1] += ybond * vec[1:]
    hv[:-my] += xbond * vec[my:]
    return hv


def _shift(diag, ybond, xbond, vec, levels) -> float:
    """The shift of the iteration: the larger lower bound on E_0 (module docstring).

    Its temporaries are freed on return, before the band factor is allocated.
    """
    import numpy as np

    floor = sum(lv[0] for lv in levels)
    gaps = [lv[1] - lv[0] for lv in levels if len(lv) > 1]
    sigma = floor - min(gaps, default=floor) / 16
    if not gaps:
        return sigma
    beta = floor + min(gaps)
    hv = _band_matvec(diag, ybond, xbond, vec)
    with np.errstate(over="ignore", invalid="ignore"):
        rho = float(vec @ hv)
        eps2 = float(np.linalg.norm(hv - rho * vec)) ** 2
        if not (math.isfinite(rho) and math.isfinite(eps2) and rho < beta):
            return sigma
        # ||H||_inf: the largest row sum of |H|, in the row order of H v
        norm = float(_band_matvec(abs(diag), abs(ybond), abs(xbond), np.ones_like(vec)).max())
        delta = len(vec) * (np.finfo(float).eps / 2) * norm
        return max(sigma, rho - 2 * eps2 / (beta - rho) - delta)


def _unfold(n: int):
    """Index into the half axis of every point of the full axis."""
    import numpy as np

    return np.abs(2 * np.arange(n) - (n - 1)) // 2


def fd_ground_state(
    g: float,
    b: float,
    mu: float,
    grid: GridSpec | None = None,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> SpectralEstimate:
    """Smallest eigenpair of the boxed Hamiltonian by inverse iteration.

    5-point stencil on the even quarter of the box (see the module
    docstring): each unknown is scaled by the square root of the number of
    full-grid points it stands for, which makes the operator symmetric and
    every plain 2-norm equal to its full-grid norm, so the energy, the
    residual and the convergence rule are those of the full box.  Each step
    solves with H - sigma*I, where sigma lies below the ground energy
    (module docstring): it is the larger of the floor rule
    l_0(A_x) + l_0(A_y) - min(gap_x, gap_y)/16 (an axis of one point has no
    gap, and a box of one unknown takes the floor itself for it) and
    rho - 2 eps^2/(beta - rho) - delta, Temple's bound on the gaussian start
    vector with beta = l_0(A_x) + l_0(A_y) + min(gap_x, gap_y) below E_1 and
    delta = n u ||H||_inf for rounding.  The Temple bound is skipped, leaving
    the floor rule, when there is no gap, when rho >= beta, or when rho or
    eps^2 is not finite.  That operator is positive definite, and it is
    factored once as L L^T in lower band storage (module docstring): whole
    where the y half axis has fewer than `RED_BLACK_MIN_MY` points, and
    otherwise after the black points (i + j odd) are eliminated, as the
    red points' Schur complement, itself positive definite and of the same
    half-width m_y on half the unknowns.  The
    energy is the Rayleigh quotient and the residual ||H v - E v|| of the
    unshifted H.  The residual bound is loosened with grid size so it stays
    above the roundoff floor of the stencil.  ``psi`` is unfolded back onto the full (n_x, n_y) grid.
    The residual bounds the state's error only through the even gap, the
    distance from E_0 to the next even level: the unit grid vector is good
    to about residual / (even gap) in the 2-norm, and ``psi`` is that vector
    over sqrt(h_x*h_y).  The energy's error is of order residual^2 / gap, so
    at a small gap ``psi`` is much the looser of the two; at g = 10,
    b = 1e-3 and mu = 0 the even gap is the y axis's 2gb = 0.02.
    """
    import numpy as np

    g = float(g)
    b = float(b)
    mu = float(mu)
    if g <= 0 or b <= 0:
        raise ValueError("g and b must be positive")
    if mu < 0:
        raise ValueError("coupling must be nonnegative")
    if grid is None:
        grid = GridSpec()
    nx, ny, lx, ly = grid.resolved(g, b)
    hx, x, wx, mainx, offx = _half_axis(nx, lx)
    hy, y, wy, mainy, offy = _half_axis(ny, ly)
    mx, my = len(x), len(y)
    xx = x[:, None]
    yy = y[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        pot = g * g * (0.5 * (xx**2 + b * b * yy**2) + mu * xx**2 * yy**2)
    if not np.isfinite(pot).all():
        # the factorization would fail, or inverse iteration spin on NaNs
        raise ConvergenceFailure(f"grid potential is not finite at g={g:g}, mu={mu:g}")
    # the five bands of the module docstring; no y bond across a row's end,
    # so all y bonds are zero on a one-point y axis, whose x bonds sit at +-1
    xbond = -0.5 * np.repeat(offx, my)
    ybond = -0.5 * np.tile(np.append(offy, 0.0), mx)[:-1]
    diag = -0.5 * np.repeat(mainx, my) - 0.5 * np.tile(mainy, mx) + pot.ravel()
    levels = (
        _lowest_levels(mainx, offx, 0.5 * g * g * x**2),
        _lowest_levels(mainy, offy, 0.5 * g * g * b * b * y**2),
    )
    root_weight = np.sqrt(wx[:, None] * wy[None, :])
    vec = (root_weight * np.exp(-0.5 * g * (xx**2 + b * yy**2))).ravel()
    vec /= np.linalg.norm(vec)
    sigma = _shift(diag, ybond, xbond, vec, levels)
    solver = splu((diag - sigma, ybond, xbond))
    tol_eff = tol * max(1.0, (max(nx, ny) / 161.0) ** 2)
    energy = float("nan")
    residual = float("inf")
    for _ in range(max_iter):
        vec = solver.solve(vec)
        vec /= np.linalg.norm(vec)
        hv = _band_matvec(diag, ybond, xbond, vec)
        energy = float(vec @ hv)
        residual = float(np.linalg.norm(hv - energy * vec))
        if residual <= tol_eff:
            break
        floor = np.finfo(float).eps * abs(energy)
        if tol_eff < floor:
            raise ConvergenceFailure(
                f"residual bound {tol_eff:.3e} is below the round-off floor"
                f" {floor:.3e} of the energy {energy:.6g}"
            )
    else:
        raise ConvergenceFailure(
            f"residual {residual:.3e} above {tol_eff:.3e} after {max_iter} iterations"
        )
    quarter = vec.reshape(len(x), len(y)) / root_weight
    psi = quarter[np.ix_(_unfold(nx), _unfold(ny))] / math.sqrt(hx * hy)
    if psi.sum() < 0:
        psi = -psi
    return SpectralEstimate(
        energy=energy,
        grid=(nx, ny, lx, ly),
        residual=residual,
        psi=psi,
    )


def extrapolated_ground_energy(
    g: float,
    b: float,
    mu: float,
    grid: GridSpec | None = None,
    levels: int = 2,
    tol: float = 1e-10,
) -> float:
    """Richardson-extrapolate the grid energy over nested spacings.

    The box is held fixed and the spacing halved exactly (n -> 2n+1
    interior points); each level removes the next even power of h from the
    stencil error.
    """
    if levels < 1:
        raise ValueError("need at least one refinement level")
    if grid is None:
        grid = GridSpec()
    nx, ny, lx, ly = grid.resolved(float(g), float(b))
    energies = []
    for lv in range(levels + 1):
        f = 2**lv
        step = GridSpec(n_x=f * (nx + 1) - 1, n_y=f * (ny + 1) - 1, l_x=lx, l_y=ly)
        energies.append(fd_ground_state(g, b, mu, step, tol).energy)
    weight = 4
    while len(energies) > 1:
        energies = [
            (weight * fine - coarse) / (weight - 1)
            for coarse, fine in zip(energies, energies[1:])
        ]
        weight *= 4
    return energies[0]


def compare_methods(
    solutions,
    names=None,
    window: tuple[int, int] = DEFAULT_WINDOW,
) -> dict[str, list[str]]:
    """Compare runs after flattening them onto the canonical window.

    The first run is the reference.  Returns every differing slot keyed by
    run name; an empty dict means the runs agree.
    """
    sols = list(solutions)
    if not sols:
        raise ValueError("nothing to compare")
    if names is None:
        names = [f"run{i}" for i in range(len(sols))]
    names = [str(n) for n in names]
    if len(names) != len(sols):
        raise ValueError("one name per solution")
    forms = [canonical_window(s, window) for s in sols]
    diffs: dict[str, list[str]] = {}
    for name, form in zip(names[1:], forms[1:]):
        d = normal_form_diff(forms[0], form)
        if d:
            diffs[name] = d
    return diffs
