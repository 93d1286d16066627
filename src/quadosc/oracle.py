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
of each row) and the x bonds at offsets +-m_y.  The iteration is shifted
by a lower bound on the ground energy.  The operator splits as
H = A_x (+) A_y + g^2 mu x^2 y^2, with A_x = -D_xx/2 + g^2 x^2/2 and
A_y = -D_yy/2 + g^2 b^2 y^2/2 the tridiagonal half-axis operators, and the
coupling term is nonnegative, so E_0 >= l_0(A_x) + l_0(A_y).  Taking a
sixteenth of the smaller even-level gap l_1 - l_0 off that bound keeps the
shifted operator positive definite; at mu = 0 it leaves each step an error
contraction of 1/17.

A symmetric positive definite band matrix needs neither pivoting nor a
fill-reducing ordering, so H - sigma*I is factored as L L^T by banded
Cholesky (Golub & Van Loan, Matrix Computations, sec. 4.3).  Its fill stays
inside the band of half-width m_y, which LAPACK's lower band storage holds
as an (m_y + 1) x (m_x*m_y) array: row k is the k-th subdiagonal, so row 0
is the diagonal, row 1 the y bonds and row m_y the x bonds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh_tridiagonal
from scipy.sparse import diags

from .algebra import GradedPoly, integrate_to_T
from .errors import ConvergenceFailure
from .hierarchy import SeriesSolution
from .perturbation import (
    DEFAULT_WINDOW,
    canonical_window,
    normal_form_diff,
    _series_inverse,
)
from .trajectory import gaussian_exponent, zero_point_energy


@dataclass(frozen=True)
class OscBasisIndex:
    """Product-basis index pair.

    The squared-coordinate coupling preserves parity in each direction, so
    only even quantum numbers ever appear in the ground-state corrections.
    """

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0 or self.m % 2 or self.n % 2:
            raise ValueError("basis indices must be even and nonnegative")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.m, self.n)


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
    """Divide the corrected state by the bare gaussian and normalize at 0."""
    max_m = max((k[2] for t in tables for k in t.num), default=0)
    max_n = max((k[3] for t in tables for k in t.num), default=0)
    hx = _hermite_table(max_m, "x", b)
    hy = _hermite_table(max_n, "y", b)
    chi = GradedPoly.zero()
    for k, table in enumerate(tables):
        state = GradedPoly.zero()
        for (_, _, m, n), v in table.num.items():
            state = state + hx[m].mul(hy[n]) * v
        chi = chi + (state / table.den).shift(ep=k, gp=-3 * k)
    head = chi.constant_part()
    return chi.mul(_series_inverse(head, order), order)


@dataclass(frozen=True)
class RSCorrections:
    """Order-by-order corrections in the raw product basis.

    ``tables[k]`` maps even (m, n) to the exact raw-basis coefficient at
    coupling order k; the whole table carries an implicit grade g^(-3k)
    (two inverse frequencies per coupling action, one per energy
    denominator).  ``energies`` is the flat energy series of the shifts, in
    the eps grading, as in `SeriesSolution`.  ``chi`` is the
    origin-normalized prefactor of the state divided by the bare gaussian,
    all grading explicit.
    """

    b: Fraction
    order: int
    tables: tuple[dict[tuple[int, int], Fraction], ...]
    energies: GradedPoly
    chi: GradedPoly

    def coefficient(self, k: int, m: int, n: int) -> Fraction:
        return self.tables[k].get((m, n), Fraction(0))

    def amplitude(self, k: int, m: int, n: int) -> float:
        """Normalized-basis amplitude at order k (grade g^(-3k) implied)."""
        c = self.coefficient(k, m, n)
        return float(c) * math.sqrt(2 ** (m + n) * math.factorial(m) * math.factorial(n))


def rs_corrections(b, order: int = 2) -> RSCorrections:
    """Textbook perturbation series for the ground state, exact in g.

    Solved in the raw product basis with the usual intermediate
    normalization (the corrections keep no raw ground-state component).
    Selection rules keep every table finite, so the sums are exact.
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
    chi = _chi_from_tables(tables, b, order)
    return RSCorrections(
        b=b,
        order=order,
        tables=tuple({(m, n): c for (_, _, m, n), c in t.terms.items()} for t in tables),
        energies=energies,
        chi=chi,
    )


def rs_series(b, order: int = 2) -> SeriesSolution:
    """Package the perturbative oracle like a method run for comparison."""
    rs = rs_corrections(b, order)
    return SeriesSolution(
        kind="poly",
        flavor="eps",
        b=rs.b,
        order=order,
        terms=(rs.chi,),
        energies=rs.energies + zero_point_energy(rs.b),
        base=(gaussian_exponent(rs.b), GradedPoly.zero()),
    )


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
    """Converged grid eigenpair, together with the inputs it certifies."""

    energy: float
    grid: tuple[int, int, float, float]
    residual: float
    psi: np.ndarray
    g: float
    b: float
    mu: float


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
        self._factor = cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve_banded((self._factor, True), rhs, check_finite=False)


# LL^T is the symmetric LU, so the factor seam keeps the name the benchmark
# tracer and the tests wrap; renaming it waits for the tracer to read spans
# instead of rebinding names.
splu = _BandCholesky


def _unfold(n: int):
    """Index into the half axis of every point of the full axis."""
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
    solves with H - sigma*I, where sigma = l_0(A_x) + l_0(A_y) -
    min(gap_x, gap_y)/16 lies below the ground energy (module docstring;
    an axis of one point has no gap, and a box of one unknown takes the
    bound itself for it).  That operator is positive definite, and it is
    factored once as L L^T in lower band storage (module docstring).  The
    energy is the Rayleigh quotient and the residual ||H v - E v|| of the
    unshifted H.  The residual bound is loosened with grid size so it stays
    above the roundoff floor of the stencil.  ``psi`` is unfolded back onto the full (n_x, n_y) grid.
    """
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
    # and none at all on a one-point y axis, whose x bonds sit at +-1
    xbond = -0.5 * np.repeat(offx, my)
    ybond = -0.5 * np.tile(np.append(offy, 0.0), mx)[:-1]
    diag = -0.5 * np.repeat(mainx, my) - 0.5 * np.tile(mainy, mx) + pot.ravel()
    bands = [xbond, ybond, diag, ybond, xbond]
    offsets = [-my, -1, 0, 1, my]
    if my == 1:
        bands, offsets = bands[::2], offsets[::2]
    ham = diags(bands, offsets, format="csc")
    levels = (
        _lowest_levels(mainx, offx, 0.5 * g * g * x**2),
        _lowest_levels(mainy, offy, 0.5 * g * g * b * b * y**2),
    )
    floor = sum(lv[0] for lv in levels)
    sigma = floor - min((lv[1] - lv[0] for lv in levels if len(lv) > 1), default=floor) / 16
    # H - sigma*I in lower band storage; on a one-point y axis the x bonds
    # overwrite the all-zero y bonds in row 1
    ab = np.zeros((my + 1, mx * my), order="F")
    ab[0] = diag - sigma
    ab[1, :-1] = ybond
    ab[my, :-my] = xbond
    solver = splu(ab)
    root_weight = np.sqrt(wx[:, None] * wy[None, :])
    vec = (root_weight * np.exp(-0.5 * g * (xx**2 + b * yy**2))).ravel()
    vec /= np.linalg.norm(vec)
    tol_eff = tol * max(1.0, (max(nx, ny) / 161.0) ** 2)
    energy = float("nan")
    residual = float("inf")
    for _ in range(max_iter):
        vec = solver.solve(vec)
        vec /= np.linalg.norm(vec)
        hv = ham @ vec
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
        g=g,
        b=b,
        mu=mu,
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


def energy_gap(series: float, grid: float) -> dict[str, float]:
    """A series energy against a grid energy: both, and their gaps."""
    gap = abs(series - grid)
    return {
        "series_energy": series,
        "grid_energy": grid,
        "abs_gap": gap,
        "rel_gap": gap / abs(grid),
    }


@dataclass(frozen=True)
class ComparisonReport:
    """Slot-by-slot agreement of method runs on the comparison window."""

    agree: bool
    names: tuple[str, ...]
    window: tuple[int, int]
    diffs: dict[str, list[str]]
    numeric: dict[str, float] | None


def compare_methods(
    solutions,
    estimate: SpectralEstimate | None = None,
    names=None,
    window: tuple[int, int] = DEFAULT_WINDOW,
) -> ComparisonReport:
    """Compare runs after flattening them onto the canonical window.

    The first run is the reference; the report lists every differing slot
    keyed by run name.  With a grid estimate, the reference energy series
    is evaluated at the estimate's parameters and the gap recorded.
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
    numeric = None
    if estimate is not None:
        series = sols[0].physical_energy(estimate.g, estimate.mu)
        numeric = energy_gap(series, estimate.energy)
    return ComparisonReport(
        agree=not diffs,
        names=tuple(names),
        window=window,
        diffs=diffs,
        numeric=numeric,
    )
