"""Exact-arithmetic substrate for the symbolic pipelines.

One value type carries the whole calculation.  A ``GradedPoly`` is a
polynomial in two variables whose rational coefficients carry integer powers
of the scale factor g and of a single perturbation parameter.  Which
parameter that is (mu, eps or lambda, depending on how the coupling term is
booked) is a property of the run, not of the polynomial: `PotentialSpec`
and `SeriesSolution` carry it, and `regrade` is told it.  The variables are
the plane coordinates (x, y), or, along the classical trajectory, the
amplitudes X = cx e^t and Y = cy e^(bt): a monomial X^p Y^q is then the
exponential cx^p cy^q e^((p + q*b) t) in the flow time t.

In the amplitudes, d/dt is the flow operator x d/dx + b y d/dy, which scales
each monomial by its eigenvalue i + j*b.  `integrate_to_T` is its inverse:
integrating along the flow from t = -inf is dividing each monomial by
i + j*b, so the transport levels of `hierarchy` are solved by it in the
plane, and the operator inversion of `greens` uses it too.  The
substitutions into the trajectory (`GradedPoly.subs`,
`restrict_to_trajectory`, `evaluate_at_endpoint`) serve only the paper's
trajectory route, kept in `trajectory` as the reference; no workload runs
it, so each call builds the powers it needs and nothing is cached.

Values are immutable by convention; every operation returns a new value.
A polynomial is stored as integer numerators over one denominator (FLINT's
``fmpq_poly`` layout): ``num`` maps each key to a nonzero int, ``den`` is a
positive int, and the form is reduced, gcd(den, *num.values()) == 1.  Zero is
``den == 1`` with an empty ``num``.  The form is canonical, so equality is
equality of ``den`` and ``num``.  ``terms`` is a read-only view with one
reduced Fraction per key, built on first read and kept.

The public constructor checks and converts Fraction-like coefficients.  The
operations below work on the integers alone: they scale operands to a common
denominator, add and multiply Python integers, and divide out the common
factor of the result once.  `sum_of_products` is the one kernel for a sum
of products c*a*b: it puts every term over one common denominator,
accumulates the integer products into one dict and reduces once.  The
solvers build each right-hand side and each series sum with it, so a right
side costs one polynomial, not one per ``+``, product and scaling; scaling
by a number and `GradedPoly.subs` are one call of it each.  ``+`` and
`GradedPoly.mul`, the program's two-operand hot paths, keep their own loops.
What an operation promises is the value; the order of a result's keys is
not part of it, except for ``+``, which keeps the left operand's keys in
their order and appends the right one's new keys.  One key order reaches a
printed float: `evaluate` sums in key order, and the program evaluates only
energy series, which the solvers book one parameter order at a time with
``+`` (see `SeriesSolution.physical_energy`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import TYPE_CHECKING

from .errors import SingularInverse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotations only
    from .trajectory import Trajectory

# g-power carried by one unit of each parameter flavor relative to the
# potential-folded one: eps = g^2 mu, lambda = g mu.
_G_SHIFT = {"mu": 0, "eps": 2, "lambda": 1}


class GradedPoly:
    """Polynomial in (x, y) over Q, graded by g and one perturbation parameter.

    Keys are ``(ep, gp, i, j)``: ``ep`` is the parameter power, ``gp`` the
    explicit g power, ``i`` and ``j`` the x and y exponents.  The coefficient
    at a key is ``num[key] / den``; ``terms`` maps each key to it as a
    Fraction.  The key layout makes plain ``sorted()`` the canonical term
    order used for printing and serialization.
    """

    __slots__ = ("num", "den", "_terms")

    def __init__(self, terms=None):
        clean: dict[tuple[int, int, int, int], Fraction] = {}
        if terms:
            for (ep, gp, i, j), coef in terms.items():
                if i < 0 or j < 0:
                    raise ValueError("negative monomial exponent")
                coef = Fraction(coef)
                if coef:
                    clean[(ep, gp, i, j)] = coef
        # the lcm of reduced denominators leaves the numerators no factor in common with it
        den = lcm(*(c.denominator for c in clean.values()))
        self.num = {k: c.numerator * (den // c.denominator) for k, c in clean.items()}
        self.den = den
        self._terms = MappingProxyType(clean)

    @classmethod
    def _raw(cls, num: dict, den: int) -> "GradedPoly":
        """Wrap a form that is already reduced, without copying or checking it."""
        out = object.__new__(cls)
        out.num = num
        out.den = den
        out._terms = None
        return out

    @classmethod
    def _reduced(cls, num: dict, den: int) -> "GradedPoly":
        """Wrap nonzero integer numerators over ``den`` > 0, dividing out
        their common factor with it."""
        common = gcd(den, *num.values())
        if common != 1:
            den //= common
            num = {k: n // common for k, n in num.items()}
        return cls._raw(num, den)

    @property
    def terms(self) -> MappingProxyType:
        """Read-only map from each key to its coefficient as a Fraction."""
        view = self._terms
        if view is None:
            den = self.den
            view = self._terms = MappingProxyType(
                {k: Fraction(n, den) for k, n in self.num.items()}
            )
        return view

    # ---------------------------------------------------------------- build

    @classmethod
    def zero(cls) -> "GradedPoly":
        return cls._raw({}, 1)

    @classmethod
    def const(cls, value) -> "GradedPoly":
        return cls({(0, 0, 0, 0): Fraction(value)})

    @classmethod
    def mono(cls, coef, i=0, j=0, gp=0) -> "GradedPoly":
        return cls({(0, gp, i, j): Fraction(coef)})

    @classmethod
    def variable(cls, name: str) -> "GradedPoly":
        if name == "x":
            return cls.mono(1, i=1)
        if name == "y":
            return cls.mono(1, j=1)
        raise ValueError(f"unknown variable {name!r}")

    # ----------------------------------------------------------- arithmetic

    def _coerce(self, other) -> "GradedPoly":
        if isinstance(other, GradedPoly):
            return other
        return GradedPoly.const(other)

    def __add__(self, other) -> "GradedPoly":
        other = self._coerce(other)
        if not other.num:
            return self
        if not self.num:
            return other
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        out = dict(self.num) if sa == 1 else {k: n * sa for k, n in self.num.items()}
        _accumulate(
            out,
            other.num.items() if sb == 1 else ((k, n * sb) for k, n in other.num.items()),
        )
        return GradedPoly._reduced(out, den)

    def __neg__(self) -> "GradedPoly":
        if not self.num:
            return self
        return GradedPoly._raw({k: -n for k, n in self.num.items()}, self.den)

    def __sub__(self, other) -> "GradedPoly":
        return self + (-self._coerce(other))

    def mul(self, other: "GradedPoly", max_ep: int | None = None) -> "GradedPoly":
        """Product, optionally truncated above ``max_ep`` in the parameter."""
        if not self.num or not other.num:
            return GradedPoly.zero()
        out = _raw_product(self.num, other.num, max_ep)
        return GradedPoly._reduced({k: n for k, n in out.items() if n}, self.den * other.den)

    def __mul__(self, coef) -> "GradedPoly":
        """Scale by a number; a product of polynomials is `mul`."""
        return sum_of_products(((Fraction(coef), self, None),))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __bool__(self) -> bool:
        return bool(self.num)

    # ------------------------------------------------------------- calculus

    def diff(self, var: str) -> "GradedPoly":
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}")
        if not self.num:
            return self
        if var == "x":
            out = {(ep, gp, i - 1, j): n * i for (ep, gp, i, j), n in self.num.items() if i}
        else:
            out = {(ep, gp, i, j - 1): n * j for (ep, gp, i, j), n in self.num.items() if j}
        return GradedPoly._reduced(out, self.den)

    # ----------------------------------------------------------- structure

    def shift(self, ep: int = 0, gp: int = 0) -> "GradedPoly":
        """Multiply by param^ep * g^gp (pure grading shift)."""
        if ep == 0 and gp == 0:
            return self
        return GradedPoly._raw(
            {(e + ep, g + gp, i, j): n for (e, g, i, j), n in self.num.items()}, self.den
        )

    def regrade(self, src: str, dst: str) -> "GradedPoly":
        """Re-express a parameter grading of flavor ``src`` in flavor ``dst``.

        Uses eps = g^2 mu and lambda = g mu, so only the g power moves.
        """
        shift = _G_SHIFT[src] - _G_SHIFT[dst]
        return GradedPoly._raw(
            {(ep, gp + shift * ep, i, j): n for (ep, gp, i, j), n in self.num.items()},
            self.den,
        )

    def truncate_ep(self, max_ep: int) -> "GradedPoly":
        return GradedPoly._reduced(
            {k: n for k, n in self.num.items() if k[0] <= max_ep}, self.den
        )

    def constant_part(self) -> "GradedPoly":
        return GradedPoly._reduced(
            {k: n for k, n in self.num.items() if k[2] == 0 and k[3] == 0}, self.den
        )

    def drop_constant(self) -> "GradedPoly":
        return GradedPoly._reduced(
            {k: n for k, n in self.num.items() if k[2] != 0 or k[3] != 0}, self.den
        )

    def subs(self, px: "GradedPoly", py: "GradedPoly", max_ep: int | None = None) -> "GradedPoly":
        """Substitute polynomials for x and y, keeping the grading factors.

        The powers of ``px`` and ``py`` are built for this call, truncated
        above ``max_ep``.  The terms n*px^i*py^j, with px^i shifted by the
        term's grading and put over ``self.den``, are one `sum_of_products`.
        """

        def powers(p: "GradedPoly", n: int) -> list:
            out = [GradedPoly._raw({(0, 0, 0, 0): 1}, 1)]
            for _ in range(n):
                out.append(out[-1].mul(p, max_ep))
            return out

        xs = powers(px, max((k[2] for k in self.num), default=0))
        ys = powers(py, max((k[3] for k in self.num), default=0))
        den = self.den
        return sum_of_products(
            (
                (n, GradedPoly._raw(xs[i].shift(ep, gp).num, xs[i].den * den), ys[j])
                for (ep, gp, i, j), n in self.num.items()
            ),
            max_ep,
        )

    def evaluate(self, g: float, param_value: float) -> float:
        """The float value at the origin x = y = 0: the flat terms
        c * g^gp * param^ep summed in key order."""
        # n / den is the correctly rounded float of the coefficient
        den = self.den
        total = 0.0
        for (ep, gp, i, j), n in self.num.items():
            if not (i or j):
                total += n / den * g**gp * param_value**ep
        return total

    def sorted_terms(self):
        return sorted(self.terms.items())

    def show(self, sym: str = "p") -> str:
        """Canonical text form, with ``sym`` naming the parameter."""
        if not self.num:
            return "0"
        parts = []
        for (ep, gp, i, j), c in self.sorted_terms():
            factors = [str(c)]
            if ep:
                factors.append(f"{sym}^{ep}")
            if gp:
                factors.append(f"g^{gp}")
            if i:
                factors.append(f"x^{i}")
            if j:
                factors.append(f"y^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.show()

    def __repr__(self) -> str:
        return f"GradedPoly({self})"


def gradient(p: GradedPoly) -> tuple[GradedPoly, GradedPoly]:
    """The x and y derivatives."""
    return p.diff("x"), p.diff("y")


def sum_of_products(terms, max_ep: int | None = None) -> GradedPoly:
    """Sum of c*a*b over the triples (c, a, b) of ``terms``, each product and
    each lone term cut above ``max_ep`` in the parameter.

    ``c`` is an int or a Fraction, ``a`` a GradedPoly and ``b`` a GradedPoly,
    or None for the term c*a.  A term with a zero factor is skipped.  The
    rest go over one common denominator, the lcm of their c.den*a.den*b.den.
    Each product is formed in integers and then scaled to that denominator
    key by key, not pair by pair, since the scale factor can be wide at high
    order; all terms are accumulated into one dict of integer numerators,
    cancelled keys are dropped and the sum is reduced once.
    """
    live = []
    for c, a, b in terms:
        if not c or not a.num or (b is not None and not b.num):
            continue
        den = c.denominator * a.den
        if b is not None:
            den *= b.den
        live.append((c.numerator, den, a.num, b))
    if not live:
        return GradedPoly.zero()
    common = lcm(*(den for _, den, _, _ in live))
    out: dict[tuple[int, int, int, int], int] = {}
    get = out.get
    for top, den, a, b in live:
        if b is not None:
            items = _raw_product(a, b.num, max_ep).items()
        else:
            items = a.items() if max_ep is None else _cut(a, max_ep)
        scale = top * (common // den)
        for key, n in items:
            out[key] = get(key, 0) + n * scale
    return GradedPoly._reduced({k: n for k, n in out.items() if n}, common)


def _accumulate(out: dict, items) -> None:
    """Add (key, nonzero number) pairs with distinct keys into ``out``.

    A key whose sum cancels is removed, and a new key is appended after the
    keys of ``out``: the order ``+`` promises.
    """
    get = out.get
    for key, coef in items:
        prev = get(key)
        if prev is None:
            out[key] = coef
        else:
            coef = prev + coef
            if coef:
                out[key] = coef
            else:
                del out[key]


def _cut(num: dict, max_ep: int) -> list:
    """The (key, numerator) pairs of ``num`` at parameter order ``max_ep`` or below."""
    return [t for t in num.items() if t[0][0] <= max_ep]


def _raw_product(a: dict, b: dict, max_ep: int | None) -> dict:
    """Product of two numerator dicts, truncated above ``max_ep``; a sum
    that cancels stays in as a zero."""
    out: dict[tuple[int, int, int, int], int] = {}
    get = out.get
    rows: dict[int, list] = {}  # b cut to what each parameter power of a allows
    for (ea, ga, ia, ja), na in a.items():
        row = rows.get(ea)
        if row is None:
            row = rows[ea] = b.items() if max_ep is None else _cut(b, max_ep - ea)
        for (eb, gb, ib, jb), nb in row:
            key = (ea + eb, ga + gb, ia + ib, ja + jb)
            out[key] = get(key, 0) + na * nb
    return out


def _scale_terms(p: GradedPoly, factors: dict) -> GradedPoly:
    """The terms of ``p`` at the keys of ``factors``, each multiplied by its
    factor, given as an integer pair (top, bottom) with ``bottom`` nonzero."""
    den = lcm(*(bottom for _, bottom in factors.values()))
    num = p.num
    return GradedPoly._reduced(
        {k: num[k] * top * (den // bottom) for k, (top, bottom) in factors.items()},
        p.den * den,
    )


def _ratio_parts(b) -> tuple[int, int]:
    """Numerator and denominator of the ratio ``b``, a Fraction or anything
    ``Fraction()`` accepts; a Fraction is read as it is, not rebuilt."""
    if not isinstance(b, Fraction):
        b = Fraction(b)
    return b.numerator, b.denominator


def flow_derivative(p: GradedPoly, b) -> GradedPoly:
    """Apply the flow operator x d/dx + b y d/dy.

    Each monomial x^i y^j is an eigenvector with eigenvalue i + j*b.  Read in
    the trajectory amplitudes X = cx e^t, Y = cy e^(bt), this is d/dt.
    """
    top, q = _ratio_parts(b)
    factors = {}
    for k in p.num:
        rate = k[2] * q + k[3] * top  # q times the eigenvalue i + j*b
        if rate:
            factors[k] = (rate, q)
    return _scale_terms(p, factors)


def integrate_to_T(p: GradedPoly, b) -> GradedPoly:
    """Invert the flow operator: divide each monomial x^i y^j by i + j*b.

    In the trajectory amplitudes this integrates from t = -inf up to the
    endpoint time T, since every exponent i + j*b of a non-flat monomial is
    positive.  A flat term has eigenvalue zero and no decaying primitive; it
    signals a missing energy subtraction upstream and raises SingularInverse.
    """
    top, q = _ratio_parts(b)
    factors = {}
    for k in p.num:
        if k[2] == 0 and k[3] == 0:
            raise SingularInverse("flat term has flow eigenvalue zero")
        factors[k] = (q, k[2] * q + k[3] * top)
    return _scale_terms(p, factors)


def restrict_to_trajectory(p: GradedPoly, traj: "Trajectory") -> GradedPoly:
    """Substitute the trajectory for (x, y), truncating above ``traj.order``
    in the perturbation parameter.  The result is a polynomial in the
    trajectory amplitudes X and Y."""
    return p.subs(traj.x, traj.y, traj.order)


def evaluate_at_endpoint(p: GradedPoly, traj: "Trajectory") -> GradedPoly:
    """Set t = T and replace the amplitudes by the endpoint series.

    At t = T the amplitudes X and Y are the solved series ``traj.cx`` and
    ``traj.cy`` in the endpoint coordinates, so the result is a polynomial
    in the endpoint coordinates, returned in the (x, y) variables, truncated
    above ``traj.order``.
    """
    if traj.cx is None or traj.cy is None:
        raise ValueError("trajectory endpoint constants not solved")
    return p.subs(traj.cx, traj.cy, traj.order)
