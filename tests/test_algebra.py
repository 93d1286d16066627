"""Ring laws and grading bookkeeping of the exact polynomial algebra."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadosc import GradedPoly, SingularInverse
from quadosc.algebra import dot, flow_derivative, gradient, integrate_to_T
from quadosc.hierarchy import slice_level
from quadosc.perturbation import _exp_series, _series_inverse, _truncate_g_depth

from helpers import laplacian, series_log, slot

coeffs = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=8
).filter(bool)
keys = st.tuples(
    st.integers(0, 2), st.integers(-3, 1), st.integers(0, 4), st.integers(0, 4)
)
polys = st.dictionaries(keys, coeffs, max_size=5).map(GradedPoly)


@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys, polys, polys)
def test_addition_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys)
def test_zero_and_negation(p):
    zero = GradedPoly.zero()
    assert p + zero == p
    assert p - p == zero
    assert -(-p) == p
    assert 1 - p == GradedPoly.const(1) + (-p)


@given(polys, polys)
def test_multiplication_commutes(p, q):
    assert p.mul(q) == q.mul(p)


@given(polys, polys, polys)
def test_multiplication_associates(p, q, r):
    assert p.mul(q).mul(r) == p.mul(q.mul(r))


@given(polys, polys, polys)
def test_distributive_law(p, q, r):
    assert p.mul(q + r) == p.mul(q) + p.mul(r)


@given(polys)
def test_one_is_identity(p):
    assert p.mul(GradedPoly.const(1)) == p


@given(polys, polys)
def test_truncated_product_agrees_with_full(p, q):
    cap = 2
    full = p.mul(q)
    capped = p.mul(q, max_ep=cap)
    assert capped == full.truncate_ep(cap)


@given(polys, polys)
def test_derivative_product_rule(p, q):
    pq = p.mul(q)
    for var in ("x", "y"):
        assert pq.diff(var) == p.diff(var).mul(q) + p.mul(q.diff(var))


def test_unknown_variable_is_rejected():
    p = GradedPoly.mono(3, i=2, j=1)
    for name in ("z", "X", ""):
        with pytest.raises(ValueError, match="unknown variable"):
            p.diff(name)
        with pytest.raises(ValueError, match="unknown variable"):
            GradedPoly.variable(name)
    with pytest.raises(ValueError, match="unknown variable"):
        GradedPoly.zero().diff("z")


@given(polys)
def test_laplacian_is_sum_of_second_derivatives(p):
    assert laplacian(p) == p.diff("x").diff("x") + p.diff("y").diff("y")


@given(polys, polys)
def test_gradient_dot_symmetry(p, q):
    assert dot(gradient(p), gradient(q)) == dot(gradient(q), gradient(p))


@given(polys)
def test_constant_split_partitions(p):
    assert p.constant_part() + p.drop_constant() == p
    assert all(i == j == 0 for (_, _, i, j) in p.constant_part().num)


@given(polys, st.integers(0, 2))
def test_truncation_idempotent(p, cap):
    t = p.truncate_ep(cap)
    assert t.truncate_ep(cap) == t
    assert all(ep <= cap for (ep, _, _, _) in t.num)


@given(polys)
def test_shift_roundtrip(p):
    assert p.shift(ep=1, gp=-2).shift(ep=-1, gp=2) == p


@given(polys)
def test_regrade_roundtrip(p):
    assert p.regrade("mu", "eps").regrade("eps", "mu") == p
    assert p.regrade("mu", "lambda").regrade("lambda", "mu") == p
    assert p.regrade("eps", "eps") == p


@given(polys)
def test_regrade_moves_g_power_by_parameter_order(p):
    moved = p.regrade("mu", "eps")
    for (ep, gp, i, j), c in p.terms.items():
        assert moved.terms[(ep, gp - 2 * ep, i, j)] == c


def test_regrade_rejects_unknown_flavor():
    with pytest.raises(KeyError):
        GradedPoly.mono(1, i=2).regrade("mu", "nu")


@given(polys, st.integers(0, 3), st.integers(0, 3))
def test_coefficient_extraction(p, i, j):
    c = slot(p, i, j)
    for (ep, gp, ci, cj), v in c.terms.items():
        assert (ci, cj) == (0, 0)
        assert p.terms[(ep, gp, i, j)] == v


# ------------------------------------------------- truncated power series

# remainders q whose every term carries the parameter, so 1 + q is a unit
unit_tails = st.dictionaries(
    st.tuples(st.integers(1, 2), st.integers(-2, 1), st.integers(0, 3), st.integers(0, 3)),
    coeffs,
    max_size=3,
).map(GradedPoly)


@settings(deadline=None)
@given(unit_tails, st.integers(1, 3))
def test_series_inverse_and_log_invert(q, order):
    p = q + 1
    assert p.mul(_series_inverse(p, order), order) == GradedPoly.const(1)
    assert _exp_series(series_log(p, order), order) == p.truncate_ep(order)


def test_series_argument_must_carry_the_parameter():
    with pytest.raises(ValueError):
        _series_inverse(GradedPoly.const(2), 2)
    with pytest.raises(ValueError):
        _exp_series(GradedPoly.mono(1, i=2), 2)


@given(polys, polys)
def test_evaluation_is_a_ring_morphism(p, q):
    point = (2.0, 0.5, 0.7, -1.3)
    lhs = p.mul(q).evaluate(*point)
    rhs = p.evaluate(*point) * q.evaluate(*point)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_substitution_matches_composition():
    p = GradedPoly.mono(1, i=2) + GradedPoly.mono(Fraction(1, 3), i=1, j=1)
    px = GradedPoly.mono(1, i=1) + GradedPoly.mono(1, i=0, j=2, ep=1)
    py = GradedPoly.variable("y")
    composed = p.subs(px, py)
    for pt in [(1.0, 0.5, 0.3, 0.9), (1.0, 0.2, -1.1, 0.4)]:
        g, mu, x, y = pt
        inner_x = px.evaluate(g, mu, x, y)
        want = inner_x**2 + inner_x * y / 3
        assert composed.evaluate(g, mu, x, y) == pytest.approx(want, rel=1e-12)


def test_string_form_is_order_independent():
    a = GradedPoly({(0, 0, 2, 0): Fraction(1), (1, -1, 0, 2): Fraction(-2, 3)})
    b = GradedPoly({(1, -1, 0, 2): Fraction(-2, 3), (0, 0, 2, 0): Fraction(1)})
    assert str(a) == str(b) == "1*x^2 + -2/3*p^1*g^-1*y^2"
    assert a.show("mu") == "1*x^2 + -2/3*mu^1*g^-1*y^2"
    assert a.sorted_terms() == sorted(a.terms.items())


def test_power_matches_repeated_multiplication():
    p = GradedPoly.mono(1, i=1) + GradedPoly.mono(2, j=1, ep=1)
    assert p**3 == p.mul(p).mul(p)
    assert p**0 == GradedPoly.const(1)


# ------------------------------------------------------------ flow-time sums

ratios = st.fractions(min_value=Fraction(1, 7), max_value=Fraction(7), max_denominator=9)


def exp_sum() -> GradedPoly:
    """X + X Y^2 / 12 in the amplitudes X = cx e^t, Y = cy e^(bt)."""
    return GradedPoly({(0, 0, 1, 0): Fraction(1), (1, 0, 1, 2): Fraction(1, 12)})


def test_exp_sum_time_derivative():
    dz = flow_derivative(exp_sum(), Fraction(2))
    # d/dt of X^p Y^q = amp * e^((p + q b) t) multiplies by p + q b
    assert dz.terms[(0, 0, 1, 0)] == 1
    assert dz.terms[(1, 0, 1, 2)] == Fraction(1, 12) * (1 + 2 * Fraction(2))


@settings(deadline=None)
@given(polys, polys, ratios)
def test_exp_sum_product_rule(p, q, b):
    """d/dt, the flow operator, is a derivation for every rational b."""
    dp, dq = flow_derivative(p, b), flow_derivative(q, b)
    assert flow_derivative(p.mul(q), b) == dp.mul(q) + p.mul(dq)


def test_exp_sum_constant_split():
    z = exp_sum() + GradedPoly({(0, -1, 0, 0): Fraction(5)})
    const = z.constant_part()
    assert set(const.terms) == {(0, -1, 0, 0)}
    assert z.drop_constant() + const == z
    # a flat term has no decaying primitive
    with pytest.raises(SingularInverse):
        integrate_to_T(z, Fraction(2))
    assert integrate_to_T(z.drop_constant(), Fraction(2)).terms == {
        (0, 0, 1, 0): Fraction(1),
        (1, 0, 1, 2): Fraction(1, 60),
    }


def test_exp_sum_order_slice():
    z = exp_sum()
    assert set((z - z.truncate_ep(0)).terms) == {(1, 0, 1, 2)}
    assert z.truncate_ep(0) == GradedPoly.variable("x")


@settings(deadline=None)
@given(polys, ratios)
def test_integrate_to_T_inverts_the_flow_derivative(p, b):
    p = p.drop_constant()
    assert integrate_to_T(flow_derivative(p, b), b) == p
    assert flow_derivative(integrate_to_T(p, b), b) == p


# ------------------------------------------------------- stored-term invariant

# few coefficient values and low degrees, so sums and products often cancel
unit_coeffs = st.sampled_from([Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1)])
small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(-1, 1), st.integers(0, 2), st.integers(0, 2)),
    unit_coeffs,
    max_size=3,
).map(GradedPoly)


def assert_canonical(p: GradedPoly):
    """Nonzero int numerators over a positive int denominator, with no common
    factor; zero is stored over 1."""
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n != 0 for n in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    if not p.num:
        assert p.den == 1


def assert_clean(p: GradedPoly):
    """Only nonzero Fractions, under keys with non-negative x and y exponents,
    viewing a canonical stored form key for key."""
    assert_canonical(p)
    assert list(p.terms) == list(p.num)
    for key, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert c == Fraction(p.num[key], p.den)
        assert len(key) == 4 and all(type(k) is int for k in key)
        assert key[2] >= 0 and key[3] >= 0


def operation_results(p, q, r, cap, b) -> list[GradedPoly]:
    """One result of every operation, cancelling ones included."""
    return [
        p + q,
        p - q,
        p + (-p),
        p - p,
        (p + q) - q,
        p.mul(q, cap),
        p.mul(q) - q.mul(p),
        p.mul(q + r, cap) - p.mul(r, cap),
        p.subs(q, r, cap),
        p.subs(q, r, cap) - p.subs(q, r, cap),
        p.shift(ep=1, gp=-2),
        p.regrade("mu", "eps"),
        integrate_to_T(p.drop_constant(), b),
        flow_derivative(p, b),
        p * 0,
        p * Fraction(-3, 2),
        p * 4,
        p / 6,
        -p,
        p.diff("x"),
        p.diff("y"),
        p.truncate_ep(cap),
        p.constant_part(),
        p.drop_constant(),
        slot(p, 1, 0),
        slice_level(p, 0),
        _truncate_g_depth(p, 0),
        GradedPoly.zero(),
    ]


def fraction_sum(pairs) -> GradedPoly:
    """(key, Fraction) pairs summed key by key in plain Fraction arithmetic."""
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return GradedPoly(out)


def plain_product(p: GradedPoly, q: GradedPoly, cap: int) -> GradedPoly:
    """The product truncated above ``cap``, one Fraction product per pair of terms."""
    return fraction_sum(
        ((ea + eb, ga + gb, ia + ib, ja + jb), ca * cb)
        for (ea, ga, ia, ja), ca in p.terms.items()
        for (eb, gb, ib, jb), cb in q.terms.items()
        if ea + eb <= cap
    )


def plain_values(p, q, cap, b) -> list[tuple[GradedPoly, GradedPoly]]:
    """Each exact kernel's result beside its value summed term by term."""
    ps, qs = p.terms.items(), q.terms.items()
    rate = {k: k[2] + k[3] * b for k in p.terms}
    return [
        (p + q, fraction_sum([*ps, *qs])),
        (p - q, fraction_sum([*ps, *((k, -c) for k, c in qs)])),
        (-p, fraction_sum((k, -c) for k, c in ps)),
        (p * Fraction(-3, 2), fraction_sum((k, c * Fraction(-3, 2)) for k, c in ps)),
        (p.mul(q, cap), plain_product(p, q, cap)),
        (p.diff("x"), fraction_sum(((e, g, i - 1, j), c * i) for (e, g, i, j), c in ps if i)),
        (p.diff("y"), fraction_sum(((e, g, i, j - 1), c * j) for (e, g, i, j), c in ps if j)),
        (flow_derivative(p, b), fraction_sum((k, c * rate[k]) for k, c in ps)),
        (integrate_to_T(p.drop_constant(), b), fraction_sum((k, c / rate[k]) for k, c in ps if rate[k])),
    ]


@settings(deadline=None)
@given(small_polys, small_polys, small_polys, st.integers(0, 3), ratios)
def test_operations_store_clean_terms(p, q, r, cap, b):
    for out in operation_results(p, q, r, cap, b):
        assert_clean(out)
    assert not p + (-p) and not p.mul(q) - q.mul(p)
    # values only: a kernel's key order reaches no output
    for got, want in plain_values(p, q, cap, b) + plain_values(p.mul(q) - q, r, cap, b):
        assert got == want


@settings(deadline=None)
@given(small_polys, small_polys, small_polys, st.integers(0, 3), ratios)
def test_stored_form_is_canonical(p, q, r, cap, b):
    for out in operation_results(p, q, r, cap, b):
        assert_canonical(out)
        # the same terms in the opposite key order make an equal value
        backwards = GradedPoly(dict(reversed(out.terms.items())))
        assert backwards == out
        assert_canonical(backwards)
        with pytest.raises(TypeError):
            out.terms[(0, 0, 0, 0)] = Fraction(1)


def naive_subs(p: GradedPoly, px: GradedPoly, py: GradedPoly, cap: int | None) -> GradedPoly:
    """Sum of c * param^ep * g^gp * px^i * py^j by repeated multiplication,
    truncated above ``cap`` unless it is None."""
    out = GradedPoly.zero()
    for (ep, gp, i, j), c in p.terms.items():
        prod = GradedPoly.const(1)
        for _ in range(i):
            prod = prod.mul(px)
        for _ in range(j):
            prod = prod.mul(py)
        out = out + prod.shift(ep=ep, gp=gp) * c
    return out if cap is None else out.truncate_ep(cap)


# monomials repeated at several parameter orders, each cut at its own order
stacked_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.just(0), st.integers(0, 1), st.integers(0, 2)),
    unit_coeffs,
    max_size=4,
).map(GradedPoly)


@settings(deadline=None)
@given(stacked_polys, small_polys, small_polys, st.integers(0, 3))
def test_substitution_matches_repeated_multiplication(p, px, py, cap):
    assert p.subs(px, py, cap) == naive_subs(p, px, py, cap)
    assert p.subs(px, py) == naive_subs(p, px, py, None)


def test_mul_and_subs_build_no_fraction(monkeypatch):
    p = GradedPoly({(0, 0, 2, 1): Fraction(1, 3), (1, -1, 0, 2): Fraction(-2, 5)})
    q = GradedPoly({(0, 0, 1, 0): Fraction(3, 4), (1, 0, 0, 1): Fraction(1, 6)})
    want_mul, want_subs = plain_product(p, q, 1), naive_subs(p, q, p, 2)

    def no_fraction(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr("quadosc.algebra.Fraction", no_fraction)
    got_mul, got_subs = p.mul(q, 1), p.subs(q, p, 2)
    monkeypatch.undo()
    assert got_mul == want_mul and got_subs == want_subs
