"""Series engine: arithmetic, inversion, exp/log, exact division, Bernoulli.

Oracles used here and nowhere in the implementation:
  * Mercator series for log(1 - xT),
  * the Pascal-recurrence Bernoulli numbers (sum_j C(n+1,j) B_j = 0) over
    every j, where the engine's table sums B_1 and the even j alone,
  * the von Staudt-Clausen theorem over a plain sieve of primes,
  * the brute-force double sum for products of Laurent-tailed series,
  * schoolbook Fraction products of polynomial coefficients, folded into the
    plain product, inverse and division recurrences,
  * binom(±m, k) from math.comb at integer points m.
"""

import operator
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from tatecalc.errors import (
    CapabilityError,
    DomainError,
    InexactDivisionError,
    NotInvertibleError,
    PrecisionError,
    RingMismatchError,
    VariableMismatchError,
)
from tatecalc import series
from tatecalc.basis import NumericalPoly
from tatecalc.laurent import LaurentPoly, render_terms, var_power
from tatecalc.multipoly import MultiPoly
from tatecalc.series import (
    QQ,
    ZZ,
    TruncSeries,
    bernoulli_minus,
    bernoulli_number,
    geometric_series,
    laurent_coeff_ring,
    monomial_coords,
    poly_ring,
)
from tatecalc.expansions import Puncture, expand
from tatecalc.tate_k import TateKElem, binomial_poly_series


def qq(low, coeffs, order=None):
    return TruncSeries.from_coeffs(QQ, low, [Fraction(c) for c in coeffs], order=order)


# -- oracle: Pascal-recurrence Bernoulli numbers ------------------------------------


def bernoulli_oracle(n_max: int) -> list[Fraction]:
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        s = sum(comb(n + 1, j) * out[j] for j in range(n))
        out.append(Fraction(-s, n + 1))
    return out


# -- arithmetic ---------------------------------------------------------------------


def test_trivial_products():
    one_plus = qq(0, [1, 1], order=8)
    one_minus = qq(0, [1, -1], order=8)
    prod = one_plus * one_minus
    assert prod.coeff(0) == 1 and prod.coeff(1) == 0 and prod.coeff(2) == -1

    geo = geometric_series(QQ, Fraction(1), 12)
    assert (geo * qq(0, [1, -1], order=12)).is_one_series()

    t = qq(1, [1], order=6)
    tinv = qq(-1, [1], order=6)
    assert (t * tinv).is_one_series()


def test_ring_mismatch_is_typed():
    with pytest.raises(RingMismatchError):
        qq(0, [1]) + TruncSeries.one(poly_ring("x"), 0)


def test_series_in_different_variables_do_not_combine():
    # q expanded at 0 is a series in q, at infinity one in s, both over ZZ;
    # combined, the s-series' coordinates would be read as q's
    q = TateKElem(LaurentPoly("q", {1: 1}))
    at_zero, at_inf = expand(q, Puncture.ZERO, 4), expand(q, Puncture.INFINITY, 4)
    for op in (operator.add, operator.mul, TruncSeries.agrees_with, TruncSeries.div_exact):
        with pytest.raises(VariableMismatchError, match="^cannot combine series in q and s$"):
            op(at_zero, at_inf)
    same = (ZZ, at_zero.low, at_zero.order, at_zero.coeffs)
    assert at_zero == TruncSeries(*same, "q") and at_zero != TruncSeries(*same, "u")


def test_reliable_order_propagation():
    a = qq(0, [1, 2, 3], order=5)
    b = qq(0, [1, 1], order=3)
    assert (a + b).order == 3
    assert (a * b).order == 3
    # a Laurent tail shifts the product's reliable window
    c = qq(-2, [1], order=4)
    assert (a * c).order == 3  # min(5 + (-2), 4 + 0)
    assert (a * c).low == -2


def test_coefficient_access_contract():
    a = qq(0, [1, 2], order=1)
    assert a.coeff(-5) == 0
    with pytest.raises(PrecisionError):
        a.coeff(2)
    with pytest.raises(PrecisionError):
        a.truncated(3)


# -- inversion -----------------------------------------------------------------------


def test_geometric_inverse():
    geo = geometric_series(QQ, Fraction(1), 10)
    assert all(geo.coeff(k) == 1 for k in range(11))


def test_inverse_multiply_back_random_qq():
    rng = random.Random(5)
    for _ in range(100):
        low = rng.randint(-3, 2)
        n = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = Fraction(1)
        s = TruncSeries.from_coeffs(QQ, low, coeffs)
        if s.valuation() is None:
            continue
        inv = s.inverse()
        assert (s * inv).is_one_series()


def test_inverse_multiply_back_random_polyring():
    rng = random.Random(6)
    ring = poly_ring("x")
    x = MultiPoly.var(("x",), "x")
    for _ in range(100):
        # unit leading coefficient, polynomial higher coefficients
        lead = MultiPoly.const(("x",), Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 3)))
        n = rng.randint(1, 6)
        coeffs = [lead] + [
            x * rng.randint(-3, 3) + rng.randint(-3, 3) for _ in range(n)
        ]
        s = TruncSeries.from_coeffs(ring, rng.randint(-2, 1), coeffs)
        inv = s.inverse()
        assert (s * inv).is_one_series()


def test_inverse_needs_invertible_lead():
    ring = poly_ring("x")
    x = MultiPoly.var(("x",), "x")
    s = TruncSeries.from_coeffs(ring, 0, [x], order=4)
    with pytest.raises(NotInvertibleError):
        s.inverse()
    with pytest.raises(NotInvertibleError):
        TruncSeries.zero(QQ, 4).inverse()


# -- exp / log --------------------------------------------------------------------------


def test_exp_bT_coefficients():
    ring = poly_ring("b")
    b = MultiPoly.var(("b",), "b")
    e = TruncSeries.from_coeffs(ring, 1, [b], order=10).exp()
    for k in range(11):
        assert e.coeff(k) == MultiPoly(("b",), {(k,): Fraction(1, factorial(k))})


def test_monomial_coords_reads_one_integer_per_power_or_none():
    c_ring, b_ring = laurent_coeff_ring("c"), laurent_coeff_ring("b")
    c = lambda coeffs: LaurentPoly("c", coeffs)
    b = lambda coeffs: LaurentPoly("b", coeffs)
    s = TruncSeries.from_coeffs(c_ring, -1, [c({1: 4}), c({0: 2}), c({-1: Fraction(1, 2)}),
                                             c({-2: 3, 0: 1}), c_ring.zero])
    assert monomial_coords(s, -1) == [4, 2, None, None, 0]
    e = TruncSeries.from_coeffs(b_ring, 0, [b_ring.zero, b({1: 1})], order=6).exp()
    assert monomial_coords(e, 1, divided=True) == [1] * 7  # b^k/k! = b_k
    s = TruncSeries.from_coeffs(b_ring, 0, [b({0: 3}), b({1: Fraction(1, 2)}),
                                            b({2: Fraction(1, 2)}), b({2: 1, 1: 1})])
    assert monomial_coords(s, 1, divided=True) == [3, None, 1, None]
    assert monomial_coords(s, 1) == [3, None, None, None]


def test_log_one_minus_is_mercator():
    ring = poly_ring("x")
    x = MultiPoly.var(("x",), "x")
    s = TruncSeries.from_coeffs(ring, 0, [ring.one, -x], order=12).log()
    for k in range(1, 13):
        assert s.coeff(k) == MultiPoly(("x",), {(k,): Fraction(-1, k)})
    assert s.coeff(0) == ring.zero


# the kernel's exp/log run over Q[x] for the evaluator and over Q[x^±1] for
# the engine's own one-variable series
EXP_LOG_RINGS = pytest.mark.parametrize("ring,x", [
    (poly_ring("x"), MultiPoly.var(("x",), "x")),
    (laurent_coeff_ring("x"), LaurentPoly("x", {1: 1})),
], ids=["QQ[x]", "QQ[x^±1]"])


@EXP_LOG_RINGS
def test_exp_log_round_trips_order_24(ring, x):
    rng = random.Random(9)
    for _ in range(10):
        tail = TruncSeries.from_coeffs(
            ring,
            1,
            [x * rng.randint(-2, 2) + rng.randint(-2, 2) for _ in range(6)],
            order=24,
        )
        assert tail.exp().log().agrees_with(tail)
        one_plus = TruncSeries.one(ring, 24) + tail
        assert one_plus.log().exp().agrees_with(one_plus)


@EXP_LOG_RINGS
def test_exp_is_homomorphism_order_16(ring, x):
    rng = random.Random(10)
    for _ in range(10):
        a = TruncSeries.from_coeffs(ring, 1, [x * rng.randint(-2, 2), ring.one * rng.randint(-2, 2)], order=16)
        b = TruncSeries.from_coeffs(ring, 1, [ring.one * rng.randint(-2, 2), x * rng.randint(-2, 2)], order=16)
        assert (a + b).exp().agrees_with(a.exp() * b.exp())


def test_exp_log_preconditions():
    with pytest.raises(DomainError):
        qq(0, [1, 1], order=4).exp()  # nonzero constant term
    with pytest.raises(DomainError):
        qq(-1, [1, 0, 1], order=4).exp()  # Laurent tail
    with pytest.raises(DomainError):
        qq(0, [2, 1], order=4).log()  # constant term != 1
    with pytest.raises(CapabilityError):
        TruncSeries.from_coeffs(ZZ, 1, [1], order=4).exp()  # integer-restricted ring
    ring = laurent_coeff_ring("q", integral=True)
    with pytest.raises(CapabilityError):
        TruncSeries.from_coeffs(ring, 1, [LaurentPoly("q", {1: 1})], order=4).log()


def test_exp_zero_is_one():
    assert TruncSeries.zero(QQ, 6).exp().is_one_series()


def test_exp_over_rational_laurent_ring():
    # exp(b^-1 T) = sum_k b^-k T^k / k!: the division by k must be over Q
    ring = laurent_coeff_ring("b")
    x = TruncSeries.from_coeffs(ring, 1, [LaurentPoly("b", {-1: 1})], order=6)
    expected = [LaurentPoly("b", {-k: Fraction(1, factorial(k))}) for k in range(7)]
    assert x.exp() == TruncSeries(ring, 0, 6, expected)


def test_exp_over_integral_laurent_ring_is_a_capability_error():
    ring = laurent_coeff_ring("c", integral=True)
    with pytest.raises(CapabilityError):
        TruncSeries.from_coeffs(ring, 1, [LaurentPoly("c", {-1: 1})], order=3).exp()


# -- division ---------------------------------------------------------------------------


def test_div_exact_multiply_back():
    rng = random.Random(12)
    for _ in range(50):
        b = TruncSeries.from_coeffs(
            QQ, rng.randint(-2, 1),
            [Fraction(rng.choice([1, -1, 2])), Fraction(rng.randint(-4, 4))],
            order=rng.randint(4, 10),
        )
        q_true = TruncSeries.from_coeffs(
            QQ, rng.randint(-2, 2),
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)],
            order=b.order + 4,
        )
        a = b * q_true
        q = a.div_exact(b)
        assert q.agrees_with(q_true)


# -- kernel index arithmetic -------------------------------------------------------------

_VALUES = {
    "ZZ": st.integers(-4, 4),
    "QQ": st.fractions(-4, 4, max_denominator=3),
}


@st.composite
def sparse_series(draw, ring, min_zeros=0, lead=None):
    """A mostly-zero series over ZZ or QQ whose window often starts below 0,
    opening with `min_zeros` or more zero coefficients, then `lead` if given."""
    values = _VALUES[ring.name]
    low = draw(st.integers(-4, 3))
    head = [0] * draw(st.integers(min_zeros, 3))
    if lead is not None:
        head.append(draw(lead))
    body = draw(st.lists(st.one_of(st.just(0), values), min_size=0 if head else 1, max_size=8))
    return TruncSeries.from_coeffs(ring, low, [ring.zero + c for c in head + body])


def _nonzero(ring):
    return st.sampled_from([1, -1]) if ring is ZZ else _VALUES["QQ"].filter(bool)


RINGS = pytest.mark.parametrize("ring", [ZZ, QQ], ids=["ZZ", "QQ"])
KERNEL_SETTINGS = settings(max_examples=60, deadline=None)


@RINGS
@KERNEL_SETTINGS
@given(data=st.data())
def test_product_matches_double_sum(ring, data):
    a = data.draw(sparse_series(ring))
    b = data.draw(sparse_series(ring))
    low = a.low + b.low
    order = min(a.order + b.low, b.order + a.low)
    expected = [
        sum((a.coeff(i) * b.coeff(e - i) for i in range(a.low, a.order + 1)
             if b.low <= e - i <= b.order), ring.zero)
        for e in range(low, order + 1)
    ]
    prod = a * b
    assert (prod.low, prod.order) == (low, order)
    assert list(prod.coeffs) == expected


@RINGS
@KERNEL_SETTINGS
@given(data=st.data())
def test_times_inverse_is_one(ring, data):
    a = data.draw(sparse_series(ring, lead=_nonzero(ring)))
    prod = a * a.inverse()
    assert all(prod.coeff(k) == (1 if k == 0 else 0) for k in range(prod.low, prod.order + 1))


@KERNEL_SETTINGS
@given(data=st.data())
def test_exp_log_recovers_one_plus_x(data):
    x = data.draw(sparse_series(QQ))
    assume(x.order >= 0)
    # log needs constant term 1 and no Laurent tail: the window below T^1 keeps only zeros
    x = TruncSeries(QQ, x.low, x.order,
                    [c if k >= 1 else QQ.zero for k, c in enumerate(x.coeffs, x.low)])
    one_plus = TruncSeries.one(QQ, x.order) + x
    assert one_plus.log().exp().agrees_with(one_plus)


@RINGS
@KERNEL_SETTINGS
@given(data=st.data())
def test_div_exact_recovers_factor_past_divisor_zeros(ring, data):
    a = data.draw(sparse_series(ring))
    b = data.draw(sparse_series(ring, min_zeros=1, lead=_VALUES[ring.name].filter(bool)))
    assert b.valuation() > b.low
    q = (a * b).div_exact(b)
    assert q.agrees_with(a)


# -- fraction-free accumulation over polynomial coefficients -------------------------------

_FRAC = st.fractions(-3, 3, max_denominator=6).filter(bool)  # unlike denominators
_ACC_RINGS = {
    "QQ[x]": (poly_ring("x"), st.tuples(st.integers(0, 3))),
    "QQ[x,y]": (poly_ring("x", "y"), st.tuples(st.integers(0, 2), st.integers(0, 2))),
    "QQ[b^±1]": (laurent_coeff_ring("b"), st.integers(-3, 3)),  # negative exponents
}
ACC_RINGS = pytest.mark.parametrize("name", list(_ACC_RINGS))


def _element(ring, terms):
    zero = ring.zero
    if isinstance(zero, LaurentPoly):
        return LaurentPoly(zero.var, terms)
    return MultiPoly(zero.gens, terms)


def _omul(x, y):
    """Schoolbook product of two coefficients, one Fraction product per pair."""
    if isinstance(x, LaurentPoly):
        out = {}
        for ea, va in x.coeffs.items():
            for eb, vb in y.coeffs.items():
                out[ea + eb] = out.get(ea + eb, 0) + Fraction(va) * vb
        return LaurentPoly(x.var, out)
    out = {}
    for ea, va in x.terms.items():
        for eb, vb in y.terms.items():
            e = tuple(map(operator.add, ea, eb))
            out[e] = out.get(e, 0) + va * vb
    return MultiPoly(x.gens, out)


@st.composite
def coeff_series(draw, name, unit_lead=False):
    """A short series whose coefficients come from a pool {0, ±p1, ±p2}, so
    that sums of products cancel to zero often; with `unit_lead` it opens
    with a unit (a nonzero constant, or a monomial in the Laurent ring)."""
    ring, expos = _ACC_RINGS[name]
    pool = draw(st.lists(st.dictionaries(expos, _FRAC, min_size=1, max_size=3)
                         .map(lambda d: _element(ring, d)), min_size=1, max_size=2))
    coeffs = draw(st.lists(st.sampled_from([ring.zero] + pool + [-p for p in pool]),
                           min_size=1, max_size=6))
    if unit_lead:
        laurent = isinstance(ring.zero, LaurentPoly)
        expo = draw(expos) if laurent else (0,) * len(ring.zero.gens)
        coeffs.insert(0, _element(ring, {expo: draw(_FRAC)}))
    return TruncSeries.from_coeffs(ring, draw(st.integers(-2, 2)), coeffs)


def _fold(ring, products):
    total = ring.zero
    for x, y in products:
        total = total + _omul(x, y)
    return total


@ACC_RINGS
@KERNEL_SETTINGS
@given(data=st.data())
def test_accumulated_product_matches_schoolbook_fold(name, data):
    a = data.draw(coeff_series(name))
    b = data.draw(coeff_series(name))
    ring = a.ring
    prod = a * b
    assert (prod.low, prod.order) == (a.low + b.low, min(a.order + b.low, b.order + a.low))
    expected = [
        _fold(ring, [(a.coeff(i), b.coeff(e - i)) for i in range(a.low, a.order + 1)
                     if b.low <= e - i <= b.order])
        for e in range(prod.low, prod.order + 1)
    ]
    assert list(prod.coeffs) == expected


@ACC_RINGS
@KERNEL_SETTINGS
@given(data=st.data())
def test_accumulated_inverse_matches_schoolbook_recurrence(name, data):
    a = data.draw(coeff_series(name, unit_lead=True))
    ring = a.ring
    v = a.low
    lead_inv = ring.inv(a.coeff(v))
    # w_0 = 1, w_n = -sum_{k=1..n} (a_{v+k}/a_v) w_{n-k}; the inverse is w/a_v
    w = [ring.one]
    for n in range(1, a.order - v + 1):
        w.append(-_fold(ring, [(_omul(a.coeff(v + k), lead_inv), w[n - k])
                               for k in range(1, n + 1)]))
    inv = a.inverse()
    assert (inv.low, inv.order) == (-v, a.order - 2 * v)
    assert list(inv.coeffs) == [_omul(lead_inv, c) for c in w]


@ACC_RINGS
@KERNEL_SETTINGS
@given(data=st.data())
def test_accumulated_div_exact_matches_schoolbook_recurrence(name, data):
    a = data.draw(coeff_series(name))
    b = data.draw(coeff_series(name, unit_lead=True))
    ring = a.ring
    v = b.low
    lead_inv = ring.inv(b.coeff(v))
    low = a.low + b.low
    order = min(a.order + b.low, b.order + a.low)
    dividend = TruncSeries(ring, low, order, [
        _fold(ring, [(a.coeff(i), b.coeff(e - i)) for i in range(a.low, a.order + 1)
                     if b.low <= e - i <= b.order])
        for e in range(low, order + 1)
    ])
    q = dividend.div_exact(b)
    # q_n = (c_{n+v} - sum_{d>=1} q_{n-d} b_{v+d}) / b_v
    expected = []
    for n in range(q.low, q.order + 1):
        s = _fold(ring, [(expected[n - d - q.low], b.coeff(v + d))
                         for d in range(1, min(n - q.low, b.order - v) + 1)])
        expected.append(_omul(dividend.coeff(n + v) - s, lead_inv))
    assert list(q.coeffs) == expected
    assert q.agrees_with(a, through=q.order)


@pytest.mark.parametrize("name", ["QQ[x]", "QQ[x,y]", "QQ[b^±1]"])
def test_accumulated_sum_cancels_to_the_stored_zero(name):
    # (1 + pT)(1 - pT) = 1 - p^2 T^2, with p = x/2 + 1/3 (or b/2 + 1/3 ...)
    ring, _ = _ACC_RINGS[name]
    expo = 1 if name == "QQ[b^±1]" else (1,) * len(ring.zero.gens)
    zero_expo = 0 if name == "QQ[b^±1]" else (0,) * len(ring.zero.gens)
    p = _element(ring, {expo: Fraction(1, 2), zero_expo: Fraction(1, 3)})
    plus = TruncSeries.from_coeffs(ring, 0, [ring.one, p], order=2)
    minus = TruncSeries.from_coeffs(ring, 0, [ring.one, -p], order=2)
    prod = plus * minus
    assert prod.coeff(1) == ring.zero
    assert not (prod.coeff(1).coeffs if name == "QQ[b^±1]" else prod.coeff(1).terms)
    assert prod.coeff(2) == -_omul(p, p)


def test_inverse_over_integral_laurent_ring_stays_integral():
    ring = laurent_coeff_ring("q", integral=True)
    rng = random.Random(5)
    for _ in range(20):
        lead = LaurentPoly("q", {rng.randint(-3, 3): rng.choice([1, -1])})
        rest = [LaurentPoly("q", {rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(3)})
                for _ in range(8)]
        a = TruncSeries.from_coeffs(ring, rng.randint(-2, 2), [lead] + rest)
        inv = a.inverse()
        assert all(c.is_integral() for c in inv.coeffs)
        assert (a * inv).is_one_series()


# -- truncation consistency ----------------------------------------------------------------
#
# A kernel's coefficient through T^n reads only its inputs through T^n, so the
# result at order n is the order-N result truncated to n.  tate_h's corollary
# reads its per-order Bernoulli signs from one series on this property.


def _laurent_values(var, values):
    return st.dictionaries(st.integers(-2, 2), values, max_size=2).map(
        lambda d: LaurentPoly(var, d))


def _laurent_units(var, values):
    return st.tuples(st.integers(-2, 2), values.filter(bool)).map(
        lambda t: LaurentPoly(var, {t[0]: t[1]}))


_SMALL_Q = st.fractions(-2, 2, max_denominator=3)
_TRUNC_RINGS = {  # name: (ring, coefficient values, units)
    "ZZ": (ZZ, st.integers(-3, 3), st.sampled_from([1, -1])),
    "QQ": (QQ, _SMALL_Q, _SMALL_Q.filter(bool)),
    "QQ[b^±1]": (laurent_coeff_ring("b"), _laurent_values("b", _SMALL_Q),
                 _laurent_units("b", _SMALL_Q)),
    "ZZ[c^±1]": (laurent_coeff_ring("c", integral=True), _laurent_values("c", st.integers(-3, 3)),
                 _laurent_units("c", st.sampled_from([1, -1]))),
}
TRUNC_RINGS = pytest.mark.parametrize("name", list(_TRUNC_RINGS))


@st.composite
def order_n_series(draw, name, order, lead=None):
    """A series over T^0..T^order with a few nonzero coefficients, opening
    with `lead` when given (a strategy) and with zero otherwise."""
    ring, values, _ = _TRUNC_RINGS[name]
    coeffs = [ring.zero] * (order + 1)
    for k in draw(st.lists(st.integers(1, order), max_size=4)):
        coeffs[k] = ring.zero + draw(values)
    if lead is not None:
        coeffs[0] = draw(lead)
    return TruncSeries(ring, 0, order, coeffs)


def _agrees_through_n(short, long, n):
    assert short.order == n <= long.order
    lo = min(short.low, long.low)
    assert [short.coeff(k) for k in range(lo, n + 1)] == [long.coeff(k) for k in range(lo, n + 1)]


@TRUNC_RINGS
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernels_at_order_n_are_the_order_N_results_truncated(name, data):
    ring, values, units = _TRUNC_RINGS[name]
    big = data.draw(st.integers(1, 40))
    n = data.draw(st.integers(0, big - 1))
    a = data.draw(order_n_series(name, big, lead=values))
    b = data.draw(order_n_series(name, big, lead=values.filter(lambda v: v != 0)))
    u = data.draw(order_n_series(name, big, lead=units))
    cut = lambda s: s.truncated(n)  # noqa: E731
    _agrees_through_n(cut(a) * cut(b), a * b, n)
    _agrees_through_n(cut(u).inverse(), u.inverse(), n)
    product = a * b  # exactly divisible by b, also over the integers
    _agrees_through_n(cut(product).div_exact(cut(b)), product.div_exact(b), n)
    if ring.rational:
        x = data.draw(order_n_series(name, big))  # zero constant term
        _agrees_through_n(cut(x).exp(), x.exp(), n)
        one_plus = TruncSeries.one(ring, big) + x
        _agrees_through_n(cut(one_plus).log(), one_plus.log(), n)


@pytest.mark.parametrize("negate", [False, True])
def test_binomial_poly_series_is_binom_poly(negate):
    arg = LaurentPoly("beta", {1: -1 if negate else 1})

    def falling(k):
        # arg (arg - 1) ... (arg - k + 1) / k!, one product, one division
        out = LaurentPoly.one("beta")
        for i in range(k):
            out = out * (arg - i)
        return out * Fraction(1, factorial(k))

    for n in (0, 1, 7, 24):
        s = binomial_poly_series(n, negate)
        assert (s.low, s.order) == (0, n)
        assert list(s.coeffs) == [falling(k) for k in range(n + 1)]
    for k, c in enumerate(binomial_poly_series(24, negate).coeffs):
        # k + 1 integer points fix a polynomial of degree k
        for m in range(1, k + 2):
            want = (-1) ** k * comb(m + k - 1, k) if negate else comb(m, k)
            assert sum(v * m ** e for e, v in c.coeffs.items()) == want


# -- Bernoulli ---------------------------------------------------------------------------


def test_bernoulli_series_low_coefficients():
    s = bernoulli_minus(8)
    expected = [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 12),
        Fraction(0),
        Fraction(-1, 720),
    ]
    for n, c in enumerate(expected):
        assert s.coeff(n) == c


def test_bernoulli_numbers_match_pascal_oracle():
    oracle = bernoulli_oracle(24)
    s = bernoulli_minus(24)
    for n in range(25):
        assert s.coeff(n) * factorial(n) == oracle[n]
        assert bernoulli_number(n) == oracle[n]


def test_bernoulli_odd_vanishing():
    s = bernoulli_minus(25)
    assert all(s.coeff(n) == 0 for n in range(3, 26, 2))
    assert bernoulli_number(12) == Fraction(-691, 2730)


@pytest.fixture
def cold_table(monkeypatch):
    """bernoulli_number's table as a fresh process starts it, [B_0, B_1]."""
    monkeypatch.setattr(series, "_bernoulli", series._bernoulli[:2])


def test_bernoulli_numbers_equal_the_inverted_series_through_512(cold_table):
    # the recurrence and the inversion share no code: each is evidence for the other
    s = bernoulli_minus(512)
    fact = 1
    for n in range(513):
        assert bernoulli_number(n) == s.coeff(n) * fact, n
        fact *= n + 1


def test_a_cold_bernoulli_table_inverts_no_series(cold_table, monkeypatch):
    def refuse(self):
        raise AssertionError("bernoulli_number inverted a series")

    monkeypatch.setattr(TruncSeries, "inverse", refuse)
    assert bernoulli_number(40) == Fraction(-261082718496449122051, 13530)


def test_a_broken_bernoulli_minus_leaves_the_numbers_unchanged(cold_table, monkeypatch):
    # a wrong series, (1 - D)^-1, that writes nothing where bernoulli_number reads
    monkeypatch.setattr(series, "bernoulli_minus",
                        lambda order: geometric_series(QQ, Fraction(1), order))
    assert [bernoulli_number(n) for n in range(25)] == bernoulli_oracle(24)


def primes_up_to(n: int) -> list[int]:
    """The sieve of Eratosthenes."""
    is_prime = [False, False] + [True] * (n - 1)
    for p in range(2, int(n ** 0.5) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = [False] * len(range(p * p, n + 1, p))
    return [p for p, flag in enumerate(is_prime) if flag]


def von_staudt_clausen_failures(top: int) -> list[int]:
    """The even m in 2..top where B_m + sum of 1/p over primes p with (p-1) | m is
    not an integer; the theorem says there are none."""
    primes = primes_up_to(top + 1)
    sums = {m: bernoulli_number(m) + sum(Fraction(1, p) for p in primes if m % (p - 1) == 0)
            for m in range(2, top + 1, 2)}
    return [m for m, total in sums.items() if total.denominator != 1]


def test_von_staudt_clausen_at_every_even_index_through_512():
    assert von_staudt_clausen_failures(512) == []


def test_von_staudt_clausen_fails_on_one_seventh_added_to_b10(monkeypatch):
    bernoulli_number(512)
    table = list(series._bernoulli)
    table[10] += Fraction(1, 7)
    monkeypatch.setattr(series, "_bernoulli", table)
    assert von_staudt_clausen_failures(512) == [10]


# -- misc -----------------------------------------------------------------------------------


def test_trimmed_and_shifts():
    s = qq(-2, [0, 0, 1, 5], order=1)
    t = s.trimmed()
    assert t.low == 0 and t.coeff(0) == 1 and t.order == 1
    assert s.shifted(3).low == 1 and s.shifted(3).order == 4


def test_rendering_matches_conventions():
    s = qq(-1, [1, 0, Fraction(-1, 2)], order=1)
    assert str(s) == "T^-1 - 1/2*T"
    ring = laurent_coeff_ring("c", integral=True)
    g = geometric_series(ring, LaurentPoly("c", {-1: 1}), 2)
    assert str(g) == "1 + c^-1 T + c^-2 T^2"


# The coefficient's text -> what the term prints as, alone at x^0, alone at x,
# after x^-1 at x^0, and after x^-1 at x.
RENDERED = {
    "1": ("1", "x", "x^-1 + 1", "x^-1 + x"),
    "-1": ("-1", "-x", "x^-1 - 1", "x^-1 - x"),
    "2": ("2", "2*x", "x^-1 + 2", "x^-1 + 2*x"),
    "-3/2": ("-3/2", "-3/2*x", "x^-1 - 3/2", "x^-1 - 3/2*x"),
    "b": ("b", "b x", "x^-1 + b", "x^-1 + b x"),
    "-b": ("-b", "-b x", "x^-1 - b", "x^-1 - b x"),
    "1 + b": ("1 + b", "(1 + b) x", "x^-1 + 1 + b", "x^-1 + (1 + b) x"),
    "-1 - b": ("-1 - b", "(-1 - b) x", "x^-1 - 1 - b", "x^-1 + (-1 - b) x"),
}
_B_COEFFS = {"1": {0: 1}, "-1": {0: -1}, "-3/2": {0: Fraction(-3, 2)}, "b": {1: 1},
             "-b": {1: -1}, "1 + b": {0: 1, 1: 1}, "-1 - b": {0: -1, 1: -1}}
_NUMERICAL_COEFFS = {t: c for t, c in _B_COEFFS.items() if t != "-3/2"}  # integral


@pytest.mark.parametrize("ring, coeff, text", [
    *[(ZZ, v, t) for t, v in (("1", 1), ("-1", -1), ("2", 2))],
    *[(QQ, Fraction(v), t) for t, v in (("1", 1), ("-1", -1), ("-3/2", Fraction(-3, 2)))],
    *[(laurent_coeff_ring("b"), LaurentPoly("b", c), t) for t, c in _B_COEFFS.items()],
    *[(poly_ring("b"), MultiPoly(("b",), {(e,): v for e, v in c.items()}), t)
      for t, c in _B_COEFFS.items()],
    *[(series.numerical_ring(), NumericalPoly(c), t) for t, c in _NUMERICAL_COEFFS.items()],
], ids=lambda p: p.name if isinstance(p, series.Ring) else None)
def test_one_rule_renders_every_coefficient_kind(ring, coeff, text):
    # a numerical polynomial prints binom(beta,1) where the others print b
    label = str(NumericalPoly({1: 1})) if isinstance(coeff, NumericalPoly) else "b"
    want = [w.replace("b", label) for w in RENDERED[text]]
    assert str(coeff) == text.replace("b", label)
    one, zero = ring.one, ring.zero
    layouts = [([(0, coeff)], [coeff], 0), ([(1, coeff)], [coeff], 1),
               ([(-1, one), (0, coeff)], [one, coeff], -1),
               ([(-1, one), (1, coeff)], [one, zero, coeff], -1)]
    for (terms, coeffs, low), expected in zip(layouts, want):
        assert render_terms(terms, lambda k: var_power("x", k)) == expected
        assert str(TruncSeries(ring, low, low + len(coeffs) - 1, coeffs, "x")) == expected


def test_json_round_structure():
    s = qq(0, [1, Fraction(1, 2)], order=1)
    j = s.to_json()
    assert j["low"] == 0 and j["order"] == 1 and j["coeffs"] == [["1", "1"], ["1", "2"]]


@settings(max_examples=50)
@given(st.integers(-3, 3), st.lists(st.integers(-9, 9), min_size=1, max_size=6))
def test_add_sub_round_trip(low, coeffs):
    s = TruncSeries.from_coeffs(QQ, low, [Fraction(c) for c in coeffs])
    z = s - s
    assert z.valuation() is None
    assert (s + z).agrees_with(s)


def test_agreement_past_a_reliable_order_raises_as_a_scan_would():
    # a mismatch at or below both orders is False; past them, the series
    # reliable to the lower order raises, naming its own order
    a = TruncSeries.from_coeffs(ZZ, 0, [1, 2, 3], order=4)
    b = TruncSeries.from_coeffs(ZZ, -1, [0, 1, 2, 3], order=6)
    assert a.agrees_with(b) and b.agrees_with(a)
    assert a.agrees_with(b, through=-3)
    for left, right in ((a, b), (b, a)):
        with pytest.raises(PrecisionError, match="^coefficient of T\\^5 requested but series "
                                                 "is reliable only to order 4$"):
            left.agrees_with(right, through=5)
    c = TruncSeries.from_coeffs(ZZ, 0, [1, 5], order=4)
    assert not a.agrees_with(c, through=9) and not c.agrees_with(a, through=9)
    assert a + b == b + a == TruncSeries.from_coeffs(ZZ, -1, [0, 2, 4, 6], order=4)


def test_zz_division_and_inverse_are_partial():
    with pytest.raises(InexactDivisionError, match="^3 is not divisible by 2$"):
        ZZ.div_exact(3, 2)
    with pytest.raises(NotInvertibleError, match="^2 is not a unit in Z$"):
        TruncSeries.from_coeffs(ZZ, 0, [2, 1], order=3).inverse()


def test_constructor_checks_the_window():
    with pytest.raises(DomainError, match="^order 1 below lowest exponent 2$"):
        TruncSeries(QQ, 2, 1, [])
    with pytest.raises(DomainError, match="^expected 3 coefficients for exponents 0..2, got 2$"):
        TruncSeries(QQ, 0, 2, [1, 2])
    with pytest.raises(DomainError, match="^truncation below the lowest exponent$"):
        TruncSeries.from_coeffs(ZZ, 2, [1, 1]).truncated(1)


def test_equal_series_share_their_order_and_an_int_factor_scales_either_side():
    s = TruncSeries.from_coeffs(ZZ, 0, [1, 2, 3])
    assert s != s.truncated(1)
    assert 2 * s == s * 2 == s.scalar_mul(2)
    assert repr(s) == "TruncSeries(ZZ, low=0, order=2, T; 1 + 2*T + 3*T^2)"


def test_bernoulli_guards_and_a_cold_cache(cold_table):
    with pytest.raises(DomainError, match="^order must be non-negative$"):
        bernoulli_minus(-1)
    with pytest.raises(DomainError, match="^Bernoulli index must be non-negative$"):
        bernoulli_number(-1)
    # as in a fresh process: the table grows only to the index asked for
    assert bernoulli_number(2) == Fraction(1, 6)
    assert series._bernoulli == [1, Fraction(-1, 2), Fraction(1, 6)]
    assert bernoulli_number(5) == 0
    assert series._bernoulli[3:] == [0, Fraction(-1, 30), 0]
