"""Series engine: arithmetic, inversion, exp/log, exact division, Bernoulli.

Oracles used here and nowhere in the implementation:
  * Mercator series for log(1 - xT),
  * the Pascal-recurrence Bernoulli numbers (sum_j C(n+1,j) B_j = 0),
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
    NotInvertibleError,
    PrecisionError,
    RingMismatchError,
)
from tatecalc.laurent import LaurentPoly
from tatecalc.multipoly import MultiPoly, binom_poly
from tatecalc.series import (
    QQ,
    ZZ,
    TruncSeries,
    bernoulli_minus,
    bernoulli_number,
    geometric_series,
    laurent_coeff_ring,
    poly_ring,
)
from tatecalc.tate_k import binomial_poly_series


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


def test_log_one_minus_is_mercator():
    ring = poly_ring("x")
    x = MultiPoly.var(("x",), "x")
    s = TruncSeries.from_coeffs(ring, 0, [ring.one, -x], order=12).log()
    for k in range(1, 13):
        assert s.coeff(k) == MultiPoly(("x",), {(k,): Fraction(-1, k)})
    assert s.coeff(0) == ring.zero


def test_exp_log_round_trips_order_24():
    rng = random.Random(9)
    ring = poly_ring("x")
    x = MultiPoly.var(("x",), "x")
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


def test_exp_is_homomorphism_order_16():
    rng = random.Random(10)
    ring = poly_ring("x")
    x = MultiPoly.var(("x",), "x")
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
    return TruncSeries.from_coeffs(ring, low, [ring.from_int(0) + c for c in head + body])


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


@pytest.mark.parametrize("negate", [False, True])
def test_binomial_poly_series_is_binom_poly(negate):
    beta = MultiPoly.var(("beta",), "beta")
    arg = -beta if negate else beta
    for n in (0, 1, 7, 24):
        s = binomial_poly_series(n, negate)
        assert (s.low, s.order) == (0, n)
        assert list(s.coeffs) == [binom_poly(arg, k) for k in range(n + 1)]
    for k, c in enumerate(binomial_poly_series(24, negate).coeffs):
        # k + 1 integer points fix a polynomial of degree k
        for m in range(1, k + 2):
            want = (-1) ** k * comb(m + k - 1, k) if negate else comb(m, k)
            assert sum(v * m ** e for (e,), v in c.terms.items()) == want


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


def test_json_round_structure():
    s = qq(0, [1, Fraction(1, 2)], order=1)
    j = s.to_json()
    assert j["low"] == 0 and j["order"] == 1 and j["coeffs"] == [["1", "1"], ["1", "2"]]


@settings(max_examples=50)
@given(st.integers(-3, 3), st.lists(st.integers(-9, 9), min_size=1, max_size=6))
def test_add_sub_round_trip(low, coeffs):
    s = TruncSeries.from_coeffs(QQ, low, [Fraction(c) for c in coeffs])
    z = s - s
    assert z.is_zero_series()
    assert (s + z).agrees_with(s)
