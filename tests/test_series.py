"""Series engine: arithmetic, inversion, exp/log, exact division, Bernoulli.

Oracles used here and nowhere in the implementation:
  * Mercator series for log(1 - xT),
  * the Pascal-recurrence Bernoulli numbers (sum_j C(n+1,j) B_j = 0),
  * the brute-force double sum for products of Laurent-tailed series.
"""

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
from tatecalc.multipoly import MultiPoly
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
