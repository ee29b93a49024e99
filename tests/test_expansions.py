"""Puncture expansions as ring homomorphisms, plus Adams dilation on targets."""

import random

import pytest

from tatecalc.errors import DomainError, PrecisionError
from tatecalc.laurent import LaurentPoly
from tatecalc.series import ZZ, TruncSeries
from tatecalc import expansions as ex
from tatecalc.tate_k import ONE_MINUS_Q, TateKElem


def q_poly(coeffs):
    return LaurentPoly("q", coeffs)


Q = TateKElem(q_poly({1: 1}))
QINV = TateKElem(q_poly({-1: 1}))
POLE = TateKElem(LaurentPoly.one("q"), 1)


def rand_tatek(rng, window=(-4, 4), max_pole=3):
    num = q_poly({rng.randint(*window): rng.randint(-9, 9) for _ in range(rng.randint(1, 4))})
    return TateKElem(num, rng.randint(0, max_pole))


def series(low, coeffs, var, order=None):
    return TruncSeries.from_coeffs(ZZ, low, coeffs, var, order=order)


# -- defining images ------------------------------------------------------------


def test_expand_at_zero_examples():
    s = ex.expand_at_zero(POLE, 6)
    assert s.agrees_with(series(0, [1] * 7, "q"))
    assert ex.expand_at_zero(QINV, 4).agrees_with(series(-1, [1], "q", order=4))
    assert ex.expand_at_zero(POLE * TateKElem(ONE_MINUS_Q), 5).is_one_series()


def test_expand_at_one_examples():
    s = ex.expand_at_one(QINV, 5)
    assert s.agrees_with(series(0, [1] * 6, "u"))
    assert ex.expand_at_one(POLE, 4).agrees_with(series(-1, [1], "u", order=4))
    assert ex.expand_at_one(Q * QINV, 6).is_one_series()


def test_expand_at_s_examples():
    assert ex.expand_at_s(Q, 4).agrees_with(series(-1, [-1, 1], "s", order=4))
    assert ex.expand_at_s(QINV, 5).agrees_with(series(1, [-1] * 5, "s"))
    assert ex.expand_at_s(Q * QINV, 5).is_one_series()


def test_s_puncture_sign_is_forced():
    # (1 - s^-1) * (-(s + s^2 + ...)) = 1; the unsigned sum gives -1 instead
    img_q = series(-1, [-1, 1], "s", order=8)
    neg_sum = series(1, [-1] * 8, "s")
    pos_sum = series(1, [1] * 8, "s")
    assert (img_q * neg_sum).is_one_series()
    assert (img_q * pos_sum).agrees_with(-TruncSeries.one(ZZ, 7, "s"))


# -- reference construction -------------------------------------------------------


def reference_images(puncture, order):
    """Series images of q, q^-1 and (1-q)^-1 in the local coordinate."""
    v = puncture.variable
    ones = [1] * (order + 1)
    if puncture is ex.Puncture.ZERO:
        return series(1, [1], v, order), series(-1, [1], v, order), series(0, ones, v)
    if puncture is ex.Puncture.ONE:
        return series(0, [1, -1], v, order), series(0, ones, v), series(-1, [1], v, order)
    return series(-1, [-1, 1], v, order), series(1, [-1] * order, v), series(1, [1], v, order)


def reference_expand(x, puncture, order):
    """sum_e c_e * img(q)^e * img((1-q)^-1)^k by series products at a padded
    order: the expansion as a ring homomorphism, with no closed form."""
    work = order + max(0, -x.num.lo()) + max(0, x.num.hi()) + x.denom_pow + 2
    img_q, img_qinv, img_pole = reference_images(puncture, work)
    pole_power = img_pole**x.denom_pow
    total = TruncSeries.zero(ZZ, work, puncture.variable)
    for e, c in x.num.coeffs.items():
        factor = img_q**e if e >= 0 else img_qinv ** (-e)
        total = total + (factor * pole_power).scalar_mul(c)
    return total.truncated(order).trimmed()


@pytest.mark.parametrize("puncture", list(ex.Puncture))
def test_closed_form_matches_image_products(puncture):
    rng = random.Random(33)
    for i in range(99):
        x = rand_tatek(rng, window=(-8, 8), max_pole=7)
        order = i % 33
        got, want = ex.expand(x, puncture, order), reference_expand(x, puncture, order)
        assert (got.low, got.order, got.coeffs) == (want.low, want.order, want.coeffs), (x, order)


# -- homomorphism properties -------------------------------------------------------


@pytest.mark.parametrize("puncture", list(ex.Puncture))
def test_expansion_is_ring_homomorphism(puncture):
    rng = random.Random(31)
    n = 12
    for i in range(100):
        x, y = rand_tatek(rng), rand_tatek(rng)
        fx = ex.expand(x, puncture, n + 8)
        fy = ex.expand(y, puncture, n + 8)
        assert ex.expand(x + y, puncture, n).agrees_with(fx + fy, through=n)
        prod = fx * fy
        assert ex.expand(x * y, puncture, n).agrees_with(prod, through=min(n, prod.order))


@pytest.mark.parametrize("puncture", list(ex.Puncture))
def test_units_map_to_units(puncture):
    n = 10
    u1 = ex.expand(Q, puncture, n + 4) * ex.expand(QINV, puncture, n + 4)
    u2 = ex.expand(TateKElem(ONE_MINUS_Q), puncture, n + 4) * ex.expand(POLE, puncture, n + 4)
    assert u1.truncated(n).is_one_series()
    assert u2.truncated(n).is_one_series()
    assert ex.expand(TateKElem.one(), puncture, n).is_one_series()


def test_zero_expands_to_zero():
    for p in ex.Puncture:
        assert ex.expand(TateKElem.zero(), p, 5).is_zero_series()


def test_identity_embedding_on_laurent_subring():
    rng = random.Random(32)
    for _ in range(100):
        x = q_poly({rng.randint(-4, 4): rng.randint(-9, 9) for _ in range(3)})
        s = ex.expand_at_zero(TateKElem(x), 10)
        for k in range(min(s.low, x.lo()), 11):
            assert s.coeff(k) == x.coeff(k)


# -- Adams on series targets ----------------------------------------------------------


def test_adams_dilation():
    g = ex.expand_at_zero(POLE, 8)
    d = ex.adams_on_series(2, g, 8)
    assert d.agrees_with(series(0, [1, 0, 1, 0, 1, 0, 1, 0, 1], "q"))
    assert ex.adams_on_series(1, g, 8).agrees_with(g)


def test_adams_consistency_with_laurent_route():
    from tatecalc.tate_k import adams_on_laurent

    x = q_poly({3: 1, -1: 1})
    via_series = ex.adams_on_series(2, ex.expand_at_zero(TateKElem(x), 8), 8)
    via_laurent = ex.expand_at_zero(TateKElem(adams_on_laurent(2, x)), 8)
    assert via_series.agrees_with(via_laurent)


def test_adams_series_composition():
    base = ex.expand_at_zero(POLE, 40)
    two_then_three = ex.adams_on_series(3, ex.adams_on_series(2, base, 13), 12)
    six = ex.adams_on_series(6, base, 12)
    assert two_then_three.agrees_with(six, through=12)


def test_adams_insufficient_order_is_typed():
    g = ex.expand_at_zero(POLE, 2)
    with pytest.raises(PrecisionError):
        ex.adams_on_series(3, g, 9)
    with pytest.raises(DomainError):
        ex.adams_on_series(0, g, 2)


def _q(coeffs):
    return LaurentPoly("q", coeffs)


# per puncture, an element whose expansion starts at t^-5 and one at t^-6
_DEPTH_CASES = {
    ex.Puncture.ZERO: (TateKElem(_q({-5: 1, 2: 3})), TateKElem(_q({-6: 1, 2: 3}))),
    ex.Puncture.ONE: (TateKElem(_q({0: 1, 1: 1}), 5), TateKElem(_q({0: 1, 1: 1}), 6)),
    ex.Puncture.INFINITY: (TateKElem(_q({0: 2, 6: 1}), 1), TateKElem(_q({0: 2, 7: 1}), 1)),
}


@pytest.mark.parametrize("puncture", list(ex.Puncture))
def test_an_expansion_starting_below_the_bound_is_refused(monkeypatch, puncture):
    monkeypatch.setattr(ex, "MAX_DEPTH", 5)
    at_bound, below = _DEPTH_CASES[puncture]
    s = ex.expand(at_bound, puncture, 3)
    assert s.low == -5 and s.coeff(-5) != 0
    with pytest.raises(DomainError, match="would start at .\\^-6, below the bound"):
        ex.expand(below, puncture, 3)
