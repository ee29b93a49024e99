"""Ratio series: frozen coefficients, division contracts by multiply-back,
diagonal collapse, and the three-ratio consistency.

renorm computes over Q[x^±1] with y encoded as x^K, K = order + 3.  The
Q[x,y] construction it replaced stays here as a test-only oracle over
`MultiPoly`: the decoded coefficients must equal it."""

from fractions import Fraction

import pytest

from tatecalc import renorm
from tatecalc.laurent import LaurentPoly
from tatecalc.multipoly import MultiPoly
from tatecalc.series import TruncSeries, poly_ring

GENS = ("x", "y")
QXY = poly_ring(*GENS)
OX = MultiPoly.var(GENS, "x")
OY = MultiPoly.var(GENS, "y")


def mono(ex, ey, value=1):
    return MultiPoly(GENS, {(ex, ey): Fraction(value)})


def decode(p: LaurentPoly, order: int) -> MultiPoly:
    """The Q[x,y] polynomial whose Kronecker image at `order` is p."""
    k = order + 3
    assert all(e >= 0 for e in p.coeffs)
    return MultiPoly(GENS, {(e % k, e // k): v for e, v in p.coeffs.items()})


def decoded(s: TruncSeries, order: int) -> list[MultiPoly]:
    return [decode(s.coeff(n), order) for n in range(s.low, s.order + 1)]


# -- the Q[x,y] oracle -------------------------------------------------------------


def oracle_log_one_minus(scale: MultiPoly, order: int) -> TruncSeries:
    return TruncSeries.from_coeffs(QXY, 0, [QXY.one, -scale], order=order).log()


def oracle_log_one_plus_t(order: int) -> TruncSeries:
    return TruncSeries.from_coeffs(QXY, 0, [QXY.one, QXY.one], order=order).log()


def oracle_b_over_cinv(order: int) -> TruncSeries:
    num = -oracle_log_one_minus(OX, order + 1)
    return num.div_exact(TruncSeries.from_coeffs(QXY, 1, [OX], order=order + 1))


def oracle_beta_over_qinv(order: int) -> TruncSeries:
    num = -oracle_log_one_minus(OY, order + 1)
    return num.div_exact(oracle_log_one_plus_t(order + 1).scalar_mul(OY))


def oracle_b_over_beta(order: int) -> TruncSeries:
    num = oracle_log_one_minus(OX, order + 1).div_exact(TruncSeries.constant(QXY, OX, order + 1))
    den = oracle_log_one_minus(OY, order + 1).div_exact(TruncSeries.constant(QXY, OY, order + 1))
    prefactor = oracle_log_one_plus_t(order + 1).shifted(-1).trimmed()
    return (prefactor * num.div_exact(den)).truncated(order)


@pytest.mark.parametrize("order", [8, 24, 32])
@pytest.mark.parametrize("name", ["b_over_cinv", "beta_over_qinv", "b_over_beta"])
def test_kronecker_image_decodes_to_the_qxy_oracle(name, order):
    s = getattr(renorm, name)(order)
    ref = globals()[f"oracle_{name}"](order)
    assert (s.low, s.order) == (ref.low, ref.order)
    assert decoded(s, order) == [ref.coeff(n) for n in range(ref.low, ref.order + 1)]


def test_diagonal_decoding_matches_collapsing_the_oracle():
    order = 24
    diag = renorm.specialize_diagonal(renorm.b_over_beta(order))
    for n, p in enumerate(oracle_b_over_beta(order).coeffs):
        collapsed = {}
        for (i, j), v in p.terms.items():
            collapsed[i + j] = collapsed.get(i + j, 0) + v
        assert diag.coeff(n) == LaurentPoly("x", collapsed)


# -- frozen values -------------------------------------------------------------------


def test_b_over_cinv_coefficients():
    s = renorm.b_over_cinv(8)
    c = decoded(s, 8)
    assert c[0] == mono(0, 0)
    assert c[1] == mono(1, 0, Fraction(1, 2))
    assert c[3] == mono(3, 0, Fraction(1, 4))
    for k in range(9):
        assert c[k] == mono(k, 0, Fraction(1, k + 1))


def test_beta_over_qinv_low_coefficients():
    c = decoded(renorm.beta_over_qinv(8), 8)
    assert c[0] == mono(0, 0)
    assert c[1] == mono(0, 1, Fraction(1, 2)) + mono(0, 0, Fraction(1, 2))  # y/2 + 1/2


def test_beta_over_qinv_multiply_back_order_16():
    s = renorm.beta_over_qinv(16)
    y = renorm._y(16)
    den = renorm._log_one_plus_t(17).scalar_mul(y).trimmed()
    num = -renorm._log_one_minus(y, 17)
    assert (s * den).agrees_with(num)


def test_b_over_beta_constant_and_linear_terms():
    c = decoded(renorm.b_over_beta(6), 6)
    assert c[0] == mono(0, 0)
    expected_t1 = mono(1, 0, Fraction(1, 2)) - mono(0, 1, Fraction(1, 2)) - mono(0, 0, Fraction(1, 2))
    assert c[1] == expected_t1


def test_diagonal_specialization_collapses():
    s = renorm.b_over_beta(24)
    diag = renorm.specialize_diagonal(s)
    ref = renorm.t_inv_log_one_plus(24)
    assert diag.agrees_with(ref)
    # spot values: 1 - T/2 + T^2/3 - ...
    assert diag.coeff(2) == LaurentPoly("x", {0: Fraction(1, 3)})


def test_three_ratio_consistency_order_24():
    bb = renorm.b_over_beta(24)
    bq = renorm.beta_over_qinv(24)
    bc = renorm.b_over_cinv(24)
    assert (bb * bq).agrees_with(bc, through=24)


def test_verify_renorm_suite():
    rep = renorm.verify_renorm(12)
    assert rep.passed, str(rep)


def diagonal_by_fraction_sums(s: TruncSeries) -> list[LaurentPoly]:
    """y := x term by term: x^(i+Kj) -> x^(i+j), summed as Fractions."""
    k = s.order + 3
    out = []
    for p in s.coeffs:
        terms = {}
        for e, v in p.coeffs.items():
            terms[e % k + e // k] = terms.get(e % k + e // k, 0) + Fraction(v)
        out.append(LaurentPoly("x", terms))
    return out


@pytest.mark.parametrize("order", [4, 12])
def test_diagonal_decode_matches_fraction_sums(order):
    for s in (renorm.b_over_beta(order), renorm.beta_over_qinv(order), renorm.b_over_cinv(order)):
        got = renorm.specialize_diagonal(s)
        # the same values and the same types: integral ones as int
        assert ([sorted((e, type(v), v) for e, v in c.coeffs.items()) for c in got.coeffs]
                == [sorted((e, type(v), v) for e, v in c.coeffs.items())
                    for c in diagonal_by_fraction_sums(s)])
