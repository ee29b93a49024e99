"""H-side: splitting projection, boundary, Rota-Baxter identity, the graded
series identities, and the b <-> c change of generators."""

import random
from fractions import Fraction

import pytest

from tatecalc.basis import DividedPowerElem
from tatecalc.errors import DomainError
from tatecalc.laurent import LaurentPoly
from tatecalc import tate_h
from tatecalc.tate_h import Grading, GradedTSeries


def lp(coeffs):
    return LaurentPoly("c", coeffs)


def rand_elem(rng, window=(-10, 10)):
    return lp({rng.randint(*window): rng.randint(-9, 9) for _ in range(rng.randint(1, 5))})


# -- pi_minus ------------------------------------------------------------------


def test_pi_minus_examples():
    assert tate_h.pi_minus(lp({2: 1, 0: 3, -1: 2})) == lp({-1: 2})
    assert tate_h.pi_minus(lp({5: 1})).is_zero()
    assert tate_h.pi_minus(lp({-3: 1})) == lp({-3: 1})


def test_pi_minus_idempotent_linear():
    rng = random.Random(1)
    for _ in range(100):
        x, y = rand_elem(rng), rand_elem(rng)
        assert tate_h.pi_minus(tate_h.pi_minus(x)) == tate_h.pi_minus(x)
        assert tate_h.pi_minus(x + y) == tate_h.pi_minus(x) + tate_h.pi_minus(y)


def test_pi_minus_rejects_rational_coefficients():
    with pytest.raises(DomainError):
        tate_h.pi_minus(LaurentPoly("c", {0: Fraction(1, 2)}))
    with pytest.raises(DomainError):
        tate_h.pi_minus(LaurentPoly("q", {0: 1}))


# -- boundary ------------------------------------------------------------------


def test_boundary_values():
    assert tate_h.boundary(lp({-1: 1})) == DividedPowerElem.one()       # c^-1 -> 1
    assert tate_h.boundary(lp({-2: 1})) == DividedPowerElem.basis(1)    # c^-2 -> b_1
    assert tate_h.boundary(lp({3: 1})).is_zero()                        # Z[c] is killed


def test_boundary_kernel_is_polynomials():
    rng = random.Random(2)
    for _ in range(200):
        x = rand_elem(rng)
        assert tate_h.boundary(x).is_zero() == all(e >= 0 for e in x.coeffs)


def test_boundary_kills_inclusion():
    rng = random.Random(3)
    for _ in range(100):
        assert tate_h.boundary(rand_elem(rng, window=(0, 10))).is_zero()


# -- Rota-Baxter -----------------------------------------------------------------


def test_rota_baxter_hand_examples():
    x = lp({-1: 1, 1: 1})
    y = lp({-1: 1})
    # both sides equal c^-2: P(x)P(y) + P(xy) = c^-2 + (c^-2 + pi(1)) and
    # P(P(x)y) + P(xP(y)) = c^-2 + c^-2; the defect must cancel exactly
    assert tate_h.rota_baxter_defect(x, y).is_zero()
    assert tate_h.rota_baxter_defect(lp({2: 1}), lp({3: 1})).is_zero()
    assert tate_h.rota_baxter_defect(y, y).is_zero()


def test_rota_baxter_defect_vanishes_random():
    rng = random.Random(4)
    for _ in range(200):
        x, y = rand_elem(rng, (-8, 8)), rand_elem(rng, (-8, 8))
        assert tate_h.rota_baxter_defect(x, y).is_zero()


# -- Kronecker pairing -------------------------------------------------------------


def test_kronecker_delta():
    for i in range(17):
        for j in range(17):
            pair = tate_h.kronecker_pair(lp({i: 1}), DividedPowerElem.basis(j))
            assert pair == (1 if i == j else 0)
    assert tate_h.kronecker_pair(lp({0: 2, 3: 5}), DividedPowerElem({3: 4, 0: 1})) == 22
    with pytest.raises(DomainError):
        tate_h.kronecker_pair(lp({-1: 1}), DividedPowerElem.one())


# -- graded series ------------------------------------------------------------------


def test_exp_bT_and_geom_cinv_coordinates():
    e = tate_h.exp_bT(3)
    assert e.tag is Grading.HOM_H and e.coords == (1, 1, 1, 1)
    g = tate_h.geom_cinv(3)
    assert g.tag is Grading.TATE_H and g.coords == (1, 1, 1, 1)
    assert tate_h.exp_bT(0).coords == (1,)
    assert str(g) == "1 + c^-1 T + c^-2 T^2 + c^-3 T^3"
    assert str(e) == "1 + b_1 T + b_2 T^2 + b_3 T^3"


def test_cohomological_support_constraint():
    GradedTSeries(Grading.COH_H, -3, (1, 2, 0, 5))  # support k <= 0 is fine
    with pytest.raises(DomainError):
        GradedTSeries(Grading.COH_H, -1, (1, 0, 3))  # nonzero at k = 1


def test_termwise_boundary():
    g = tate_h.geom_cinv(4)
    b = g.termwise_boundary()
    assert b[0].is_zero()
    for k in range(1, 5):
        assert b[k] == DividedPowerElem.basis(k - 1)
    with pytest.raises(DomainError):
        tate_h.exp_bT(2).termwise_boundary()


def test_kernel_forces_zero():
    ok, _ = tate_h.kernel_forces_zero(GradedTSeries(Grading.TATE_H, 0, (5, 0, 0)))
    assert ok
    ok, k = tate_h.kernel_forces_zero(GradedTSeries(Grading.TATE_H, 0, (0, 0, 1)))
    assert not ok and k == 2


# -- the identity suites ---------------------------------------------------------------


@pytest.mark.parametrize("order", [1, 2, 8, 64])
def test_prop1_passes(order):
    report = tate_h.verify_prop1(order)
    assert report.passed, str(report)


def test_prop1_adversarial_mutation():
    report = tate_h.verify_prop1(8, defect=2)
    assert not report.passed
    assert "T^2" in report.first_defect


def test_prop1_requires_positive_order():
    with pytest.raises(DomainError):
        tate_h.verify_prop1(0)


def test_b_series_from_c_coefficients():
    res = tate_h.b_series_from_c(10)
    for k in range(11):
        assert res.series.coeff(k) == LaurentPoly("x", {k + 1: Fraction(1, k + 1)})
    assert res.exp_check_ok


def test_b_series_exp_check_order_16():
    assert tate_h.b_series_from_c(16).exp_check_ok


def test_c_series_from_b():
    res = tate_h.c_series_from_b(8)
    # c_hat = b^-1 + T/2 + b T^2/12 + 0 T^3 - b^3 T^4/720 + ...
    assert res.c_hat.coeff(0) == LaurentPoly("b", {-1: 1})
    assert res.c_hat.coeff(1) == LaurentPoly("b", {0: Fraction(1, 2)})
    assert res.c_hat.coeff(2) == LaurentPoly("b", {1: Fraction(1, 12)})
    assert res.c_hat.coeff(3).is_zero()
    assert res.c_hat.coeff(4) == LaurentPoly("b", {3: Fraction(-1, 720)})
    # c_hat_inv coefficient of T^k is (-1)^k b^(k+1)/(k+1)!
    from math import factorial

    for k in range(9):
        assert res.c_hat_inv.coeff(k) == LaurentPoly(
            "b", {k + 1: Fraction((-1) ** k, factorial(k + 1))}
        )
    assert res.matching_sign == 1
    assert res.round_trip_ok


def test_c_series_round_trip_order_32():
    res = tate_h.c_series_from_b(32)
    assert res.round_trip_ok
    assert res.matching_sign == 1


def test_corollary_report():
    rep = tate_h.verify_corollary(16)
    assert rep.passed, str(rep)
    sign_note = next(c.note for c in rep.checks if c.identity == "unique Bernoulli-form sign")
    assert "+1" in sign_note
