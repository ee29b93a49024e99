"""H-side: splitting projection, boundary, Rota-Baxter identity, the graded
series identities, and the b <-> c change of generators."""

import random
from fractions import Fraction

import pytest

from tatecalc.basis import DividedPowerElem
from tatecalc.cli import main
from tatecalc.errors import DomainError
from tatecalc.laurent import LaurentPoly
from tatecalc import tate_h
from tatecalc.report import Check, VerificationReport
from tatecalc.series import TruncSeries
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


@pytest.mark.parametrize("tag,low,coords,text", [
    (Grading.TATE_H, -1, (2, -1, 0, -3), "2*c^1 T^-1 - 1 - 3*c^-2 T^2"),
    (Grading.TATE_H, -2, (-7, 1, -1, 1), "-7*c^2 T^-2 + c^1 T^-1 - 1 + c^-1 T"),
    (Grading.HOM_H, -1, (2, -1, 0, -3), "2*b_-1 T^-1 - 1 - 3*b_2 T^2"),
    (Grading.HOM_H, 0, (-1, 1, 0, 5), "-1 + b_1 T + 5*b_3 T^3"),
    (Grading.TATE_H, 0, (0, 0), "0"),
])
def test_graded_series_text(tag, low, coords, text):
    assert str(GradedTSeries(tag, low, coords)) == text


# -- the identity suites ---------------------------------------------------------------


@pytest.mark.parametrize("order", [1, 2, 8, 64])
def test_prop1_passes(order):
    report = tate_h.verify_prop1(order)
    assert report.passed, str(report)


def test_prop1_adversarial_mutation():
    report = tate_h.verify_prop1(8, defect=2)
    assert not report.passed
    assert "T^2" in report.first_defect
    # a nonzero epsilon coordinate at T^k, k >= 1, has a nonzero boundary; at T^0 it has none
    kernel = {d: tate_h.verify_prop1(8, defect=d).checks[2] for d in (0, 2)}
    assert kernel[0].passed
    assert kernel[2].first_defect == "T^2: nonzero coordinate 1 with nonzero boundary b_1"


@pytest.mark.parametrize("kernel,func,label", [("inverse", "geom_cinv", "c^-5"),
                                                ("exp", "exp_bT", "b_5")])
def test_a_malformed_coefficient_fails_each_check_and_is_a_typed_eval_error(
        monkeypatch, capsys, kernel, func, label):
    real = getattr(TruncSeries, kernel)

    def plus_one_at_5(s):
        out = real(s)
        coeffs = list(out.coeffs)
        coeffs[5] = coeffs[5] + out.ring.one
        return TruncSeries(out.ring, out.low, out.order, coeffs, out.var)

    monkeypatch.setattr(TruncSeries, kernel, plus_one_at_5)
    defect = f"T^5: coefficient is not an integer multiple of {label}"
    assert [c.first_defect for c in tate_h.verify_prop1(8).checks] == [defect] * 3
    assert main(["verify", "prop1", "--order", "8"]) == 1
    assert main(["eval", f"{func}()", "--order", "8"]) == 2
    assert capsys.readouterr().err == f"error: {defect}\n"


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


# -- the sign scan in one pass against the per-order recomputation --------------------


def per_order_sign(n: int) -> int | None:
    """The Bernoulli-form sign of c_hat recomputed at order n, matched over the
    whole series by `agrees_with`, as the scan did before it read prefixes."""
    c_hat = tate_h.c_series_from_b(n).c_hat
    bern = tate_h.bernoulli_minus(n)
    bform = TruncSeries(c_hat.ring, 0, n,
                        [LaurentPoly("b", {k - 1: bern.coeff(k) * (-1) ** k}) for k in range(n + 1)])
    matches = [s for s in (1, -1) if c_hat.agrees_with(bform.scalar_mul(s))]
    return matches[0] if len(matches) == 1 else None


def per_order_corollary(order: int) -> VerificationReport:
    """verify_corollary with one series recomputation per order 4..order."""
    sign = per_order_sign(order)
    signs = [per_order_sign(n) for n in range(4, order + 1)]
    checks = (
        Check("exp(b-series) inverts (1 - xT)",
              None if tate_h.b_series_from_c(order).exp_check_ok else "multiply-back is not 1"),
        Check("c-hat round trip recovers b",
              None if tate_h.c_series_from_b(order).round_trip_ok
              else "-T^-1 log(1 - c_hat_inv T) != b"),
        Check("unique Bernoulli-form sign", "no unique sign matched" if sign is None else None,
              note=None if sign is None
              else f"c_hat = {sign:+d} * b^-1 * B(-bT) with B(D) = D/(e^D - 1)"),
        Check("sign stable across orders",
              None if all(s == sign for s in signs) else f"signs per order 4..{order}: {signs}"),
    )
    return VerificationReport("corollary", order, checks)


def assert_one_pass_matches_per_order(top: int) -> None:
    reference = {n: per_order_sign(n) for n in range(4, top + 1)}
    for order in range(4, top + 1):
        res = tate_h.c_series_from_b(order)
        assert [res.sign_through(n) for n in range(4, order + 1)] == [
            reference[n] for n in range(4, order + 1)]
        assert res.matching_sign == reference[order]
    for order in (4, 5, 12, top):
        assert str(tate_h.verify_corollary(order)) == str(per_order_corollary(order))


def test_one_pass_signs_equal_the_per_order_recomputation():
    assert_one_pass_matches_per_order(40)
    assert tate_h.verify_corollary(40).passed


@pytest.mark.parametrize("flip", [1, 10, 30])
def test_one_pass_signs_and_failing_text_with_a_flipped_bernoulli_coefficient(
        monkeypatch, flip):
    real = tate_h.bernoulli_minus

    def flipped(order):
        s = real(order)
        if flip > order:
            return s
        coeffs = list(s.coeffs)
        coeffs[flip] = -coeffs[flip]
        return TruncSeries(s.ring, s.low, s.order, coeffs, s.var)

    monkeypatch.setattr(tate_h, "bernoulli_minus", flipped)
    assert_one_pass_matches_per_order(40)
    rep = tate_h.verify_corollary(40)
    assert not rep.passed
    if flip >= 4:
        assert f"signs per order 4..40: [{', '.join(['1'] * (flip - 4))}" in str(rep)


def test_corollary_report():
    rep = tate_h.verify_corollary(16)
    assert rep.passed, str(rep)
    sign_note = next(c.note for c in rep.checks if c.identity == "unique Bernoulli-form sign")
    assert "+1" in sign_note


def test_verify_corollary_rejects_order_zero():
    with pytest.raises(DomainError, match="^order must be at least 1$"):
        tate_h.verify_corollary(0)
