"""K-side: localized ring normalization, partial fractions, quotient map,
binomial/Cartier series, the q-series, integrality survey, Adams operations.

The Cartier oracle re-derives the identity in Q[beta] via symbolic binomials,
independently of the numerical-polynomial multiplication it certifies.
"""

import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from tatecalc.basis import NumericalPoly, binom_ints, stirling1_rows
from tatecalc.errors import DomainError, NotInvertibleError
from tatecalc.laurent import LaurentPoly
from tatecalc.series import TruncSeries
from tatecalc import tate_k
from tatecalc.tate_k import ONE_MINUS_Q, TateKElem


def q_poly(coeffs):
    return LaurentPoly("q", coeffs)


def rand_tatek(rng, window=(-6, 6), max_pole=6):
    num = q_poly({rng.randint(*window): rng.randint(-9, 9) for _ in range(rng.randint(1, 5))})
    return TateKElem(num, rng.randint(0, max_pole))


# -- ring normalization ------------------------------------------------------------


def test_cancellation():
    x = TateKElem(LaurentPoly.one("q"), 1) * TateKElem(ONE_MINUS_Q)
    assert x == TateKElem.one()
    assert x.denom_pow == 0


def test_bezout_sum():
    # q/(1-q) + 1 = 1/(1-q) since q + (1-q) = 1
    x = TateKElem(q_poly({1: 1}), 1) + TateKElem.one()
    assert x.num == LaurentPoly.one("q")
    assert x.denom_pow == 1


def test_unit_product():
    assert TateKElem(q_poly({-1: 1})) * TateKElem(q_poly({1: 1})) == TateKElem.one()


def test_normalization_invariant_random():
    rng = random.Random(21)
    for _ in range(200):
        x, y = rand_tatek(rng, max_pole=4), rand_tatek(rng, max_pole=4)
        for r in (x + y, x - y, x * y):
            assert r.denom_pow >= 0
            if r.denom_pow > 0:
                assert sum(r.num.coeffs.values()) != 0
            assert r.num.is_integral()


def test_inverse_of_units():
    # (1-q) has inverse with denominator power 1
    assert TateKElem(ONE_MINUS_Q).inverse() == TateKElem(LaurentPoly.one("q"), 1)
    # q^2(1-q)^-3 inverts to q^-2 (1-q)^3
    x = TateKElem(q_poly({2: 1}), 3)
    assert x.inverse() * x == TateKElem.one()
    with pytest.raises(NotInvertibleError):
        TateKElem(q_poly({0: 1, 1: 1})).inverse()
    with pytest.raises(NotInvertibleError):
        TateKElem(q_poly({0: 2})).inverse()


def test_split_at_one_is_exact():
    # num = a + (1-q) Q with a = num(1), the step behind normalisation,
    # inversion and partial fractions
    rng = random.Random(25)
    cases = [q_poly({3: 2, 5: -1}), q_poly({-4: 1, -2: 7}), q_poly({-3: 1, 2: -1}),
             q_poly({1: 1}), q_poly({-1: 1}), LaurentPoly.zero("q")]
    cases += [q_poly({rng.randint(-8, 8): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))})
              for _ in range(300)]
    for num in cases:
        a, quo = tate_k._split_at_one(num)
        assert type(a) is int and a == sum(num.coeffs.values())
        assert quo.is_integral()
        assert num == a + ONE_MINUS_Q * quo


# -- partial fractions -----------------------------------------------------------------


def test_partial_fraction_examples():
    pf = tate_k.partial_fractions(TateKElem(LaurentPoly.one("q"), 1))
    assert pf.poly_part.is_zero() and pf.pole_coeffs == (1,)

    # 1/(q(1-q)) = 1/q + 1/(1-q)
    pf = tate_k.partial_fractions(TateKElem(q_poly({-1: 1}), 1))
    assert pf.poly_part == q_poly({-1: 1}) and pf.pole_coeffs == (1,)

    pf = tate_k.partial_fractions(TateKElem(q_poly({3: 1})))
    assert pf.poly_part == q_poly({3: 1}) and pf.pole_coeffs == ()


@pytest.mark.parametrize("poly,poles,text", [
    ({}, (-1, 0, 2, 1), "-(1-q)^-1 + 2*(1-q)^-3 + (1-q)^-4"),
    ({-1: -2, 3: 1}, (-1, -4), "-2*q^-1 + q^3 - (1-q)^-1 - 4*(1-q)^-2"),
    ({0: -1}, (1,), "-1 + (1-q)^-1"),
    ({}, (0, 0), "0"),
])
def test_partial_fraction_text(poly, poles, text):
    assert str(tate_k.PartialFractionForm(q_poly(poly), poles)) == text


def test_partial_fraction_reconstruction_random():
    rng = random.Random(22)
    for _ in range(200):
        x = rand_tatek(rng)
        pf = tate_k.partial_fractions(x)
        assert pf.reconstruct() == x
        assert all(isinstance(a, int) for a in pf.pole_coeffs)


# -- quotient map --------------------------------------------------------------------


def test_quotient_values():
    assert tate_k.quotient_to_betas(TateKElem(LaurentPoly.one("q"), 1)) == NumericalPoly.one()
    assert tate_k.quotient_to_betas(TateKElem(LaurentPoly.one("q"), 2)) == NumericalPoly.basis(1)
    rng = random.Random(23)
    for _ in range(50):
        x = TateKElem(rand_tatek(rng).num)  # denominator-free
        assert tate_k.quotient_to_betas(x).is_zero()


def test_quotient_kernel_iff():
    rng = random.Random(24)
    for _ in range(200):
        x = rand_tatek(rng)
        assert tate_k.quotient_to_betas(x).is_zero() == (x.denom_pow == 0)


def test_quotient_additive():
    rng = random.Random(25)
    for _ in range(100):
        x, y = rand_tatek(rng, max_pole=4), rand_tatek(rng, max_pole=4)
        assert tate_k.quotient_to_betas(x + y) == tate_k.quotient_to_betas(x) + tate_k.quotient_to_betas(y)


# -- binomial series -------------------------------------------------------------------


def test_binomial_series_coefficients():
    s = tate_k.binomial_series(6)
    assert s.coeff(0) == NumericalPoly.one()
    assert s.coeff(2) == NumericalPoly.basis(2)
    assert s.coeff(2).evaluate(4) == 6  # binom(4,2)


# -- Cartier relation -------------------------------------------------------------------


def cartier_oracle_qbeta(n0: int, n1: int) -> bool:
    """(1+T0)^beta (1+T1)^beta == ((1+T0)(1+T1))^beta in Q[beta], coefficientwise."""
    binoms = LaurentPoly("beta", {1: 1}).binomials(n0 + n1)
    zero = LaurentPoly.zero("beta")
    lhs: dict[tuple[int, int], LaurentPoly] = {}
    # expand sum_k binom(beta,k) (T0+T1+T0T1)^k by bivariate truncated powers
    power = {(0, 0): 1}
    for k in range(n0 + n1 + 1):
        bk = binoms[k]
        for e, v in power.items():
            lhs[e] = lhs.get(e, zero) + bk * v
        nxt: dict[tuple[int, int], int] = {}
        for (i, j), v in power.items():
            for (di, dj), w in (((1, 0), 1), ((0, 1), 1), ((1, 1), 1)):
                ii, jj = i + di, j + dj
                if ii <= n0 and jj <= n1:
                    nxt[(ii, jj)] = nxt.get((ii, jj), 0) + v * w
        power = nxt
        if not power:
            break
    for i in range(n0 + 1):
        for j in range(n1 + 1):
            rhs = binoms[i] * binoms[j]
            if lhs.get((i, j), zero) != rhs:
                return False
    return True


def test_cartier_frozen_coefficient():
    # coefficient of T0 T1: group-law terms contribute beta_1 + 2 beta_2 on the
    # left, and beta_1 * beta_1 on the right
    from tatecalc.basis import numerical_mul

    assert numerical_mul(NumericalPoly.basis(1), NumericalPoly.basis(1)) == NumericalPoly(
        {1: 1, 2: 2}
    )


def test_cartier_check_full():
    report = tate_k.cartier_check(12, 12)
    assert report.passed, str(report)


def test_cartier_against_qbeta_oracle():
    assert cartier_oracle_qbeta(6, 6)


def test_cartier_rejects_bad_orders():
    with pytest.raises(DomainError):
        tate_k.cartier_check(0, 5)


# -- the q-series ------------------------------------------------------------------------


def test_q_hat_inv_low_coefficients():
    s = tate_k.q_hat_inv_poly(4)
    beta = LaurentPoly("beta", {1: 1})
    assert s.coeff(0) == beta
    assert s.coeff(1) == -(beta * beta + beta) * Fraction(1, 2)  # -beta(beta+1)/2


def test_verify_prop2():
    report = tate_k.verify_prop2(16)
    assert report.passed, str(report)


def test_verify_prop2_defect_injection():
    report = tate_k.verify_prop2(8, defect=3)
    assert not report.passed
    assert "T^3" in report.first_defect


def qbeta_prop2_verdicts(order, binom=None):
    """Oracle: prop2's two series checks built in Q[beta][[T]] as a whole,
    without evaluation; `binom` replaces the (1+T)^beta series."""
    inv_pow = tate_k.binomial_poly_series(order + 1, negate=True)
    one = TruncSeries.one(inv_pow.ring, order + 1)
    qhi = (one - inv_pow).shifted(-1).truncated(order)
    one_minus = (one - qhi.shifted(1)).truncated(order)
    binom = binom or tate_k.binomial_poly_series(order)
    product_ok = (one_minus * binom).is_one_series()
    inverse_ok = one_minus.inverse().agrees_with(binom, through=order)
    vandermonde_ok = (binom * tate_k.binomial_poly_series(order, negate=True)).is_one_series()
    return product_ok and inverse_ok, vandermonde_ok


def series_verdicts(report):
    return tuple(c.passed for c in report.checks[1:])


@pytest.mark.parametrize("order", [1, 2, 3, 8, 16, 32])
def test_prop2_evaluation_matches_qbeta_oracle(order):
    assert series_verdicts(tate_k.verify_prop2(order)) == qbeta_prop2_verdicts(order) == (True, True)


@pytest.mark.parametrize("order", [1, 2, 3, 8, 16])
def test_prop2_wrong_top_binomial_fails_both_paths(order, monkeypatch):
    # binom(beta, order) + delta with delta of degree `order` vanishing at
    # every evaluation point but the two ends: the tightest case for the
    # degree argument, seen at just 2 of the order+2 points
    points = tate_k.prop2_points(order)
    beta = LaurentPoly("beta", {1: 1})
    delta_poly = LaurentPoly.one("beta")
    for m in points[1:-1]:
        delta_poly = delta_poly * (beta - m)

    def delta(m):
        return prod(m - j for j in points[1:-1])

    binom = tate_k.binomial_poly_series(order)
    coeffs = list(binom.coeffs)
    coeffs[order] = coeffs[order] + delta_poly
    wrong = TruncSeries(binom.ring, 0, order, coeffs)
    assert qbeta_prop2_verdicts(order, wrong) == (False, False)

    true_binom_ints = tate_k.binom_ints

    def wrong_binom_ints(m, n):
        out = true_binom_ints(m, n)
        if n == order:  # the (1+T)^beta side; (1+T)^-beta is built to order+1
            out[order] += delta(m)
        return out

    monkeypatch.setattr(tate_k, "binom_ints", wrong_binom_ints)
    report = tate_k.verify_prop2(order)
    assert series_verdicts(report) == (False, False)
    assert [c.first_defect for c in report.checks[1:]] == [
        "defining relation fails", "binomial convolution does not telescope"]


def test_prop2_points_are_order_plus_two_distinct_integers():
    for order in range(1, 40):
        points = tate_k.prop2_points(order)
        assert len(set(points)) == order + 2


def test_binom_ints_matches_comb():
    for m in range(0, 12):
        assert binom_ints(m, 14) == [comb(m, k) for k in range(15)]
    for m in range(1, 12):
        assert binom_ints(-m, 14) == [(-1) ** k * comb(m + k - 1, k) for k in range(15)]


def test_stirling_rows_follow_their_recurrence_and_count_permutations():
    rows = stirling1_rows(40)
    assert [len(r) for r in rows] == list(range(1, 42))
    assert rows[4] == [0, -6, 11, -6, 1]
    for n in range(40):
        ext = [*rows[n], 0]
        assert rows[n + 1] == [(ext[m - 1] if m else 0) - n * ext[m] for m in range(n + 2)]
    for n, row in enumerate(rows):
        assert sum(abs(s) for s in row) == factorial(n)


def test_stirling_rows_expand_the_falling_factorial():
    rows = stirling1_rows(12)
    for n, row in enumerate(rows):
        for x in range(-5, 15):
            assert sum(s * x**m for m, s in enumerate(row)) == prod(x - i for i in range(n))


def test_q_series_matches_the_series_inverse_at_every_order_to_64():
    # the Q[beta^±1] inverse that defines q is the oracle; an inverse through
    # T^n reads only the first n+1 coefficients, so its order-64 result
    # truncated to n is the order-n inverse (the kernel's truncation
    # consistency, tested in test_series.py), checked outright at a few orders
    oracle = tate_k.q_hat_inv_poly(64).inverse()
    for n in range(65):
        assert tate_k.q_series(n) == oracle.truncated(n), n
    for n in (0, 1, 2, 3, 17, 40):
        assert tate_k.q_series(n) == tate_k.q_hat_inv_poly(n).inverse(), n


def test_q_series_frozen_coefficients():
    qs = tate_k.q_series(8)
    assert qs.ring.name == "QQ[beta^±1]"
    assert qs.coeff(0) == LaurentPoly("beta", {-1: 1})
    # (beta+1)/(2 beta) and (beta+1)(beta-1)/(12 beta)
    assert qs.coeff(1) == LaurentPoly("beta", {-1: Fraction(1, 2), 0: Fraction(1, 2)})
    assert qs.coeff(2) == LaurentPoly("beta", {-1: Fraction(-1, 12), 1: Fraction(1, 12)})


def test_q_series_multiply_back_order_32():
    qs = tate_k.q_series(32)
    assert (qs * tate_k.q_hat_inv_poly(32)).is_one_series()


def test_q_series_coefficients_have_a_simple_pole_in_beta():
    # the integrality report's "polynomial" test reads the lowest exponent
    qs = tate_k.q_series(40)
    assert [qs.coeff(k).lo() for k in range(41)] == [-1] * 41


def test_integrality_report_contents():
    rep = tate_k.integrality_report(4)
    by_key = {(e.series, e.index): e for e in rep.entries}

    e = by_key[("beta*q", 0)]
    assert e.is_polynomial and e.is_integral and e.binomial_coords == ((0, "1"),)

    e = by_key[("beta*q", 1)]             # (beta+1)/2: polynomial, not integer-valued
    assert e.is_polynomial and e.is_integral is False
    assert ("0", False) not in e.binomial_coords  # coords are (index, value) pairs
    assert dict(e.binomial_coords)[0] == "1/2"

    e = by_key[("q", 1)]                  # (beta+1)/(2 beta): not polynomial
    assert not e.is_polynomial and e.is_integral is None

    # descriptive, never an assertion: the report exists even though several
    # coordinates are fractional
    assert len(rep.entries) == 2 * 5


# -- Adams operations ----------------------------------------------------------------------


def test_adams_examples():
    assert tate_k.adams_on_laurent(2, q_poly({1: 1, -1: 1})) == q_poly({2: 1, -2: 1})
    x = q_poly({5: 1})
    assert tate_k.adams_on_laurent(1, x) == x
    assert tate_k.adams_on_laurent(2, tate_k.adams_on_laurent(3, x)) == q_poly({30: 1})


def test_adams_is_ring_homomorphism():
    rng = random.Random(26)
    for _ in range(100):
        k = rng.randint(1, 5)
        x = q_poly({rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(3)})
        y = q_poly({rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(3)})
        psi = tate_k.adams_on_laurent
        assert psi(k, x * y) == psi(k, x) * psi(k, y)
        assert psi(k, x + y) == psi(k, x) + psi(k, y)


def test_adams_composition_law():
    rng = random.Random(27)
    for k in range(1, 6):
        for l in range(1, 6):
            x = q_poly({rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(3)})
            assert tate_k.adams_on_laurent(k, tate_k.adams_on_laurent(l, x)) == \
                tate_k.adams_on_laurent(k * l, x)


def test_adams_rejects_bad_index():
    with pytest.raises(DomainError):
        tate_k.adams_on_laurent(0, q_poly({1: 1}))
