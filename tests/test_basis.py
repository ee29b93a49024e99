"""Divided powers and numerical polynomials against independent oracles.

The divided-power oracle multiplies in Q[b] (b_k represented as b^k/k!); the
numerical-polynomial oracle works through pointwise integer values.
"""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from tatecalc.basis import (
    DividedPowerElem,
    NotIntegral,
    NumericalPoly,
    binom_int,
    numerical_mul,
    to_binomial_basis,
)
from tatecalc.errors import DomainError
from tatecalc.multipoly import MultiPoly


# -- oracles -------------------------------------------------------------------


def dp_to_qb(x: DividedPowerElem) -> dict[int, Fraction]:
    """Image of sum a_k b_k in Q[b]: b_k -> b^k / k!."""
    return {k: Fraction(v, factorial(k)) for k, v in x.coords.items()}


def qb_mul(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for i, u in a.items():
        for j, v in b.items():
            out[i + j] = out.get(i + j, Fraction(0)) + u * v
    return {k: v for k, v in out.items() if v}


def dp_from_qb(d: dict[int, Fraction]) -> DividedPowerElem:
    coords = {}
    for k, v in d.items():
        scaled = v * factorial(k)
        assert scaled.denominator == 1
        coords[k] = int(scaled)
    return DividedPowerElem(coords)


def dp_oracle_mul(x: DividedPowerElem, y: DividedPowerElem) -> DividedPowerElem:
    return dp_from_qb(qb_mul(dp_to_qb(x), dp_to_qb(y)))


# -- divided powers ---------------------------------------------------------------


def test_dp_frozen_examples():
    b1 = DividedPowerElem.basis(1)
    b2 = DividedPowerElem.basis(2)
    assert b1 * b1 == DividedPowerElem({2: 2})      # (b/1!)^2 = 2 b^2/2!
    assert b1 * b2 == DividedPowerElem({3: 3})      # C(3,1) = 3
    assert DividedPowerElem.one() * b2 == b2


def test_dp_matches_qb_oracle_on_random_elements():
    rng = random.Random(7)
    for _ in range(100):
        x = DividedPowerElem({rng.randint(0, 6): rng.randint(-5, 5) for _ in range(3)})
        y = DividedPowerElem({rng.randint(0, 6): rng.randint(-5, 5) for _ in range(3)})
        assert x * y == dp_oracle_mul(x, y)


def test_dp_gamma_power_identity():
    b1 = DividedPowerElem.basis(1)
    power = DividedPowerElem.one()
    for k in range(1, 13):
        power = power * b1
        assert power == DividedPowerElem.basis(k) * factorial(k)


def test_dp_rejects_bad_coords():
    with pytest.raises(DomainError):
        DividedPowerElem({-1: 1})
    with pytest.raises(DomainError):
        DividedPowerElem({0: Fraction(1, 2)})  # type: ignore[dict-item]


# -- numerical polynomials ----------------------------------------------------------


def values_oracle(x: NumericalPoly, upto: int) -> list[int]:
    return [sum(v * comb(n, k) if n >= k else 0 for k, v in x.coords.items()) for n in range(upto)]


def test_numerical_frozen_examples():
    # beta_1^2: values 0,1,4,9 -> finite differences 0,1,2 -> beta_1 + 2 beta_2
    b1 = NumericalPoly.basis(1)
    assert numerical_mul(b1, b1) == NumericalPoly({1: 1, 2: 2})
    # beta_1*beta_2: values 0,0,2,9 -> differences (0,0,2,3)
    b2 = NumericalPoly.basis(2)
    assert numerical_mul(b1, b2) == NumericalPoly({2: 2, 3: 3})
    assert numerical_mul(NumericalPoly.one(), b2) == b2


def test_numerical_product_values_agree_pointwise():
    rng = random.Random(11)
    for _ in range(100):
        x = NumericalPoly({rng.randint(0, 5): rng.randint(-4, 4) for _ in range(3)})
        y = NumericalPoly({rng.randint(0, 5): rng.randint(-4, 4) for _ in range(3)})
        p = numerical_mul(x, y)
        for n in range(21):
            assert p.evaluate(n) == x.evaluate(n) * y.evaluate(n)


def test_numerical_evaluate_matches_comb():
    x = NumericalPoly({0: 2, 3: -1, 5: 4})
    assert values_oracle(x, 12) == [x.evaluate(n) for n in range(12)]
    # negative arguments use the generalized binomial
    assert x.evaluate(-2) == 2 - binom_int(-2, 3) + 4 * binom_int(-2, 5)


# -- binomial-basis conversion --------------------------------------------------------


def test_to_binomial_basis_examples():
    x = MultiPoly.var(("x",), "x")
    assert to_binomial_basis(x * x) == NumericalPoly({1: 1, 2: 2})
    half = to_binomial_basis((x + 1).div_int(2))
    assert isinstance(half, NotIntegral)
    assert dict(half.fractional)[0] == Fraction(1, 2)
    assert to_binomial_basis(MultiPoly.zero(("x",))) == NumericalPoly.zero()


def test_binomial_basis_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        original = NumericalPoly({rng.randint(0, 7): rng.randint(-6, 6) for _ in range(4)})
        back = to_binomial_basis(original.to_polynomial("x"))
        assert back == original


# -- scalar binomials ------------------------------------------------------------------


def test_binom_int_negative_arguments():
    # C(n,k) = (-1)^k C(k-n-1, k)
    for n in range(-6, 0):
        for k in range(0, 6):
            assert binom_int(n, k) == (-1) ** k * comb(k - n - 1, k)


# -- the universal scalar ---------------------------------------------------------------


def test_exactrational_invariants():
    """Fraction keeps gcd(|num|, den) = 1, den >= 1, and zero as 0/1 through
    arithmetic; this is the normalization contract every ring relies on."""
    from math import gcd

    rng = random.Random(5)
    for _ in range(300):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        for r in (a + b, a - b, a * b) + ((a / b,) if b else ()):
            assert r.denominator >= 1
            assert gcd(abs(r.numerator), r.denominator) == 1
    assert Fraction(0, 7) == Fraction(0, 1)
    assert Fraction(0, 7).denominator == 1
