"""Divided powers and numerical polynomials against independent oracles.

The divided-power oracle multiplies in Q[b] (b_k represented as b^k/k!); the
numerical-polynomial oracle works through pointwise integer values; the
binomial-basis conversion oracle evaluates over Fraction at 0..deg and takes
finite differences.
"""

import random
from fractions import Fraction
from math import comb, factorial, log10

import pytest
from hypothesis import given, strategies as st

from tatecalc.basis import (
    BASIS_MAX_WORK,
    DividedPowerElem,
    NotIntegral,
    NumericalPoly,
    binom_int,
    numerical_mul,
    to_binomial_basis,
)
from tatecalc.errors import DomainError
from tatecalc.laurent import LaurentPoly


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


def test_dp_basis_products_are_binomial_coefficients_up_to_2000():
    # b_i b_j = C(i+j, i) b_{i+j}; also across several terms at once
    b = DividedPowerElem.basis
    rng = random.Random(3)
    pairs = [(0, 0), (0, 2000), (1, 1999), (2000, 2000), (1000, 1000)]
    pairs += [(rng.randint(0, 2000), rng.randint(0, 2000)) for _ in range(20)]
    for i, j in pairs:
        assert b(i) * b(j) == DividedPowerElem({i + j: comb(i + j, i)})
    x = DividedPowerElem({1999: 2, 5: -3})
    y = DividedPowerElem({2000: 1, 7: 4})
    assert x * y == DividedPowerElem({3999: 2 * comb(3999, 1999), 2006: 8 * comb(2006, 7),
                                      2005: -3 * comb(2005, 5), 12: -12 * comb(12, 5)})


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
    # deg + 1 points fix the product; index 40 reaches far along the running ratio
    rng = random.Random(11)
    for top, pairs in ((5, 100), (40, 20)):
        for _ in range(pairs):
            x = NumericalPoly({rng.randint(0, top): rng.randint(-4, 4) for _ in range(3)})
            y = NumericalPoly({rng.randint(0, top): rng.randint(-4, 4) for _ in range(3)})
            p = numerical_mul(x, y)
            degrees = max(x.coords, default=-1) + max(y.coords, default=-1)
            for n in range(-3, max(21, degrees + 2)):
                assert p.evaluate(n) == x.evaluate(n) * y.evaluate(n)


# -- the work bound of a product ---------------------------------------------------------


def test_work_estimate_finds_the_largest_structure_constant():
    # _pair_work with coordinates of 0 digits is the number of terms times the
    # digits of the largest C(k,i) C(i,k-j), found by search here
    for i in range(50):
        for j in range(50):
            largest = max(comb(k, i) * comb(i, k - j) for k in range(max(i, j), i + j + 1))
            estimate = NumericalPoly._pair_work(i, j, 0) / (min(i, j) + 1)
            assert estimate == pytest.approx(log10(largest), abs=1e-9)
            assert DividedPowerElem._pair_work(i, j, 0) == pytest.approx(
                (lambda d: d * d / 4 + d)(log10(comb(i + j, i))), abs=1e-6)


def test_interactive_products_stay_far_below_the_work_bound():
    # beta_i*beta_j for i, j <= 120 and b_i*b_j for i, j <= 40, the products
    # an interactive session asks for; beta_3000^3 is refused at its last step
    beta, b = NumericalPoly.basis, DividedPowerElem.basis
    assert beta(120)._work(beta(120)) < BASIS_MAX_WORK / 10**4
    assert b(40)._work(b(40)) < BASIS_MAX_WORK / 10**6
    square = beta(3000) * beta(3000)
    with pytest.raises(DomainError, match="digit operations, above the bound of 2e[+]09$"):
        square * beta(3000)


def test_numerical_evaluate_matches_comb():
    x = NumericalPoly({0: 2, 3: -1, 5: 4})
    assert values_oracle(x, 12) == [x.evaluate(n) for n in range(12)]
    # negative arguments use the generalized binomial
    assert x.evaluate(-2) == 2 - binom_int(-2, 3) + 4 * binom_int(-2, 5)


# -- binomial-basis conversion --------------------------------------------------------


def fraction_binomial_oracle(p: LaurentPoly) -> tuple[list, list]:
    """(coords, fractional) by the Fraction construction: evaluate p over
    Fraction at 0..deg, then take forward differences at 0."""
    row = [sum(Fraction(v) * n ** e for e, v in p.coeffs.items()) for n in range(p.hi() + 1)]
    coords = []
    for k in range(len(row)):
        if row[0]:
            coords.append((k, row[0]))
        row = [b - a for a, b in zip(row, row[1:])]
    return coords, [(k, c) for k, c in coords if c.denominator != 1]


def conversion_split(conv: NumericalPoly | NotIntegral) -> tuple[list, list]:
    if isinstance(conv, NotIntegral):
        return list(conv.coords), [(k, c) for k, c in conv.coords if c.denominator != 1]
    return [(k, Fraction(v)) for k, v in sorted(conv.coords.items())], []


def assert_matches_oracle(p: LaurentPoly) -> None:
    assert conversion_split(to_binomial_basis(p)) == fraction_binomial_oracle(p)


def test_to_binomial_basis_examples():
    x = LaurentPoly("x", {1: 1})
    assert to_binomial_basis(x * x) == NumericalPoly({1: 1, 2: 2})
    half = to_binomial_basis((x + 1) * Fraction(1, 2))
    assert isinstance(half, NotIntegral)
    assert dict(half.coords)[0] == Fraction(1, 2)
    assert to_binomial_basis(LaurentPoly.zero("x")) == NumericalPoly.zero()
    assert to_binomial_basis(LaurentPoly("x", {0: -7})) == NumericalPoly({0: -7})


def test_to_binomial_basis_rejects_negative_exponents():
    with pytest.raises(DomainError):
        to_binomial_basis(LaurentPoly("beta", {-1: 1, 0: 1}))


@given(st.dictionaries(
    st.integers(0, 40),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    max_size=8,
))
def test_to_binomial_basis_matches_fraction_oracle(coeffs):
    assert_matches_oracle(LaurentPoly("x", coeffs))


def test_to_binomial_basis_matches_fraction_oracle_seeded():
    rng = random.Random(13)
    cases = [LaurentPoly("x"), LaurentPoly("x", {0: 5}), LaurentPoly("x", {0: Fraction(-3, 4)})]
    for deg in (1, 2, 7, 23, 40):
        for _ in range(4):
            cases.append(LaurentPoly("x", {
                e: Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 5, 6, 7, 12, 720)))
                for e in range(deg + 1)
            } | {deg: Fraction(rng.choice((-1, 1)), rng.randint(1, 9))}))
    for p in cases:
        assert_matches_oracle(p)


def test_binomial_basis_round_trip():
    rng = random.Random(3)
    binoms = LaurentPoly("x", {1: 1}).binomials(7)
    for _ in range(50):
        original = NumericalPoly({rng.randint(0, 7): rng.randint(-6, 6) for _ in range(4)})
        expanded = LaurentPoly.zero("x")
        for k, v in original.coords.items():
            expanded = expanded + binoms[k] * v
        assert to_binomial_basis(expanded) == original


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


def test_binom_int_rejects_a_negative_index():
    with pytest.raises(DomainError, match="^binomial index must be non-negative$"):
        binom_int(5, -1)


def test_repr_names_the_type_and_its_coordinates():
    assert repr(DividedPowerElem({1: 2})) == "DividedPowerElem({1: 2})"
    assert repr(NumericalPoly({0: -1, 3: 4})) == "NumericalPoly({0: -1, 3: 4})"
