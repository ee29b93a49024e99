"""The closed forms of `LaurentPoly.__pow__` and `TateKElem.__pow__` on
one-term values against square-and-multiply (`arith.power`), with the
inverse taken first for a negative exponent, and each result in the reduced
form its type keeps."""

from fractions import Fraction
from math import gcd

import pytest

from tatecalc.arith import power
from tatecalc.cli import main
from tatecalc.laurent import LaurentPoly
from tatecalc.tate_k import TateKElem

EXPONENTS = range(-8, 9)


def square_and_multiply(x, n: int, one):
    if n == 0:
        return one
    return power(x.inverse() if n < 0 else x, abs(n))


def assert_reduced_laurent(p: LaurentPoly) -> None:
    assert p.den > 0 and all(p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1


def assert_reduced_tate_k(x: TateKElem) -> None:
    assert_reduced_laurent(x.num)
    assert x.num.var == "q" and x.num.den == 1 and x.denom_pow >= 0
    if x.denom_pow:  # no factor 1-q left to cancel: the numerator does not vanish at q = 1
        assert sum(x.num.nums.values()) != 0


MONOMIALS = [
    LaurentPoly(var, {e: c})
    for var in ("c", "q", "beta", "x")
    for e in (-3, 0, 1, 4)
    for c in (1, -1, 2, -3, Fraction(1, 2), Fraction(-4, 9), Fraction(6, 5))
]


@pytest.mark.parametrize("x", MONOMIALS, ids=repr)
def test_a_one_term_laurent_power_is_square_and_multiply(x):
    one = LaurentPoly.one(x.var)
    for n in EXPONENTS:
        got = x**n
        assert got == square_and_multiply(x, n, one), n
        assert_reduced_laurent(got)


UNITS_AND_MULTIPLES = [
    (c, a, d)
    for c in (1, -1, 3, -2)
    for a in (-5, 0, 2)
    for d in (0, 1, 3)
]


@pytest.mark.parametrize("c,a,d", UNITS_AND_MULTIPLES)
def test_a_one_term_tate_k_power_is_square_and_multiply(c, a, d):
    """c q^a (1-q)^-d, where negative powers exist only for c = ±1."""
    x = TateKElem(LaurentPoly("q", {a: c}), d)
    for n in EXPONENTS:
        if n < 0 and c not in (1, -1):
            continue
        got = x**n
        assert got == square_and_multiply(x, n, TateKElem.one()), n
        if n >= 0:  # below 0 the inverse's numerator q^-a (1-q)^d has d + 1 terms
            assert got.num.nums == {a * n: c**n} and got.denom_pow == d * n
        assert_reduced_tate_k(got)


@pytest.mark.parametrize("x", [
    TateKElem(LaurentPoly("q", {0: 1, 1: -1})),          # 1-q, whose inverse is a pole
    TateKElem(LaurentPoly("q", {2: -1, 3: 1}), 1),       # -q^2
    TateKElem(LaurentPoly("q", {0: 1, 2: -1}), 3),       # (1+q) (1-q)^-2, not a unit
], ids=["one-minus-q", "cancelled-pole", "non-unit"])
def test_a_longer_tate_k_value_keeps_square_and_multiply(x):
    for n in range(0, 9):
        got = x**n
        assert got == square_and_multiply(x, n, TateKElem.one())
        assert_reduced_tate_k(got)


def test_the_inverse_of_a_unit_is_reduced():
    for num, d in (({0: 1, 1: -1}, 0), ({3: -1}, 2), ({0: 1, 1: -2, 2: 1}, 5), ({1: 1, 2: -1}, 0)):
        x = TateKElem(LaurentPoly("q", num), d)
        inv = x.inverse()
        assert inv * x == TateKElem.one()
        assert_reduced_tate_k(inv)


def test_a_far_monomial_power_is_not_refused(capsys):
    assert main(["eval", "q^1000000000"]) == 0
    assert capsys.readouterr().out == "q^1000000000\n"
    assert main(["eval", "(qinv^1000000000)^-3"]) == 0
    assert capsys.readouterr().out == "q^3000000000\n"
