"""Ring laws, checked generically over every coefficient ring the engine uses.

Each case gives a strategy for elements, the ring's zero and one, and its
exact division by a nonzero integer n: over a rational ring, * Fraction(1, n),
as exp and log divide; otherwise the elements' own exact division (ZZ's
through its descriptor).  The laws are the commutative ring axioms,
n - x == -(x - n) for an int n, and the round trip (x * n) / n == x.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tatecalc.basis import DividedPowerElem, NumericalPoly
from tatecalc.laurent import LaurentPoly
from tatecalc.multipoly import MultiPoly
from tatecalc.series import (
    QQ, ZZ, TruncSeries, laurent_coeff_ring, numerical_ring, poly_ring,
)
from tatecalc.tate_k import TateKElem

small_ints = st.integers(-6, 6)
small_fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
basis_coords = st.dictionaries(st.integers(0, 5), small_ints, max_size=4)


def _basis_case(cls):
    return basis_coords.map(cls), cls.zero(), cls.one(), cls.div_int_exact


def _by_fraction(a, n):
    return a * Fraction(1, n)


def _ring_case(ring, elements, div_int=_by_fraction):
    assert ring.rational == (div_int is _by_fraction)
    return elements, ring.zero, ring.one, div_int


def _laurent(coeffs):
    return st.dictionaries(st.integers(-3, 3), coeffs, max_size=4).map(lambda d: LaurentPoly("x", d))


_POLYS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), small_fracs,
                         max_size=4).map(lambda d: MultiPoly(("x", "y"), d))

CASES = {
    "DividedPowerElem": _basis_case(DividedPowerElem),
    "NumericalPoly": _basis_case(NumericalPoly),
    "ZZ": _ring_case(ZZ, st.integers(-50, 50), ZZ.div_exact),
    "QQ": _ring_case(QQ, small_fracs),
    "QQ[x,y]": _ring_case(poly_ring("x", "y"), _POLYS),
    "ZZ[x^±1]": _ring_case(laurent_coeff_ring("x", integral=True), _laurent(small_ints),
                           LaurentPoly.div_scalar_exact),
    "QQ[x^±1]": _ring_case(laurent_coeff_ring("x"), _laurent(small_fracs)),
    "Z[beta_*]": _ring_case(numerical_ring(), basis_coords.map(NumericalPoly),
                            NumericalPoly.div_int_exact),
}

LAWS = settings(max_examples=40, deadline=None)
cases = pytest.mark.parametrize("case", sorted(CASES))


def _elements(data, case, n):
    elements = CASES[case][0]
    return [data.draw(elements) for _ in range(n)]


@cases
@LAWS
@given(data=st.data())
def test_addition_is_associative_and_commutative(case, data):
    a, b, c = _elements(data, case, 3)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@cases
@LAWS
@given(data=st.data())
def test_multiplication_is_associative_and_commutative(case, data):
    a, b, c = _elements(data, case, 3)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@cases
@LAWS
@given(data=st.data())
def test_multiplication_distributes_over_addition(case, data):
    a, b, c = _elements(data, case, 3)
    assert a * (b + c) == a * b + a * c
    assert a * (b - c) == a * b - a * c


@cases
@LAWS
@given(data=st.data())
def test_zero_and_one_are_identities(case, data):
    _, zero, one, _ = CASES[case]
    (a,) = _elements(data, case, 1)
    assert a + zero == a
    assert a - a == zero
    assert a * one == a
    assert a * zero == zero


@cases
@LAWS
@given(data=st.data(), n=st.integers(-9, 9))
def test_an_integer_minus_an_element_negates_the_difference(case, data, n):
    (a,) = _elements(data, case, 1)
    assert n - a == -(a - n)


@cases
@LAWS
@given(data=st.data(), n=st.integers(-9, 9).filter(bool))
def test_integer_scaling_round_trips_through_exact_division(case, data, n):
    div_int = CASES[case][3]
    (a,) = _elements(data, case, 1)
    assert div_int(a * n, n) == a
    assert n * a == a * n


@pytest.mark.parametrize("cls", [DividedPowerElem, NumericalPoly])
def test_integer_basis_division_by_zero(cls):
    with pytest.raises(ZeroDivisionError, match="^division by zero scalar$"):
        cls({1: 2}).div_int_exact(0)


@pytest.mark.parametrize("a,b", [
    (DividedPowerElem.basis(1), NumericalPoly.basis(1)),
    (LaurentPoly("b", {1: 1}), DividedPowerElem.basis(1)),
    (MultiPoly.var(("b",), "b"), LaurentPoly("b", {1: 1})),
], ids=["two-bases", "laurent-basis", "poly-laurent"])
def test_two_element_types_neither_compare_equal_nor_combine(a, b):
    # each type's operators return NotImplemented for the other, so == falls
    # back to identity and + and * raise TypeError
    assert not a == b and not b == a
    for op in (operator.add, operator.mul):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(TypeError):
                op(x, y)


def test_a_series_and_a_tate_k_element_equal_no_other_type():
    s = TruncSeries.one(ZZ, 2)
    assert not s == 1
    with pytest.raises(TypeError):
        s + 1
    assert not TateKElem.one() == LaurentPoly.one("q")
