from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from tatecalc.errors import (
    DomainError, InexactDivisionError, NotInvertibleError, VariableMismatchError,
)
from tatecalc.laurent import LaurentPoly
from tatecalc.multipoly import MultiPoly, RationalFunction, SparseAccumulator

GENS = ("x", "y")


def poly(terms):
    return MultiPoly(GENS, terms)


def naive_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    # reference convolution straight over Fractions, no integer rescaling
    out = {}
    for ea, va in a.terms.items():
        for eb, vb in b.terms.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + va * vb
    return MultiPoly(a.gens, out)


small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
term_dicts = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), small_fracs, max_size=5
)


@given(term_dicts, term_dicts)
def test_fast_multiplication_matches_reference(a, b):
    pa, pb = poly(a), poly(b)
    assert pa * pb == naive_mul(pa, pb)


@given(st.lists(st.tuples(term_dicts, term_dicts), min_size=1, max_size=4))
def test_a_sum_of_products_over_several_denominators_matches_the_reference(products):
    # the products' denominators differ, so the sum's common one is an lcm
    acc = SparseAccumulator(GENS)
    want = MultiPoly.zero(GENS)
    for a, b in products:
        acc.add(poly(a), poly(b))
        want = want + naive_mul(poly(a), poly(b))
    got = acc.value()
    assert got == want
    assert all(type(v) is Fraction and v for v in got.terms.values())


@given(
    st.dictionaries(st.tuples(st.integers(0, 6)), small_fracs, max_size=5),
    st.dictionaries(st.tuples(st.integers(0, 6)), small_fracs, max_size=5),
)
def test_univariate_multiplication_matches_reference(a, b):
    pa, pb = MultiPoly(("x",), a), MultiPoly(("x",), b)
    assert pa * pb == naive_mul(pa, pb)


def test_div_exact_by_monomial_and_general():
    x = MultiPoly.var(GENS, "x")
    y = MultiPoly.var(GENS, "y")
    p = x * x * y + x * y * y * 3
    assert p.div_exact(x * y) == x + y * 3
    q = (x + y) * (x - y)
    assert q.div_exact(x + y) == x - y
    with pytest.raises(InexactDivisionError):
        (x + 1).div_exact(y)


def test_negative_power_is_typed_error():
    x = MultiPoly.var(GENS, "x")
    with pytest.raises(NotInvertibleError):
        x ** -1


def value_at(p: LaurentPoly, x: Fraction | int) -> Fraction:
    """A polynomial at a rational point, term by term over Fraction."""
    return sum((v * Fraction(x) ** e for e, v in p.coeffs.items()), Fraction(0))


def test_binom_poly_expands_falling_factorial():
    # the binomials of a polynomial argument live on LaurentPoly
    beta = LaurentPoly("beta", {1: 1})
    # binom(-beta, 2) = (-beta)(-beta - 1)/2 = beta(beta+1)/2
    expected = (beta * beta + beta) * Fraction(1, 2)
    assert (-beta).binomials(2)[2] == expected
    assert beta.binomials(0) == [LaurentPoly.one("beta")]
    # agreement with scalar binomials at integer points
    for n in range(8):
        assert value_at(beta.binomials(3)[3], n) == Fraction(
            n * (n - 1) * (n - 2), 6
        )


def test_inverse_display_generators():
    cinv = MultiPoly.var(("cinv",), "cinv")
    assert str(cinv * cinv) == "c^-2"
    assert str(cinv + 1) == "1 + c^-1"


class TestRationalFunction:
    @staticmethod
    def shown(coeffs):
        return str(RationalFunction(LaurentPoly("beta", coeffs)))

    def test_normal_form(self):
        assert self.shown({-1: Fraction(1, 2), 0: Fraction(1, 2)}) == "(1 + beta)/(2*beta)"
        assert self.shown({-2: 1, 1: -3}) == "(1 - 3*beta^3)/(beta^2)"

    def test_one_term_numerator_has_no_parentheses(self):
        assert self.shown({-1: 3}) == "3/beta"
        assert self.shown({-2: Fraction(-1, 4)}) == "-1/(4*beta^2)"

    def test_content_moves_to_the_denominator(self):
        assert self.shown({-1: Fraction(1, 6), 0: Fraction(1, 3)}) == "(1 + 2*beta)/(6*beta)"
        assert self.shown({-1: 2, 0: 4}) == "(2 + 4*beta)/beta"

    @given(st.dictionaries(st.integers(-4, 4), small_fracs, min_size=1, max_size=5))
    def test_numerator_is_coprime_to_the_denominator(self, coeffs):
        c = LaurentPoly("beta", coeffs)
        r = RationalFunction(c)
        if c.lo() >= 0:
            assert (r.num, r.den) == (c, 1)
            return
        (m, d), = r.den.coeffs.items()
        assert m == -c.lo() and d > 0
        assert r.num.lo() == 0 and r.num.is_integral()
        assert gcd(d, *r.num.coeffs.values()) == 1
        assert r.num == c.shifted(m) * d

    def test_polynomial_renders_as_itself(self):
        c = LaurentPoly("beta", {0: Fraction(1, 2), 2: -3})
        assert self.shown(c.coeffs) == str(c) == "1/2 - 3*beta^2"

    def test_zero_renders_0(self):
        assert self.shown({}) == "0"


@pytest.mark.parametrize("expo", [(1,), (0, -1)])
def test_constructor_rejects_a_bad_exponent_vector(expo):
    with pytest.raises(DomainError, match="^bad exponent vector"):
        MultiPoly(("x", "y"), {expo: 1})


def test_polynomials_over_other_generators_do_not_combine():
    with pytest.raises(VariableMismatchError,
                       match=r"^cannot combine polynomials over \('x',\) and \('y',\)$"):
        MultiPoly.var(("x",), "x") + MultiPoly.var(("y",), "y")


def test_reprs():
    assert repr(MultiPoly(("x",), {(2,): 3})) == "MultiPoly(('x',), {(2,): Fraction(3, 1)})"
    assert repr(RationalFunction(LaurentPoly("beta", {-1: 1}))) == (
        "RationalFunction(LaurentPoly('beta', {0: 1}), LaurentPoly('beta', {1: 1}))")
