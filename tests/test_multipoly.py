from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tatecalc.errors import DomainError, InexactDivisionError, NotInvertibleError
from tatecalc.laurent import LaurentPoly
from tatecalc.multipoly import MultiPoly, RationalFunction, binom_poly

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


@given(
    st.dictionaries(st.tuples(st.integers(0, 6)), small_fracs, max_size=5),
    st.dictionaries(st.tuples(st.integers(0, 6)), small_fracs, max_size=5),
)
def test_univariate_dense_path_matches_reference(a, b):
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


def test_to_laurent_keeps_univariate_coefficients():
    p = MultiPoly(("b",), {(0,): Fraction(1, 2), (3,): -2})
    assert p.to_laurent() == LaurentPoly("b", {0: Fraction(1, 2), 3: -2})
    with pytest.raises(DomainError):
        MultiPoly.var(GENS, "x").to_laurent()


def test_collapse_merges_generators():
    x = MultiPoly.var(GENS, "x")
    y = MultiPoly.var(GENS, "y")
    p = x * y + y * y
    assert p.collapse("y", "x") == MultiPoly(("x",), {(2,): 2})


def test_evaluate():
    x = MultiPoly.var(GENS, "x")
    y = MultiPoly.var(GENS, "y")
    p = x * x + y * 3 + 1
    assert p.evaluate({"x": 2, "y": Fraction(1, 3)}) == 6


def test_binom_poly_expands_falling_factorial():
    beta = MultiPoly.var(("beta",), "beta")
    # binom(-beta, 2) = (-beta)(-beta - 1)/2 = beta(beta+1)/2
    expected = (beta * beta + beta).div_int(2)
    assert binom_poly(-beta, 2) == expected
    assert binom_poly(beta, 0) == MultiPoly.const(("beta",), 1)
    # agreement with scalar binomials at integer points
    for n in range(8):
        assert binom_poly(beta, 3).evaluate({"beta": n}) == Fraction(
            n * (n - 1) * (n - 2), 6
        )


def test_inverse_display_generators():
    cinv = MultiPoly.var(("cinv",), "cinv")
    assert str(cinv * cinv) == "c^-2"
    assert str(cinv + 1) == "1 + c^-1"


class TestRationalFunction:
    beta = MultiPoly.var(("beta",), "beta")

    def rf(self, num, den):
        return RationalFunction(num, den)

    def test_normal_form(self):
        b = self.beta
        r = self.rf(b + 1, b * 2)
        assert str(r) == "(1 + beta)/(2*beta)"
        # common factors cancel, scaling is fixed
        r2 = self.rf((b + 1) * b * 2, b * b * 4)
        assert r2 == r
        # denominator leading coefficient is positive
        r3 = self.rf(b + 1, b * -2)
        assert r3.den.coeff((1,)) > 0

    def test_polynomial_detection(self):
        b = self.beta
        assert self.rf(b * b - 1, b + 1).is_polynomial()
        assert self.rf(b * b - 1, b + 1).as_polynomial() == b - 1
        assert not self.rf(b + 1, b).is_polynomial()
