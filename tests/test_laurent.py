from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tatecalc import laurent
from tatecalc.errors import (
    DomainError, InexactDivisionError, NotInvertibleError, VariableMismatchError,
)
from tatecalc.laurent import LaurentPoly


def lp(var, coeffs):
    return LaurentPoly(var, coeffs)


def test_product_distributes_over_laurent_tail():
    # (c + c^-1) * c^-1 = 1 + c^-2
    left = lp("c", {1: 1, -1: 1}) * lp("c", {-1: 1})
    assert left == lp("c", {0: 1, -2: 1})


def test_telescoping_product():
    # (1 - q)(1 + q + q^2) = 1 - q^3
    assert lp("q", {0: 1, 1: -1}) * lp("q", {0: 1, 1: 1, 2: 1}) == lp("q", {0: 1, 3: -1})


def test_exponent_addition():
    assert lp("c", {-2: 1}) * lp("c", {-3: 1}) == lp("c", {-5: 1})


def test_variable_mismatch_is_typed():
    with pytest.raises(VariableMismatchError):
        lp("c", {0: 1}) + lp("q", {0: 1})
    with pytest.raises(VariableMismatchError):
        lp("c", {0: 1}) * lp("q", {0: 1})


def test_no_zero_coefficients_stored():
    p = lp("c", {2: 1}) - lp("c", {2: 1})
    assert p.coeffs == {}
    assert p.is_zero()
    q = lp("c", {0: 3, 1: Fraction(4, 2)})
    assert q.coeffs == {0: 3, 1: 2}
    assert q.is_integral()


coeff_dicts = st.dictionaries(
    st.integers(min_value=-8, max_value=8), st.integers(min_value=-9, max_value=9), max_size=6
)


@given(coeff_dicts, coeff_dicts, coeff_dicts)
def test_ring_axioms(a, b, c):
    x, y, z = lp("c", a), lp("c", b), lp("c", c)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(coeff_dicts, coeff_dicts)
def test_normalization_invariant_after_arithmetic(a, b):
    x, y = lp("c", a), lp("c", b)
    for result in (x + y, x - y, x * y):
        assert all(v != 0 for v in result.coeffs.values())
        assert all(isinstance(v, int) for v in result.coeffs.values())


def test_monomial_inverse_and_powers():
    assert lp("q", {3: 1}) ** -1 == lp("q", {-3: 1})
    assert lp("q", {-2: -1}).inverse() == lp("q", {2: -1})
    with pytest.raises(NotInvertibleError):
        lp("q", {0: 1, 1: 1}).inverse()
    assert lp("q", {1: 2}) ** 0 == LaurentPoly.one("q")


def test_exact_division():
    one_minus_q = lp("q", {0: 1, 1: -1})
    p = one_minus_q * lp("q", {-1: 2, 0: 5, 3: -1})
    assert p.div_exact(one_minus_q) == lp("q", {-1: 2, 0: 5, 3: -1})
    with pytest.raises(InexactDivisionError):
        lp("q", {0: 1}).div_exact(one_minus_q)
    with pytest.raises(InexactDivisionError):
        lp("q", {0: 3}).div_scalar_exact(2)


def long_division(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Schoolbook long division over Fraction from the top degree down, the
    oracle for division by a unit; asserts that it leaves no remainder."""
    rem = {e: Fraction(v) for e, v in a.coeffs.items()}
    top, lead = b.hi(), Fraction(b.coeff(b.hi()))
    quo = {}
    for e in range(a.hi(), a.lo() - 1, -1):
        c = rem.pop(e, 0)
        if c and e - top >= a.lo() - b.lo():
            quo[e - top] = c / lead
            for eb, vb in b.coeffs.items():
                if eb != top:
                    rem[e - top + eb] = rem.get(e - top + eb, 0) - c / lead * vb
        else:
            assert not c
    return LaurentPoly(a.var, quo)


scalars = st.one_of(st.integers(-9, 9), st.fractions(-4, 4, max_denominator=5))


@given(st.dictionaries(st.integers(-8, 8), scalars, max_size=6), st.integers(-5, 5),
       scalars.filter(bool))
def test_division_by_a_unit_matches_long_division(a, e, v):
    x, unit = lp("q", a), lp("q", {e: v})
    expected = long_division(x, unit)
    assert x.div_exact(unit, over_integers=False) == expected
    if x.is_integral() and unit.is_integral() and not expected.is_integral():
        with pytest.raises(InexactDivisionError) as err:
            x.div_exact(unit)
        assert str(err.value) == f"{unit} does not divide {x} over the integers"
    else:
        assert x.div_exact(unit) == expected


def test_division_by_a_non_unit_monomial_over_the_integers_is_refused():
    with pytest.raises(InexactDivisionError, match=r"^2\*q does not divide q over the integers$"):
        lp("q", {1: 1}).div_exact(lp("q", {1: 2}))
    assert lp("q", {1: 1}).div_exact(lp("q", {1: 2}), over_integers=False) == lp(
        "q", {0: Fraction(1, 2)})


def test_a_sum_of_products_spanning_more_than_the_bound_is_refused(monkeypatch):
    monkeypatch.setattr(laurent, "MAX_SPAN", 10)
    x = LaurentPoly("q", {-3: 1, 5: 2})
    assert x * LaurentPoly("q", {0: 1, 1: 1}) == LaurentPoly("q", {-3: 1, -2: 1, 5: 2, 6: 2})
    with pytest.raises(DomainError, match="q\\^-3..q\\^7 spans more than 10 exponents"):
        x * LaurentPoly("q", {0: 1, 2: 1})
    # the span counts the whole sum, not each product alone
    acc = LaurentPoly.accumulator("q")
    acc.add(LaurentPoly("q", {0: 1}), LaurentPoly("q", {-5: 1}))
    acc.add(LaurentPoly("q", {0: 1}), LaurentPoly("q", {4: 1}))
    with pytest.raises(DomainError):
        acc.add(LaurentPoly("q", {0: 1}), LaurentPoly("q", {5: 1}))
    assert acc.value() == LaurentPoly("q", {-5: 1, 4: 1})


def test_dilation():
    p = lp("q", {-1: 1, 2: 3})
    assert p.dilated(2) == lp("q", {-2: 1, 4: 3})


def test_rendering():
    assert str(lp("q", {2: 1, -2: 1})) == "q^-2 + q^2"
    assert str(lp("c", {0: 1, -1: 2, 3: -1})) == "2*c^-1 + 1 - c^3"
    assert str(LaurentPoly.zero("c")) == "0"
    assert lp("q", {-1: Fraction(1, 2)}).to_json() == [[-1, "1", "2"]]
