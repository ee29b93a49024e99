import os
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tatecalc import cli, laurent, verify
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
    # a one-term factor shifts and scales, under the same bound and message
    shift = LaurentPoly("q", {3: 2})
    assert LaurentPoly("q", {-4: 1, 5: 1}) * shift == LaurentPoly("q", {-1: 2, 8: 2})
    with pytest.raises(DomainError, match="^a product over q\\^-2..q\\^8 spans more than 10 "
                                          "exponents$"):
        LaurentPoly("q", {-5: 1, 5: 1}) * shift
    # the span counts the whole sum, not each product alone
    acc = laurent.DenseAccumulator("q")
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


def is_canonical(p: LaurentPoly) -> bool:
    """No coefficient is zero, and an integral one is stored as an int."""
    return all(
        v != 0 and (type(v) is int or (type(v) is Fraction and v.denominator != 1))
        for v in p.coeffs.values()
    )


exact_dicts = st.dictionaries(st.integers(-8, 8), scalars, max_size=6)


def assert_reduced(p: LaurentPoly, want: dict) -> None:
    """p is a LaurentPoly of nums over den in reduced form, its integrality
    follows den, and its coefficients are the Fraction oracle's."""
    assert p.den > 0 and all(p.nums.values()) and gcd(p.den, *p.nums.values()) == 1
    assert type(p) is LaurentPoly
    assert p.is_integral() == (p.den == 1)
    assert p.coeffs == want and is_canonical(p), (p.coeffs, want)


@given(exact_dicts, exact_dicts, st.integers(-4, 4), st.integers(1, 4), scalars.filter(bool))
def test_every_ring_operation_result_is_canonical(a, b, k, m, s):
    # int and Fraction operands: sums and products of two Fractions can be
    # integral, and a sum can cancel to zero
    x, y = lp("q", a), lp("q", b)
    mono, unit = lp("q", {k: Fraction(1, 2)}), lp("q", {k: s})
    fa, fb = oracle_add(a, {}), oracle_add(b, {})
    half, r = {k: Fraction(1, 2)}, 1 / Fraction(s)
    xy = oracle_mul(fa, fb)
    binoms = [{0: 1}]
    for j in range(1, 4):
        binoms.append(oracle_mul(oracle_mul(binoms[-1], oracle_add(fa, {0: 1 - j})), {0: Fraction(1, j)}))
    cases = [
        (x, fa), (y, fb),
        (x + y, oracle_add(fa, fb)), (x - y, oracle_add(fa, oracle_mul(fb, {0: -1}))),
        (-x, oracle_mul(fa, {0: -1})), (x * y, xy),
        (x * mono, oracle_mul(fa, half)), (mono * y, oracle_mul(half, fb)),
        (x.shifted(k), {e + k: v for e, v in fa.items()}),
        (x.dilated(m), {e * m: v for e, v in fa.items()}),
        ((x * y).shifted(k), {e + k: v for e, v in xy.items()}),
        ((x * y).dilated(m), {e * m: v for e, v in xy.items()}),
        (x + 1, oracle_add(fa, {0: 1})), (1 - x, oracle_add({0: 1}, oracle_mul(fa, {0: -1}))),
        (x * 3, oracle_mul(fa, {0: 3})), (x * s, oracle_mul(fa, {0: s})),
        (x * Fraction(1, 2), oracle_mul(fa, {0: Fraction(1, 2)})),
        (unit.inverse(), {-k: r}), (unit ** -2, {-2 * k: r * r}),
        *zip(x.binomials(3), binoms),
    ]
    quotient = oracle_mul(fa, {0: r})
    if x.is_integral() and any(Fraction(v).denominator != 1 for v in quotient.values()):
        with pytest.raises(InexactDivisionError):
            x.div_scalar_exact(s)
    else:
        cases.append((x.div_scalar_exact(s), quotient))
    for result, want in cases:
        assert_reduced(result, want)


@given(coeff_dicts, coeff_dicts)
def test_pi_minus_and_its_rota_baxter_terms_are_canonical(a, b):
    from tatecalc import tate_h
    x, y = lp("c", a), lp("c", b)
    px = tate_h.pi_minus(x)
    assert is_canonical(px)
    assert is_canonical(tate_h.rota_baxter_defect(x, y))
    assert px == LaurentPoly("c", {e: v for e, v in a.items() if e < 0})


def reference_product(x: LaurentPoly, y: LaurentPoly) -> LaurentPoly:
    out = {}
    for e, u in x.coeffs.items():
        for f, v in y.coeffs.items():
            out[e + f] = out.get(e + f, 0) + u * v
    return LaurentPoly(x.var, out)


@given(exact_dicts, st.integers(-6, 6), scalars.filter(bool))
def test_a_product_with_a_one_term_factor_is_a_shift_and_a_scale(a, e, v):
    # hypothesis runs many examples per test, so the patch is undone by hand
    x, mono = lp("q", a), lp("q", {e: v})
    real = laurent.DenseAccumulator

    def refuse(var):
        raise AssertionError("a one-term product built a dense accumulator")

    laurent.DenseAccumulator = refuse
    try:
        left, right = x * mono, mono * x
    finally:
        laurent.DenseAccumulator = real
    assert left == right == reference_product(x, mono)


def test_a_wide_one_term_product_needs_no_dense_list_and_keeps_the_span_bound(monkeypatch):
    def refuse(var):
        raise AssertionError("a one-term product built a dense accumulator")

    monkeypatch.setattr(laurent, "DenseAccumulator", refuse)
    wide = LaurentPoly("q", {0: -1, 4000000: 1})
    assert wide * LaurentPoly("q", {3: -2}) == LaurentPoly("q", {3: 2, 4000003: -2})
    # (1 + q^1000000000) * q still spans more than MAX_SPAN, and says so as before
    with pytest.raises(DomainError, match=r"^a product over q\^1..q\^1000000001 spans more "
                                          r"than 4194304 exponents$"):
        LaurentPoly("q", {0: 1, 10**9: 1}) * LaurentPoly("q", {1: 1})


# -- rational results held as their integer form -------------------------------

def oracle_add(a: dict, b: dict) -> dict:
    out = {e: Fraction(v) for e, v in a.items()}
    for e, v in b.items():
        out[e] = out.get(e, 0) + v
    return {e: v for e, v in out.items() if v}


def oracle_mul(a: dict, b: dict) -> dict:
    out = {}
    for e, u in a.items():
        for f, v in b.items():
            out[e + f] = out.get(e + f, 0) + Fraction(u) * v
    return {e: v for e, v in out.items() if v}


def assert_matches(p: LaurentPoly, want: dict) -> None:
    """p has the oracle's coefficients, and its integer form is canonical:
    pairs sorted by exponent, no zero numerator, and the denominator the lcm
    of the reduced coefficient denominators."""
    pairs, den = p._int_form()
    assert [e for e, _ in pairs] == sorted(want)
    assert all(n for _, n in pairs)
    assert den == lcm(1, *(Fraction(v).denominator for v in want.values()))
    assert {e: Fraction(n, den) for e, n in pairs} == want
    assert p == LaurentPoly(p.var, want) and LaurentPoly(p.var, want) == p
    assert p.coeffs == want and is_canonical(p)


rational_dicts = st.dictionaries(st.integers(-6, 6), scalars.filter(bool), min_size=1, max_size=5)


@given(rational_dicts, rational_dicts, rational_dicts, st.integers(-4, 4), scalars.filter(bool))
def test_held_results_match_a_fraction_oracle(a, b, c, k, v):
    # x * y is summed by the accumulator, so a rational one is held as its
    # integer form; each operation below starts from such a result
    x, y, z = lp("x", a), lp("x", b), lp("x", c)
    mono = {k: v}
    xy = oracle_mul(a, b)
    cases = [
        (lambda: x * y, xy),
        (lambda: x * y + z, oracle_add(xy, c)),
        (lambda: z + x * y, oracle_add(c, xy)),
        (lambda: z - x * y, oracle_add(c, {e: -u for e, u in xy.items()})),
        (lambda: x * y + x * y, oracle_add(xy, xy)),
        (lambda: x * y - x * y, {}),
        (lambda: -(x * y), {e: -u for e, u in xy.items()}),
        (lambda: x * y * z, oracle_mul(xy, c)),
        (lambda: z * (x * y), oracle_mul(c, xy)),
        (lambda: x * y * lp("x", mono), oracle_mul(xy, mono)),
        (lambda: lp("x", mono) * (x * y), oracle_mul(mono, xy)),
        (lambda: x * y * v, oracle_mul(xy, {0: v})),
        (lambda: 3 * (x * y), oracle_mul(xy, {0: 3})),
        (lambda: (x * y).shifted(k), {e + k: u for e, u in xy.items()}),
        (lambda: x * y + 1, oracle_add(xy, {0: 1})),
        (lambda: 1 - x * y, oracle_add({0: 1}, {e: -u for e, u in xy.items()})),
    ]
    for op, want in cases:
        assert_matches(op(), want)


def test_a_held_polynomial_equals_and_renders_as_one_built_from_its_fractions():
    x = lp("x", {-1: Fraction(1, 2), 2: Fraction(-2, 3)})
    y = lp("x", {0: 3, 1: Fraction(1, 4), 4: 6})
    built = lp("x", dict(sorted(oracle_mul(x.coeffs, y.coeffs).items())))
    held = x * y
    assert held == built and built == held and not held != built
    assert (held.lo(), held.hi(), held.is_zero(), held.is_integral()) == (-1, 6, False, False)
    assert str(x * y) == str(built) == "3/2*x^-1 + 1/8 - 2*x^2 + 17/6*x^3 - 4*x^6"
    assert (x * y).to_json() == built.to_json()
    assert repr(x * y) == repr(built)
    assert (x * y).coeff(3) == Fraction(17, 6) and (x * y).coeff(1) == 0
    assert type((x * y).coeff(6)) is int  # an integral coefficient reads as an int
    assert held != built + 1 and held != 0
    # an integral sum of held results is a plain polynomial again
    assert type(x * y - x * y + 1) is LaurentPoly


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins the process to one CPU")
def test_verify_all_reads_no_coefficient_view(monkeypatch):
    # the engine reads nums and den; `coeffs` is built on each read, so a
    # read on an engine path would cost a dict (and Fractions) per call.
    # Pinned to one CPU, `all` runs every suite in this process.
    reads = []
    view = LaurentPoly.coeffs.fget
    monkeypatch.setattr(LaurentPoly, "coeffs", property(lambda p: reads.append(p) or view(p)))
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        assert verify.run_suite("all", 24, 1).passed
    finally:
        os.sched_setaffinity(0, mask)
    assert reads == []
    assert repr(lp("x", {1: Fraction(1, 2)})) == "LaurentPoly('x', {1: Fraction(1, 2)})"
    assert len(reads) == 1  # the count is live


@pytest.mark.parametrize("golden", ["q_integrality_o16.txt", "q_integrality_o16.json"])
def test_the_q_integrality_report_reads_no_coefficient_view(monkeypatch, capsys, golden):
    # its rows are rational polynomials, printed and serialised from nums and den
    reads = []
    view = LaurentPoly.coeffs.fget
    monkeypatch.setattr(LaurentPoly, "coeffs", property(lambda p: reads.append(p) or view(p)))
    argv = ["report", "q-integrality", "--order", "16"] + (["--json"] if golden.endswith("json") else [])
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (Path(__file__).parent / "golden" / golden).read_text()
    assert reads == []
    repr(lp("x", {1: Fraction(1, 2)}))
    assert len(reads) == 1  # the count is live


class _Printed:
    """A coefficient that is not an int and prints as the int it holds, so
    `render_terms` writes it by its text rule."""

    def __init__(self, value: int):
        self.value = value

    def __str__(self) -> str:
        return str(self.value)


_INT_COEFFS = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-10**400, 10**400),
                        st.integers(-10**12, 10**12))


@given(st.lists(st.tuples(st.sampled_from(["", "x", "x^-3", "b_2", "(1-q)^-1"]), _INT_COEFFS),
                max_size=6))
def test_an_int_coefficient_renders_as_its_text_would(terms):
    # the int path writes sign and magnitude; the text path reads str() back
    as_text = [(mono, _Printed(v)) for mono, v in terms]
    assert laurent.render_terms(terms, str) == laurent.render_terms(as_text, str)
