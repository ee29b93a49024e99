"""The shared square-and-multiply routine behind every `__pow__`."""

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from tatecalc.arith import power
from tatecalc.basis import DividedPowerElem, NumericalPoly
from tatecalc.laurent import LaurentPoly
from tatecalc.multipoly import MultiPoly
from tatecalc.series import QQ, TruncSeries
from tatecalc.tate_k import TateKElem

X = MultiPoly.var(("x", "y"), "x") + MultiPoly.var(("x", "y"), "y") * Fraction(1, 3)

BASES = {
    "laurent": LaurentPoly("q", {-1: 2, 0: 1, 2: -1}),
    "multipoly": X + 1,
    "divided-power": DividedPowerElem({1: 1, 2: -1}),
    "numerical": NumericalPoly({0: 1, 1: 2, 2: 1}),
    "tate-k": TateKElem(LaurentPoly("q", {0: 2, 1: 1}), 1),
    # a Laurent tail: every product lowers the reliable order
    "laurent-series": TruncSeries.from_coeffs(QQ, -1, [Fraction(1), Fraction(1), Fraction(2)],
                                              order=4),
}


@pytest.mark.parametrize("kind", sorted(BASES))
def test_power_matches_repeated_product(kind):
    base = BASES[kind]
    for n in range(1, 8):
        assert power(base, n) == reduce(mul, [base] * n), n


def test_dunders_delegate_and_keep_zero_exponent_rules():
    s = BASES["laurent-series"]
    assert s ** 3 == s * s * s
    assert (s ** 2).order == 3 and s ** 0 == TruncSeries.one(QQ, 4)
    assert DividedPowerElem.basis(1) ** 5 == DividedPowerElem({5: 120})
    assert DividedPowerElem.basis(1) ** 0 == DividedPowerElem.one()
    assert X ** 0 == MultiPoly.const(X.gens, 1)
    assert TateKElem(LaurentPoly("q", {1: 1})) ** -2 == TateKElem(LaurentPoly("q", {-2: 1}))
