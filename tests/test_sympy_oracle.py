"""An independent oracle: sympy's own series expansions and Bernoulli numbers.

sympy is a test-only dependency (skipped where it is missing) and shares no
code with the engine: each series below is expanded by sympy from its
closed form and compared coefficient by coefficient, as exact rationals,
with the engine's series through T^10.
"""

from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from tatecalc import renorm, tate_h, tate_k  # noqa: E402
from tatecalc.series import bernoulli_number  # noqa: E402

ORDER = 10
T, b, x, y, beta = sp.symbols("T b x y beta")


def sympy_coeffs(expr, var) -> list[dict[int, Fraction]]:
    """The T^0..T^ORDER coefficients of expr, each as {exponent of var: value}."""
    series = sp.series(expr, T, 0, ORDER + 1).removeO()
    out = []
    for k in range(ORDER + 1):
        poly = sp.Poly(sp.expand(series.coeff(T, k)), var)
        out.append({e: Fraction(int(c.p), int(c.q)) for (e,), c in poly.terms() if c != 0})
    return out


def engine_coeffs(series) -> list[dict[int, Fraction]]:
    return [{e: Fraction(v) for e, v in series.coeff(k).coeffs.items()} for k in range(ORDER + 1)]


def test_c_hat_inv_matches_sympy():
    # (1 - e^(-bT))/T
    engine = tate_h.c_series_from_b(ORDER).c_hat_inv
    assert engine_coeffs(engine) == sympy_coeffs((1 - sp.exp(-b * T)) / T, b)


def test_q_hat_inv_matches_sympy():
    # (1 - (1+T)^-beta)/T
    engine = tate_k.q_hat_inv_poly(ORDER)
    assert engine_coeffs(engine) == sympy_coeffs((1 - (1 + T) ** (-beta)) / T, beta)


def test_b_series_matches_sympy():
    # -T^-1 log(1 - xT)
    engine = tate_h.b_series_from_c(ORDER).series
    assert engine_coeffs(engine) == sympy_coeffs(-sp.log(1 - x * T) / T, x)


def sympy_coeffs_xy(*factors) -> list[dict[tuple[int, int], Fraction]]:
    """The T^0..T^ORDER coefficients of a product of power series in T, each
    as {(x exponent, y exponent): value}; sympy expands each factor alone."""
    product = sp.Integer(1)
    for f in factors:
        product = sp.expand(product * sp.series(f, T, 0, ORDER + 1).removeO())
    out = []
    for k in range(ORDER + 1):
        poly = sp.Poly(product.coeff(T, k), x, y)
        out.append({e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms() if c != 0})
    return out


def renorm_coeffs(series) -> list[dict[tuple[int, int], Fraction]]:
    """renorm's coefficients over Q[x^±1] decoded back to Q[x,y]: at order n,
    x^e stands for x^(e mod K) y^(e div K) with K = n + 3."""
    k = series.order + 3
    return [{(e % k, e // k): Fraction(v) for e, v in series.coeff(n).coeffs.items()}
            for n in range(ORDER + 1)]


@pytest.mark.parametrize("name,factors", [
    ("b_over_cinv", [-sp.log(1 - x * T) / (x * T)]),
    ("beta_over_qinv", [-sp.log(1 - y * T) / (y * T), T / sp.log(1 + T)]),
    ("b_over_beta", [sp.log(1 + T) / T, sp.log(1 - x * T) / (x * T), y * T / sp.log(1 - y * T)]),
], ids=["b_over_cinv", "beta_over_qinv", "b_over_beta"])
def test_renorm_ratios_match_sympy(name, factors):
    engine = getattr(renorm, name)(ORDER)
    assert renorm_coeffs(engine) == sympy_coeffs_xy(*factors)


def test_bernoulli_numbers_match_sympy_up_to_the_b1_convention():
    ours = [bernoulli_number(n) for n in range(31)]
    theirs = [Fraction(int(sp.bernoulli(n).p), int(sp.bernoulli(n).q)) for n in range(31)]
    # sympy 1.12 and later take B_1 = +1/2; the engine takes B_1 = -1/2,
    # the coefficient of D in D/(e^D - 1)
    assert (ours[1], theirs[1]) == (Fraction(-1, 2), Fraction(1, 2))
    assert ours[:1] + ours[2:] == theirs[:1] + theirs[2:]
