"""An independent oracle: sympy's own series expansions and Bernoulli numbers.

sympy is a test-only dependency (skipped where it is missing) and shares no
code with the engine: each series below is expanded by sympy from its
closed form and compared coefficient by coefficient, as exact rationals,
with the engine's series through T^10; the q-series, whose coefficients have
beta in the denominator, is compared at beta = 1..11.  The exp, log and
inverse kernels and the binomial-basis conversion are checked on seeded
random inputs.
"""

import random
from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from tatecalc import renorm, tate_h, tate_k  # noqa: E402
from tatecalc.basis import NotIntegral, to_binomial_basis  # noqa: E402
from tatecalc.laurent import LaurentPoly  # noqa: E402
from tatecalc.series import QQ, TruncSeries, bernoulli_number  # noqa: E402

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


@pytest.fixture(scope="module")
def q_series_engine():
    return tate_k.q_series(ORDER)


@pytest.mark.parametrize("m", range(1, ORDER + 2))
def test_q_series_at_beta_m_matches_sympy(q_series_engine, m):
    # q = T/(1 - (1+T)^-beta).  beta*q_k is a polynomial in beta of degree at
    # most k <= ORDER, so once the engine's coefficients have that shape, the
    # ORDER + 1 points beta = 1..ORDER+1 decide each of them.
    assert all(0 <= e + 1 <= k for k in range(ORDER + 1)
               for e in q_series_engine.coeff(k).coeffs)
    engine = [sum(Fraction(v) * Fraction(m) ** e for e, v in q_series_engine.coeff(k).coeffs.items())
              for k in range(ORDER + 1)]
    series = sp.series(T / (1 - (1 + T) ** (-m)), T, 0, ORDER + 1).removeO()
    assert engine == [Fraction(int(c.p), int(c.q)) for c in (series.coeff(T, k) for k in range(ORDER + 1))]


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
    ours = [bernoulli_number(n) for n in range(513)]
    theirs = [Fraction(int(sp.bernoulli(n).p), int(sp.bernoulli(n).q)) for n in range(513)]
    # sympy 1.12 and later take B_1 = +1/2; the engine takes B_1 = -1/2,
    # the coefficient of D in D/(e^D - 1)
    assert (ours[1], theirs[1]) == (Fraction(-1, 2), Fraction(1, 2))
    assert ours[:1] + ours[2:] == theirs[:1] + theirs[2:]


def random_rationals(rng: random.Random, n: int) -> list[Fraction]:
    """n seeded rationals with small numerators and denominators, zero included."""
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]


def rational(c) -> Fraction:
    return Fraction(int(c.p), int(c.q))


def sympy_series(expr) -> list[Fraction]:
    series = sp.series(expr, T, 0, ORDER + 1).removeO()
    return [rational(series.coeff(T, k)) for k in range(ORDER + 1)]


def qq_series(coeffs: list[Fraction]) -> TruncSeries:
    return TruncSeries.from_coeffs(QQ, 0, coeffs, order=ORDER)


def sympy_poly(coeffs: list[Fraction]):
    return sum(sp.Rational(c.numerator, c.denominator) * T**k for k, c in enumerate(coeffs))


SEEDS = (1, 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_exp_of_random_series_matches_sympy(seed):
    a = [Fraction(0)] + random_rationals(random.Random(seed), ORDER)
    engine = qq_series(a).exp()
    # exp(sum a_k T^k) = prod exp(a_k T^k): sympy expands each factor alone,
    # since its series of exp of the whole polynomial is far slower
    product = sp.Integer(1)
    for k, c in enumerate(a):
        factor = sp.series(sp.exp(sp.Rational(c.numerator, c.denominator) * T**k), T, 0, ORDER + 1)
        product = sp.expand(product * factor.removeO())
    assert list(engine.coeffs) == [rational(product.coeff(T, k)) for k in range(ORDER + 1)]


@pytest.mark.parametrize("seed", SEEDS)
def test_log_of_random_series_matches_sympy(seed):
    a = [Fraction(1)] + random_rationals(random.Random(seed), ORDER)
    assert list(qq_series(a).log().coeffs) == sympy_series(sp.log(sympy_poly(a)))


@pytest.mark.parametrize("seed", SEEDS)
def test_inverse_of_random_unit_series_matches_sympy(seed):
    rng = random.Random(seed)
    a = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))]
    a += random_rationals(rng, ORDER)
    assert list(qq_series(a).inverse().coeffs) == sympy_series(1 / sympy_poly(a))


def sympy_binomial_coords(coeffs: list[Fraction]) -> dict[int, Fraction]:
    """Coordinates of p = sum coeffs[e] beta^e in the binom(beta, k) basis, by
    sympy: solve for the c_k with sum c_k binom(n, k) = p(n) at n = 0..deg,
    then check sum c_k binom(beta, k) == p as polynomials."""
    p = sum(sp.Rational(c.numerator, c.denominator) * beta**e for e, c in enumerate(coeffs))
    n = len(coeffs)
    system = sp.Matrix(n, n, lambda i, k: sp.binomial(i, k))
    values = sp.Matrix(n, 1, lambda i, _: p.subs(beta, i))
    c = system.LUsolve(values)
    rebuilt = sum(c[k] * sp.expand_func(sp.binomial(beta, k)) for k in range(n))
    assert sp.expand(rebuilt - p) == 0
    return {k: rational(c[k]) for k in range(n) if c[k] != 0}


@pytest.mark.parametrize("degree", range(9))
def test_binomial_basis_of_random_polynomials_matches_sympy(degree):
    rng = random.Random(degree)
    coeffs = random_rationals(rng, degree) + [Fraction(rng.randint(1, 9), rng.randint(1, 9))]
    if degree % 2:  # integer coefficients: integral in the binomial basis
        coeffs = [Fraction(c.numerator) for c in coeffs]
    conv = to_binomial_basis(LaurentPoly("beta", dict(enumerate(coeffs))))
    ours = (dict(conv.coords) if isinstance(conv, NotIntegral)
            else {k: Fraction(v) for k, v in conv.coords.items()})
    assert ours == sympy_binomial_coords(coeffs)
