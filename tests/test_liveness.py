"""Verdict liveness: a broken engine makes `verify all` fail, and says where.

A verdict is evidence only if it can fail.  Each row breaks one engine
operation by monkeypatch, runs `verify all --order 24` through the CLI, and
asserts exit 1 (a failed identity, not a usage error) with the first failing
check in the named suite.  The kernel rows add the ring's one to the T^5
coefficient of each result; the structural rows break one product or one
dilation, or halve the pole coefficients of the partial fractions.  The table records which suite sees each defect first at this
order, so a change to the suites' caps or orders shows up here.  A second
table breaks an operation that one of the suites' random searches checks,
runs that suite alone in process, and pins the defect text it reports.
"""

from fractions import Fraction

import pytest

from tatecalc import basis, expansions, series, tate_h, tate_k, verify
from tatecalc.basis import DividedPowerElem, NumericalPoly
from tatecalc.cli import main
from tatecalc.laurent import LaurentPoly
from tatecalc.series import TruncSeries

ORDER = 24
K = 5


def plus_one_at_k(s: TruncSeries) -> TruncSeries:
    """`s` with the ring's one added to its T^K coefficient."""
    if not s.low <= K <= s.order:
        return s
    coeffs = list(s.coeffs)
    coeffs[K - s.low] = coeffs[K - s.low] + s.ring.one
    return TruncSeries(s.ring, s.low, s.order, coeffs, s.var)


def break_result(monkeypatch, targets, name):
    """Replace `name` on every target by one that adds one at T^K of its result."""
    real = getattr(targets[0], name)
    for target in targets:
        monkeypatch.setattr(target, name, lambda *args: plus_one_at_k(real(*args)))


def break_kernel(name):
    return lambda mp: break_result(mp, [TruncSeries], name)


def break_divided_powers(mp):
    real = DividedPowerElem._product
    mp.setattr(DividedPowerElem, "_product",
               lambda x, y: real(x, y) + DividedPowerElem.basis(K))


def break_numerical_mul(mp):
    real = basis.numerical_mul
    for target in (basis, tate_k):
        mp.setattr(target, "numerical_mul", lambda x, y: real(x, y) + NumericalPoly.basis(K))


def break_dilation(mp):
    real = LaurentPoly.dilated
    mp.setattr(LaurentPoly, "dilated", lambda x, k: real(x, 4 if k == 3 else k))


def halve_poles(mp):
    """Partial fractions whose pole coefficients are halved, so not integers."""
    real = tate_k.partial_fractions
    mp.setattr(tate_k, "partial_fractions", lambda x: (pf := real(x))._replace(
        pole_coeffs=tuple(Fraction(a, 2) for a in pf.pole_coeffs)))


# (mutation, how to apply it, the suite of the first failing check)
ROWS = [
    ("_mul_series", break_kernel("_mul_series"), "corollary"),
    ("inverse", break_kernel("inverse"), "prop1"),
    ("exp", break_kernel("exp"), "prop1"),
    ("log", break_kernel("log"), "corollary"),
    ("div_exact", break_kernel("div_exact"), "renorm"),
    ("bernoulli_minus",
     lambda mp: break_result(mp, [series, verify, tate_h], "bernoulli_minus"), "corollary"),
    ("expansions.expand", lambda mp: break_result(mp, [expansions], "expand"), "expansions"),
    ("DividedPowerElem._product +1 at b_5", break_divided_powers, "exactness-h"),
    ("numerical_mul +1 at beta_5", break_numerical_mul, "cartier"),
    ("dilated gives psi^4 for psi^3", break_dilation, "adams"),
    ("partial fractions with halved poles", halve_poles, "exactness-k"),
]


@pytest.mark.parametrize("apply,suite", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_a_broken_engine_fails_verify_all_in_the_named_suite(monkeypatch, capsys, apply, suite):
    apply(monkeypatch)
    code = main(["verify", "all", "--order", str(ORDER)])
    out = capsys.readouterr().out
    assert code == 1, out
    first_fail = next(line for line in out.splitlines() if line.startswith("  [FAIL] "))
    assert first_fail.removeprefix("  [FAIL] ").split("/")[0] == suite, out


# -- the random searches' defect texts ---------------------------------------------


def patch(mp, module, name, wrap):
    """Replace `module.name` by `wrap(real)`."""
    mp.setattr(module, name, wrap(getattr(module, name)))


# (mutation, how to apply it, suite, the failing check, its first defect at order 8, seed 1)
SEARCH_ROWS = [
    ("partial fractions off by one", lambda mp: patch(
        mp, tate_k, "partial_fractions",
        lambda real: lambda x: (pf := real(x))._replace(poly_part=pf.poly_part + 1)),
     "exactness-k", "partial fractions reconstruct exactly, integer poles (200 random)",
     "element #0: (-6*q^-2 - 7*q^3) * (1-q)^-3"),
    ("partial fractions with halved poles", halve_poles,
     "exactness-k", "partial fractions reconstruct exactly, integer poles (200 random)",
     "element #0: non-integer pole coefficients "
     "(Fraction(-39, 2), Fraction(9, 2), Fraction(-13, 2))"),
    ("quotient map on halved poles", halve_poles,
     "exactness-k", "quotient kernel is exactly Z[q^±1] (200 random elements)",
     "the quotient map raised: binomial-basis coordinates must be integers, "
     "got Fraction(54, 1)"),
    ("expand +1 at T^5", lambda mp: break_result(mp, [expansions], "expand"),
     "expansions", "expansion at 0 is a ring homomorphism (100 random pairs)",
     "additivity, pair #0"),
    ("expand doubled", lambda mp: patch(
        mp, expansions, "expand", lambda real: lambda *args: real(*args).scalar_mul(2)),
     "expansions", "expansion at 0 is a ring homomorphism (100 random pairs)",
     "multiplicativity, pair #0"),
    ("psi^k plus one", lambda mp: patch(
        mp, tate_k, "adams_on_laurent", lambda real: lambda k, x: real(k, x) + 1),
     "adams", "psi^k is a ring homomorphism on Z[q^±1] (100 random pairs)",
     "psi^2 multiplicativity, pair #0"),
    ("psi^k squared", lambda mp: patch(
        mp, tate_k, "adams_on_laurent", lambda real: lambda k, x: real(k, x) * real(k, x)),
     "adams", "psi^k is a ring homomorphism on Z[q^±1] (100 random pairs)",
     "psi^2 additivity, pair #0"),
    ("psi^k is psi^(k+1)", lambda mp: patch(
        mp, tate_k, "adams_on_laurent", lambda real: lambda k, x: real(k + 1, x)),
     "adams", "psi^k o psi^l = psi^(kl) for k,l <= 5", "psi^1 o psi^1 != psi^1 on -9*q^5"),
    ("series psi^k is psi^(k+1)", lambda mp: patch(
        mp, expansions, "adams_on_series", lambda real: lambda k, x, o: real(k + 1, x, o)),
     "adams", "psi composition law holds on expansion targets",
     "series psi^1 o psi^1 on a random expansion"),
]


@pytest.mark.parametrize("apply,suite,identity,defect", [row[1:] for row in SEARCH_ROWS],
                         ids=[row[0] for row in SEARCH_ROWS])
def test_a_random_search_names_its_first_failing_trial(monkeypatch, apply, suite, identity,
                                                       defect):
    apply(monkeypatch)
    checks = {c.identity: c.first_defect for c in verify.run_suite(suite, 8, 1).checks}
    assert checks[identity] == defect
