"""Acceptance criteria, one test per criterion, zero tolerance throughout.

Each test prints a single `[acceptance N] PASS/FAIL` line (visible with
`pytest -s tests/test_acceptance.py` or in the captured output block of a
failure).  Stated runtime budgets are asserted alongside exactness.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from tatecalc import expansions, renorm, tate_h, tate_k, verify
from tatecalc.basis import DividedPowerElem, NumericalPoly
from tatecalc.cli import main
from tatecalc.laurent import LaurentPoly
from tatecalc.series import bernoulli_minus
from tatecalc.tate_k import TateKElem

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance {number:2d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance {number:2d}] PASS  {description}  ({elapsed:.2f}s)")


def test_criterion_01_prop1_orders_and_runtime():
    with criterion(1, "exp(bT) = (1 - c^-1 T)^-1 at orders 1, 8, 64 in < 1 s"):
        for order in (1, 8):
            rep = tate_h.verify_prop1(order)
            assert rep.passed, str(rep)
        start = time.perf_counter()
        rep = tate_h.verify_prop1(64)
        elapsed = time.perf_counter() - start
        assert rep.passed, str(rep)
        names = [c.identity for c in rep.checks]
        assert "epsilon-vanishes" in names and "termwise-boundary-agrees" in names
        assert elapsed < 1.0


def test_criterion_02_corollary_order_32():
    with criterion(2, "b = -T^-1 log(1 - c^-1 T) and the c-hat round trip at order 32 in < 1 s"):
        start = time.perf_counter()
        bres = tate_h.b_series_from_c(32)
        assert bres.exp_check_ok
        signs = []
        for order in range(4, 33):
            res = tate_h.c_series_from_b(order)
            assert res.matching_sign is not None  # exactly one sign matches
            signs.append(res.matching_sign)
        assert len(set(signs)) == 1  # and it is stable
        res32 = tate_h.c_series_from_b(32)
        assert res32.round_trip_ok
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


def test_criterion_03_bernoulli_operator():
    with criterion(3, "D/(e^D - 1): n! coeff(D^n) matches the Pascal oracle for n <= 24"):
        oracle = [Fraction(1)]
        for n in range(1, 25):
            s = sum(comb(n + 1, j) * oracle[j] for j in range(n))
            oracle.append(Fraction(-s, n + 1))
        series = bernoulli_minus(24)
        for n in range(25):
            assert series.coeff(n) * factorial(n) == oracle[n]
        assert all(series.coeff(n) == 0 for n in range(3, 25, 2))


def test_criterion_04_divided_powers():
    with criterion(4, "b_1^k = k! b_k for k <= 12, exact"):
        b1 = DividedPowerElem.basis(1)
        power = DividedPowerElem.one()
        for k in range(1, 13):
            power = power * b1
            assert power == DividedPowerElem.basis(k) * factorial(k)


def test_criterion_05_rota_baxter():
    with criterion(5, "weight -1 Rota-Baxter defect vanishes on 200 seeded pairs, window [-8,8]"):
        rng = random.Random(1)
        for _ in range(200):
            x = LaurentPoly("c", {rng.randint(-8, 8): rng.randint(-9, 9) for _ in range(4)})
            y = LaurentPoly("c", {rng.randint(-8, 8): rng.randint(-9, 9) for _ in range(4)})
            assert tate_h.rota_baxter_defect(x, y).is_zero()


def test_criterion_06_exactness_both_sequences():
    with criterion(6, "kernels are Z[c] and Z[q^±1]; partial fractions reconstruct with integer poles"):
        rng = random.Random(2)
        for _ in range(200):
            x = LaurentPoly("c", {rng.randint(-10, 10): rng.randint(-9, 9) for _ in range(4)})
            assert tate_h.boundary(x).is_zero() == all(e >= 0 for e in x.coeffs)
        for _ in range(200):
            num = LaurentPoly("q", {rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(4)})
            elem = TateKElem(num, rng.randint(0, 6))
            assert tate_k.quotient_to_betas(elem).is_zero() == (elem.denom_pow == 0)
            pf = tate_k.partial_fractions(elem)
            assert pf.reconstruct() == elem
            assert all(isinstance(a, int) for a in pf.pole_coeffs)


def test_criterion_07_cartier_biorder_12():
    with criterion(7, "Cartier relation at all bi-orders <= (12,12) in < 5 s"):
        start = time.perf_counter()
        rep = tate_k.cartier_check(12, 12)
        elapsed = time.perf_counter() - start
        assert rep.passed, str(rep)
        assert elapsed < 5.0


def test_criterion_08_prop2_order_64():
    with criterion(8, "(1 - q^-1 T)^-1 = (1 + T)^beta defining relation to order 64"):
        rep = tate_k.verify_prop2(64)
        assert rep.passed, str(rep)


def test_criterion_09_q_series():
    with criterion(9, "q-series: leading 1/beta, multiply-back at 32, integrality survey at 16"):
        qs = tate_k.q_series(32)
        assert qs.coeff(0) == LaurentPoly("beta", {-1: 1})
        assert (qs * tate_k.q_hat_inv_poly(32)).is_one_series()
        survey = tate_k.integrality_report(16)
        assert survey.order == 16
        # one record per coefficient of q and beta*q
        assert len(survey.entries) == 2 * 17
        for e in survey.entries:
            assert isinstance(e.is_polynomial, bool)
            if e.is_polynomial:
                assert e.is_integral in (True, False)
                assert e.binomial_coords is not None
            else:
                assert e.is_integral is None


def test_criterion_10_renorm_ratios():
    with criterion(10, "diagonal y := x collapses b/beta to T^-1 log(1+T) at order 24; contracts by multiply-back"):
        bb = renorm.b_over_beta(24)
        diag = renorm.specialize_diagonal(bb)
        assert diag.agrees_with(renorm.t_inv_log_one_plus(24))
        rep = renorm.verify_renorm(24)
        assert rep.passed, str(rep)


def test_criterion_11_expansion_homomorphisms():
    with criterion(11, "three puncture maps are ring homomorphisms (100 seeded pairs each); sign finding on record"):
        rng = random.Random(3)
        for puncture in expansions.Puncture:
            for _ in range(100):
                xa = LaurentPoly("q", {rng.randint(-4, 4): rng.randint(-9, 9) for _ in range(3)})
                xb = LaurentPoly("q", {rng.randint(-4, 4): rng.randint(-9, 9) for _ in range(3)})
                x = TateKElem(xa, rng.randint(0, 3))
                y = TateKElem(xb, rng.randint(0, 3))
                n = 10
                fx = expansions.expand(x, puncture, n + 8)
                fy = expansions.expand(y, puncture, n + 8)
                assert expansions.expand(x + y, puncture, n).agrees_with(fx + fy, through=n)
                prod = fx * fy
                assert expansions.expand(x * y, puncture, n).agrees_with(
                    prod, through=min(n, prod.order)
                )
            q = TateKElem(LaurentPoly("q", {1: 1}))
            qinv = TateKElem(LaurentPoly("q", {-1: 1}))
            unit = expansions.expand(q, puncture, 12) * expansions.expand(qinv, puncture, 12)
            assert unit.truncated(8).is_one_series()
        from tatecalc.verify import run_suite

        rep = run_suite("expansions", 8, 1)
        sign_check = next(c for c in rep.checks if "s-puncture" in c.identity)
        assert sign_check.passed and "forced by the homomorphism" in sign_check.note


def test_criterion_12_adams_operations():
    with criterion(12, "psi^k homomorphism and psi^k o psi^l = psi^(kl) for k,l <= 5"):
        rng = random.Random(4)
        for k in range(1, 6):
            for l in range(1, 6):
                x = LaurentPoly("q", {rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(3)})
                y = LaurentPoly("q", {rng.randint(-5, 5): rng.randint(-9, 9) for _ in range(3)})
                psi = tate_k.adams_on_laurent
                assert psi(k, x * y) == psi(k, x) * psi(k, y)
                assert psi(k, x + y) == psi(k, x) + psi(k, y)
                assert psi(k, psi(l, x)) == psi(k * l, x)


def test_criterion_13_cli_end_to_end(capsys):
    with criterion(13, "verify all --order 64 --seed 1 --json: deterministic, exit codes 0/1/2, < 30 s"):
        start = time.perf_counter()
        code1 = main(["verify", "all", "--order", "64", "--seed", "1", "--json"])
        out1 = capsys.readouterr().out
        elapsed = time.perf_counter() - start
        assert code1 == 0
        assert elapsed < 30.0
        payload = json.loads(out1)
        assert payload["pass"] is True

        verify._checks.cache_clear()  # the second run computes its verdict anew
        code2 = main(["verify", "all", "--order", "64", "--seed", "1", "--json"])
        out2 = capsys.readouterr().out
        assert code2 == 0
        assert out1 == out2  # byte-identical report
        assert out1 == (GOLDEN / "verify_all_o64.json").read_text()

        assert main(["verify", "prop1", "--order", "8", "--defect", "2"]) == 1
        capsys.readouterr()
        assert main(["eval", "exp("]) == 2
        capsys.readouterr()
