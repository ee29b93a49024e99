"""The verdict record and the order each verification suite runs at."""

import random

import pytest

from tatecalc import verify
from tatecalc.laurent import LaurentPoly
from tatecalc.report import Check

# suite -> (floor, cap), as the report notes state them
CAPS = {"corollary": (4, 32), "cartier": (1, 12), "expansions": (4, 24), "adams": (8, 16),
        "renorm": (4, 24)}


def test_check_verdict_is_its_first_defect():
    assert Check("x", "d").passed is False
    assert Check("x").passed is True
    with pytest.raises(TypeError):
        Check("x", passed=True)


def test_every_capped_suite_is_in_the_table():
    assert {name: caps[:2] for name, caps in verify._CAPS.items()} == CAPS


def record_orders(monkeypatch, name):
    seen = []
    monkeypatch.setitem(verify._SUITES, name, lambda order, rng, defect: seen.append(order) or [])
    return seen


@pytest.mark.parametrize("name", sorted(CAPS))
def test_run_suite_hands_a_capped_suite_its_clamped_order(name, monkeypatch):
    seen = record_orders(monkeypatch, name)
    floor, cap = CAPS[name]
    for order in (1, cap, 256):
        report = verify.run_suite(name, order, seed=1)
        assert seen[-1] == min(max(order, floor), cap)
        assert report.order == order
        assert report.notes == (verify._CAPS[name][2],)


@pytest.mark.parametrize("name", sorted(set(verify._SUITES) - set(CAPS)))
def test_run_suite_hands_an_uncapped_suite_the_requested_order(name, monkeypatch):
    seen = record_orders(monkeypatch, name)
    for order in (1, 256):
        report = verify.run_suite(name, order, seed=1)
        assert seen[-1] == order
        assert report.notes == ()


def rand_laurent_by_randint(rng, var, window):
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        e = rng.randint(*window)
        coeffs[e] = rng.randint(-9, 9)
    return LaurentPoly(var, coeffs)


# every (variable, window) the suites draw from: rota-baxter, exactness-h (two),
# exactness-k and adams (rand_tatek's default), expansions, adams' composition
# and adams' series composition
SUITE_WINDOWS = [("c", (-8, 8)), ("c", (-10, 10)), ("c", (0, 10)), ("q", (-6, 6)),
                 ("q", (-4, 4)), ("q", (-5, 5)), ("q", (-3, 3))]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_draws_follow_the_randint_stream(seed):
    mine, ref = random.Random(seed), random.Random(seed)
    for var, window in SUITE_WINDOWS:
        for _ in range(40):
            got = verify.rand_laurent(mine, var, window)
            want = rand_laurent_by_randint(ref, var, window)
            assert (got.var, got.coeffs) == (want.var, want.coeffs)
            assert list(got.coeffs) == list(want.coeffs)
        assert mine.getstate() == ref.getstate()
