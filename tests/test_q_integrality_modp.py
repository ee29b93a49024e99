"""An oracle for `report q-integrality` over GF(p), p = 2^61 - 1, that shares
no code with the engine.

The T^k coefficient of beta*q = beta T/(1 - (1+T)^-beta) is a polynomial
c_k(beta) of degree at most k, so its binomial coordinates are the forward
differences of its values: c_k = sum_j (Delta^j c_k)(0) binom(beta, j).  At
beta = m >= 1 the series is m/D_m with D_m = (1 - (1+T)^-m)/T, whose
constant term m is a unit mod p; at beta = 0 it is the limit T/log(1+T).
Each is a schoolbook series inverse mod p.  A coordinate the engine prints
as a fraction a/b is compared as a * b^-1 mod p, which is sound while p
divides no denominator: p is far above every prime up to k + 1.
"""

import json
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul, sub

from tatecalc import series
from tatecalc.cli import main

P = (1 << 61) - 1
ORDER = 64


def inverse_mod_p(d: list[int]) -> list[int]:
    """1/d mod p through T^(len(d) - 1), for d[0] a unit mod p."""
    inv0 = pow(d[0], -1, P)
    out = [inv0]
    for k in range(1, len(d)):
        out.append(-sum(map(mul, d[1:k + 1], reversed(out))) * inv0 % P)
    return out


@lru_cache(maxsize=None)
def oracle_coords(order: int) -> list[list[int]]:
    """[k][j]: binomial coordinate j of beta*q's T^k coefficient, mod p."""
    # beta = 0: T/log(1+T), the inverse of sum_i (-1)^i T^i/(i+1)
    values = [inverse_mod_p([(-1) ** i * pow(i + 1, -1, P) % P for i in range(order + 1)])]
    for m in range(1, order + 1):
        # (1 - (1+T)^-m)/T = -sum_i binom(-m, i+1) T^i, binom(-m, n) = (-1)^n C(m+n-1, n)
        d = [(-1) ** i * comb(m + i, i + 1) % P for i in range(order + 1)]
        values.append([m * e % P for e in inverse_mod_p(d)])
    coords = []
    for k in range(order + 1):
        row, diffs = [], [values[m][k] for m in range(k + 1)]
        while diffs:  # reduced once at the end: k differences grow by at most 2^k
            row.append(diffs[0] % P)
            diffs = list(map(sub, diffs[1:], diffs))
        coords.append(row)
    return coords


def engine_coords(capsys, order: int) -> dict[int, dict[int, int]]:
    """k -> {j: coordinate mod p} of every beta*q entry of the JSON report."""
    assert main(["report", "q-integrality", "--order", str(order), "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    out = {}
    for e in entries:
        if e["series"] == "beta*q":
            assert e["polynomial"], e["k"]
            out[e["k"]] = {}
            for j, text in e["binomialCoords"]:
                v = Fraction(text)
                out[e["k"]][j] = v.numerator * pow(v.denominator, -1, P) % P
    return out


def mismatches(capsys, order: int) -> list[tuple[int, int]]:
    """(k, j) where the report and the oracle differ, with a coordinate the
    report lists beyond degree k counted as a mismatch."""
    got, want = engine_coords(capsys, order), oracle_coords(order)
    assert sorted(got) == list(range(order + 1))
    bad = []
    for k in range(order + 1):
        bad += [(k, j) for j in got[k] if j > k]
        bad += [(k, j) for j, w in enumerate(want[k]) if got[k].get(j, 0) != w]
    return bad


def test_every_binomial_coordinate_of_beta_q_agrees_mod_p_through_order_64(capsys):
    assert mismatches(capsys, ORDER) == []
    assert sum(len(row) for row in oracle_coords(ORDER)) == 2145


def test_the_oracle_sees_one_seventh_added_to_b10(capsys, monkeypatch):
    series.bernoulli_number(16)
    table = list(series._bernoulli)
    table[10] += Fraction(1, 7)
    monkeypatch.setattr(series, "_bernoulli", table)
    bad = mismatches(capsys, 16)
    # B_10 enters beta^10 T^k for k >= 10 only
    assert bad and min(k for k, _ in bad) == 10
