"""Seeded inputs for the three workloads.

Every op is a CLI argv list; the program sees nothing but that argv.  The
same seed always yields the same ops, in the same order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("verify-deep", "q-integrality", "interactive")

VERIFY_ORDER = 64
Q_ORDER = 40

# Ops per traced run: fixed by seed alone, so traced counts repeat exactly.
TRACE_OPS = {"verify-deep": 1, "q-integrality": 3, "interactive": 600}


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    expect_rc: int = 0
    # (i, j) for the product queries that the independent oracle checks
    operands: tuple[int, int] | None = None


def verify_deep_op(seed: int) -> Op:
    return Op("verify-all", ("verify", "all", "--order", str(VERIFY_ORDER),
                             "--seed", str(seed), "--json"))


def q_integrality_op() -> Op:
    return Op("q-integrality", ("report", "q-integrality", "--order", str(Q_ORDER), "--json"))


# -- interactive query stream ---------------------------------------------------


def _laurent(rng: random.Random, var: str) -> str:
    """1-4 terms, exponents -6..6, nonzero coefficients -9..9."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[rng.randint(-6, 6)] = rng.choice([c for c in range(-9, 10) if c])
    out = ""
    for e, c in sorted(terms.items()):
        mono = "" if e == 0 else (var if e == 1 else f"{var}^{e}")
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not out:
            out = body if c > 0 else f"-{body}"
        else:
            out += f" + {body}" if c > 0 else f" - {body}"
    return out


def _k_element(rng: random.Random, max_pole: int) -> str:
    k = rng.randint(0, max_pole)
    num = f"({_laurent(rng, 'q')})"
    return num if k == 0 else f"{num}*(1-q)^-{k}"


def _is_constant(expr: str) -> bool:
    """True for '(7)' and '(-3)': the evaluator returns a bare integer for
    these, and `expand` rejects them with a typed error (exit 2)."""
    return expr.strip("()-").isdigit()


_MALFORMED = ("beta_3 *", "c + q", "(1-q", "foo(q)", "q^", "b_2 + beta_2", "exp(T",
              "boundary(q)", "2 +* b_1")

_SERIES_EXPRS = ("exp(cinv*T)", "log(1+qinv*T)", "geom(cinv)", "exp(b*T)*geom(cinv)")

_VERIFY_SUITES = ("prop1", "cartier", "rota-baxter", "exactness-h", "adams")

# (kind, weight); weights sum to 100
_MIX = (
    ("partial-fractions", 16),
    ("quotient", 12),
    ("beta-product", 12),
    ("b-product", 12),
    ("boundary", 12),
    ("series", 12),
    ("expand", 12),
    ("verify", 4),
    ("report", 4),
    ("malformed", 4),
)


def _query(rng: random.Random) -> Op:
    kind = rng.choices([k for k, _ in _MIX], weights=[w for _, w in _MIX])[0]
    if kind in ("partial-fractions", "quotient"):
        fn = "partial_fractions" if kind == "partial-fractions" else "quotient"
        expr = f"{fn}(({_laurent(rng, 'q')})*(1-q)^-{rng.randint(1, 8)})"
        return Op(kind, ("eval", expr))
    if kind == "beta-product":
        i, j = rng.randint(20, 120), rng.randint(20, 120)
        return Op(kind, ("eval", f"beta_{i}*beta_{j}"), operands=(i, j))
    if kind == "b-product":
        i, j = rng.randint(1, 40), rng.randint(1, 40)
        return Op(kind, ("eval", f"b_{i}*b_{j}"), operands=(i, j))
    if kind == "boundary":
        return Op(kind, ("eval", f"boundary(({_laurent(rng, 'c')})^{rng.randint(1, 4)})"))
    if kind == "series":
        return Op(kind, ("eval", rng.choice(_SERIES_EXPRS), "--order", str(rng.randint(8, 24))))
    if kind == "expand":
        elem = _k_element(rng, 3)
        return Op(kind, ("expand", elem, "--at", rng.choice(("0", "1", "inf")),
                         "--order", str(rng.randint(8, 32))),
                  expect_rc=2 if _is_constant(elem) else 0)
    if kind == "verify":
        return Op(kind, ("verify", rng.choice(_VERIFY_SUITES), "--order", str(rng.randint(8, 16))))
    if kind == "report":
        return Op(kind, ("report", rng.choice(("corollary-sign", "expansion-sign")),
                         "--order", str(rng.randint(4, 12))))
    return Op(kind, ("eval", rng.choice(_MALFORMED)), expect_rc=2)


def interactive_stream(seed: int):
    """Endless, seeded stream of short queries."""
    rng = random.Random(f"interactive-{seed}")
    while True:
        yield _query(rng)


def ops_for(workload: str, seed: int):
    """Endless op stream for a workload."""
    if workload == "interactive":
        yield from interactive_stream(seed)
        return
    op = verify_deep_op(seed) if workload == "verify-deep" else q_integrality_op()
    while True:
        yield op


def first_ops(workload: str, seed: int, n: int) -> list[Op]:
    stream = ops_for(workload, seed)
    return [next(stream) for _ in range(n)]
