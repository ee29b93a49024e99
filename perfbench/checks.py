"""Content checks for every op, against references and independent oracles.

An op fails on an unexpected exit code or when its mathematical content
differs from the reference; bytes that carry no content (rendering, key
order) are not compared for the fresh-process workloads.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import comb
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 1
BLOCK = 10  # interactive reference digests cover blocks of this many queries


def _load(name: str):
    with open(REFERENCE / name) as fh:
        return json.load(fh)


def verify_content(payload: dict) -> list[str]:
    return [c["identity"] for c in payload["checks"]]


def q_content(payload: dict) -> list:
    return [[e["series"], e["k"], e["polynomial"], e.get("integral"), e.get("binomialCoords")]
            for e in payload["entries"]]


def check_verify_deep(op, rc: int, out: str, err: str, seed: int) -> str | None:
    if rc != op.expect_rc:
        return f"exit {rc}, expected {op.expect_rc}: {err.strip()[:200]}"
    payload = json.loads(out)
    if payload.get("pass") is not True:
        return "verdict is not a pass"
    if (payload.get("suite"), payload.get("order"), payload.get("seed")) != ("all", 64, seed):
        return "report header does not match the request"
    if verify_content(payload) != _load("verify_identities.json"):
        return "check identities differ from the reference"
    return None


def check_q_integrality(op, rc: int, out: str, err: str, seed: int) -> str | None:
    if rc != op.expect_rc:
        return f"exit {rc}, expected {op.expect_rc}: {err.strip()[:200]}"
    payload = json.loads(out)
    if payload.get("order") != 40:
        return "report order does not match the request"
    got, want = q_content(payload), _load("q_integrality_40.json")
    if len(got) != len(want):
        return f"{len(got)} entries, reference has {len(want)}"
    for g, w in zip(got, want):
        if g != w:
            return f"entry {w[0]}[T^{w[1]}] differs from the reference"
    return None


# -- interactive --------------------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+)\*)?(?:b_(\d+)|binom\(beta,(\d+)\))$|^(\d+)$")


def parse_basis_sum(text: str) -> dict[int, int] | None:
    """'3*binom(beta,2) - b_4 + 5' style sums -> {index: coefficient}."""
    text = text.strip()
    if text == "0":
        return {}
    coords: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        m = _TERM.match(term.removeprefix("-"))
        if m is None:
            return None
        coeff_text, b_idx, beta_idx, const = m.groups()
        if const is not None:
            k, c = 0, int(const)
        else:
            k = int(b_idx if b_idx is not None else beta_idx)
            c = int(coeff_text) if coeff_text else 1
        coords[k] = coords.get(k, 0) + (-c if term.startswith("-") else c)
    return coords


def product_oracle(op, out: str) -> str | None:
    """b_i*b_j = C(i+j,i) b_{i+j}; binom(n,i)*binom(n,j) checked with math.comb."""
    i, j = op.operands
    coords = parse_basis_sum(out)
    if coords is None:
        return f"unparseable product output {out[:80]!r}"
    if op.kind == "b-product":
        return None if coords == {i + j: comb(i + j, i)} else f"b_{i}*b_{j} != C({i + j},{i}) b_{i + j}"
    # the product vanishes at n < max(i,j) and has degree i+j, so its
    # coordinates live on max(i,j)..i+j and are fixed by the values there
    lo, hi = max(i, j), i + j
    if any(k < lo or k > hi for k in coords):
        return f"beta_{i}*beta_{j} has coordinates outside {lo}..{hi}"
    for n in range(lo, hi + 1):
        if sum(c * comb(n, k) for k, c in coords.items()) != comb(n, i) * comb(n, j):
            return f"beta_{i}*beta_{j} disagrees with math.comb at beta={n}"
    return None


def check_interactive(op, rc: int, out: str, err: str, seed: int) -> str | None:
    if rc != op.expect_rc:
        return f"exit {rc}, expected {op.expect_rc}: {err.strip()[:200]}"
    if rc == 2:
        return None if not out and err.startswith("error: ") else "exit 2 without a typed error"
    if op.operands is not None:
        return product_oracle(op, out)
    return None


def block_digests(ops, results) -> list[str]:
    """Digest of each complete block of BLOCK consecutive queries and answers."""
    out = []
    for b in range(len(results) // BLOCK):
        h = hashlib.sha256()
        for n in range(b * BLOCK, (b + 1) * BLOCK):
            h.update(json.dumps([ops[n].argv, *results[n]]).encode())
        out.append(h.hexdigest()[:16])
    return out


def check_interactive_run(ops, results, seed: int) -> list[str | None]:
    """Per-query failures: op checks, repeats answering as the first time,
    and for the default seed the recorded reference."""
    results = [tuple(r) for r in results]
    fails = [check_interactive(op, *r, seed) for op, r in zip(ops, results)]
    first: dict[tuple, tuple] = {}
    for n, (op, r) in enumerate(zip(ops, results)):
        if first.setdefault(op.argv, r) != r and fails[n] is None:
            fails[n] = "repeat answered differently from its first occurrence"
    if seed == DEFAULT_SEED:
        ref = _load("interactive_seed1.json")["blocks"]
        for b, digest in enumerate(block_digests(ops, results)[:len(ref)]):
            if digest != ref[b]:
                for n in range(b * BLOCK, (b + 1) * BLOCK):
                    fails[n] = fails[n] or f"block {b} differs from the reference"
    return fails


CHECKERS = {"verify-deep": check_verify_deep, "q-integrality": check_q_integrality}


def check_run(workload: str, ops, results, seed: int) -> list[str | None]:
    """results: (rc, stdout, stderr) per op, aligned with ops."""
    if workload == "interactive":
        return check_interactive_run(ops, results, seed)
    fn = CHECKERS[workload]
    fails = []
    for op, (rc, out, err) in zip(ops, results):
        try:
            fails.append(fn(op, rc, out, err, seed))
        except (ValueError, KeyError, TypeError) as exc:
            fails.append(f"malformed output: {exc}")
    return fails
