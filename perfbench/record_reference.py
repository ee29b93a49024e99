"""Record the references the checks compare against.

    python3 perfbench/record_reference.py

Run it on a commit whose outputs are trusted; it rewrites perfbench/reference/.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from inproc import _call  # noqa: E402
from tatecalc import cli  # noqa: E402

INTERACTIVE_QUERIES = 20000


def answer(op):
    return _call(cli.main, op.argv)[:3]


def main() -> int:
    ref = checks.REFERENCE
    ref.mkdir(exist_ok=True)
    rc, out, _ = answer(workloads.verify_deep_op(checks.DEFAULT_SEED))
    if rc != 0 or json.loads(out)["pass"] is not True:
        raise SystemExit("verify all does not pass here; refusing to record it")
    (ref / "verify_identities.json").write_text(
        json.dumps(checks.verify_content(json.loads(out)), indent=1) + "\n")

    rc, out, _ = answer(workloads.q_integrality_op())
    if rc != 0:
        raise SystemExit("report q-integrality failed here; refusing to record it")
    (ref / "q_integrality_40.json").write_text(
        "[\n" + ",\n".join(json.dumps(e) for e in checks.q_content(json.loads(out))) + "\n]\n")

    ops = workloads.first_ops("interactive", checks.DEFAULT_SEED, INTERACTIVE_QUERIES)
    results = [answer(op) for op in ops]
    fails = checks.check_interactive_run(ops, results, seed=None)
    bad = [(op.argv, why) for op, why in zip(ops, fails) if why]
    if bad:
        raise SystemExit(f"interactive queries fail their checks here: {bad[:5]}")
    payload = {"seed": checks.DEFAULT_SEED, "block": checks.BLOCK, "queries": len(ops),
               "blocks": checks.block_digests(ops, results)}
    (ref / "interactive_seed1.json").write_text(
        json.dumps(payload, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
