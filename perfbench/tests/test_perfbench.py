"""Tests of the benchmark itself: trace hygiene, checks and the run contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from inproc import _call  # noqa: E402
from tatecalc import cli, verify  # noqa: E402


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


# -- self time ----------------------------------------------------------------------


def test_self_time_on_synthetic_span_tree():
    # (id, name, start, end, parent, op, opaque seconds of aggregate calls)
    spans = [
        (1, "root", 0.0, 10.0, None, 0, 1.0),
        (2, "a", 1.0, 4.0, 1, 0, 0.0),
        (3, "b", 5.0, 9.0, 1, 0, 0.5),
        (4, "c", 6.0, 7.0, 3, 0, 0.0),
        (5, "overlap", 20.0, 30.0, None, 1, 0.0),
        (6, "x", 21.0, 25.0, 5, 1, 0.0),
        (7, "y", 24.0, 28.0, 5, 1, 0.0),
        (8, "spill", 29.0, 31.0, 5, 1, 0.0),
    ]
    got = tracing.span_self_times(spans)
    assert got[1] == 10 - (3 + 4) - 1.0
    assert got[2] == 3
    assert got[3] == 4 - 1 - 0.5
    assert got[4] == 1
    # overlapping children count once; a child spilling past the parent is clipped
    assert got[5] == 10 - (7 + 1)


def test_layer_metrics_sum_self_time_by_module():
    trace = {
        "spans": [(1, "cli.main", 0.0, 4.0, None, 0, 0.5),
                  (2, "series.mul.QQ_beta", 1.0, 3.0, 1, 0, 1.5)],
        "calls": {"cli.main": 1, "series.mul.QQ_beta": 1, "multipoly.MultiPoly.mul": 7},
        "agg_self": {"multipoly.MultiPoly.mul": 2.0},
    }
    m = layers.layer_metrics(trace)
    assert m["cli.main.self_s"][0] == 4 - 2 - 0.5
    assert m["series.mul.calls"][0] == 1
    assert m["series.mul.self_s"][0] == m["series.mul.QQ_beta.self_s"][0] == 0.5
    assert m["multipoly.self_s"][0] == 2.0
    assert m["multipoly.MultiPoly.mul.calls"][0] == 7
    assert m["verify.prop2.s"][0] == 0


# -- trace hygiene --------------------------------------------------------------------


def _snapshot():
    mods = [m for name, m in sorted(sys.modules.items()) if name.startswith("tatecalc")]
    owners = mods + [getattr(sys.modules[f"tatecalc.{m}"], c)
                     for m, cs in tracing.AGG_CLASSES.items() for c in cs]
    snap = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    snap.update({("suites", k): v for k, v in verify._SUITES.items()})
    snap[("Fraction", "__new__")] = Fraction.__dict__["__new__"]
    return snap


def test_wrappers_restore_originals():
    before = _snapshot()
    tracer = tracing.Tracer().install()
    try:
        assert cli.main is not before[(id(cli), "main")]
        assert cli.parse is not before[(id(cli), "parse")]
        assert verify._SUITES["prop2"] is not before[("suites", "prop2")]
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_outputs_equal_untraced():
    ops = workloads.first_ops("interactive", 5, 120)
    plain = [_call(cli.main, op.argv)[:3] for op in ops]
    tracer = tracing.Tracer().install()
    try:
        traced = [_call(cli.main, op.argv)[:3] for op in ops]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.calls["cli.main"] == len(ops)
    assert tracer.calls["fractions.Fraction.new"] > 0


def test_call_counts_repeat_across_traced_runs():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    counts = []
    for n in range(2):
        out = work / f"test-counts-{n}.json"
        subprocess.run([sys.executable, str(BENCH / "inproc.py"), "batch", "--workload",
                        "interactive", "--seed", "7", "--count", "150", "--trace", "1",
                        "--out", str(out)], check=True, cwd=ROOT, env=env)
        counts.append(json.loads(out.read_text())["trace"]["calls"])
        out.unlink()
    assert counts[0] == counts[1]
    assert counts[0]["parser.parse"] > 0


# -- checks ---------------------------------------------------------------------------


def test_product_oracles():
    b = workloads.Op("b-product", ("eval", "b_2*b_3"), operands=(2, 3))
    assert checks.product_oracle(b, "10*b_5\n") is None
    assert checks.product_oracle(b, "9*b_5\n") is not None
    beta = workloads.Op("beta-product", ("eval", "beta_2*beta_3"), operands=(2, 3))
    assert checks.product_oracle(beta, "3*binom(beta,3) + 12*binom(beta,4) + 10*binom(beta,5)") is None
    assert checks.product_oracle(beta, "3*binom(beta,3) + 12*binom(beta,4) + 11*binom(beta,5)")
    assert checks.product_oracle(beta, "2*binom(beta,2) + 3*binom(beta,3)")
    assert checks.parse_basis_sum("24 - b_1 + 2*b_3") == {0: 24, 1: -1, 3: 2}


def test_interactive_reference_catches_a_changed_answer():
    ops = workloads.first_ops("interactive", checks.DEFAULT_SEED, 40)
    results = [_call(cli.main, op.argv)[:3] for op in ops]
    assert not any(checks.check_interactive_run(ops, results, checks.DEFAULT_SEED))
    rc, out, err = results[13]
    results[13] = (rc, out + " ", err)
    fails = checks.check_interactive_run(ops, results, checks.DEFAULT_SEED)
    assert fails[13] and sum(1 for f in fails if f) == checks.BLOCK


# -- the run contract -------------------------------------------------------------------


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in layers.metric_names()]
    proc, result = run_bench("--workload", "interactive", "--seed", "3", "--seconds", "1",
                             "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "repeat_share" in proc.stdout and "calibration_s" in proc.stdout
    proc, result = run_bench("--workload", "interactive", "--seed", "3", "--seconds", "1",
                             "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_defect_shows_as_failed_ops():
    proc, result = run_bench("--workload", "verify-deep", "--seed", "1", "--seconds", "1",
                             "--trace", "0", "--defect", "3")
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    ratio = next(ln for ln in proc.stdout.splitlines() if "failed_ops_ratio" in ln)
    assert float(ratio.split()[1]) > 0


def test_checkout_without_program_fails_without_a_result():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc, result = run_bench("--workload", "interactive", "--seed", "1", "--seconds", "1",
                                 "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and result is None
    finally:
        shutil.rmtree(bare)
