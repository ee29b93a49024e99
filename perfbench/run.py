"""tatecalc benchmark: three workloads against the CLI, checked op by op.

    python3 perfbench/run.py --workload verify-deep|q-integrality|interactive
                             --seed N --seconds S --trace 0|1

Run from anywhere inside a tatecalc checkout; the program is imported from
the checkout's `src/`.  One closed-loop client keeps one op in flight.  With
`--trace 0` the last stdout line is a JSON object with the end-to-end metrics;
with `--trace 1` the same ops run in-process twice, untraced and traced, and
the JSON carries the per-layer metrics.  Exit 0 when every op checked out,
1 when some op failed, 2 (and no JSON) when the checkout cannot be run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"          # scratch outputs of one run (git-ignored)
PY = sys.executable
SETUP_REPS = 6                       # before and again after the workload
P99_MIN_OPS = 1000
DEADLINE_S = 170                     # hard stop for the whole run


class Unrunnable(Exception):
    """The checkout has no runnable tatecalc."""


def child_env() -> dict:
    """Environment of every process the benchmark starts.  Bytecode is
    cached, as for an installed package, under WORK whatever the caller's
    PYTHONDONTWRITEBYTECODE; a fixed hash seed makes call counts repeat."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    return env


class Runner:
    def __init__(self, seconds: int):
        self.env = child_env()
        self.t_start = perf_counter()
        self.seconds = seconds
        self.spawner = subprocess.Popen([PY, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True, env=self.env,
                                        cwd=ROOT)

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def remaining(self) -> float:
        return DEADLINE_S - (perf_counter() - self.t_start)

    def spawn(self, argv):
        """Run one fresh process; returns (rc, stdout, stderr, seconds, peak_rss_kb)."""
        WORK.mkdir(exist_ok=True)
        out, err = WORK / "stdout", WORK / "stderr"
        request = [argv, str(out), str(err), max(self.remaining(), 1.0)]
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        rc, dt, rss_kb = json.loads(self.spawner.stdout.readline())
        return rc, out.read_text(), err.read_text(), dt, rss_kb

    # -- set-up ---------------------------------------------------------------------

    def preflight(self) -> None:
        if not (SRC / "tatecalc" / "cli.py").is_file():
            raise Unrunnable(f"no tatecalc sources under {SRC}")
        rc, out, err, _, _ = self.spawn(
            [PY, "-c", "import tatecalc.cli as c; c.build_parser(); print(c.__file__)"])
        if rc != 0 or not out.strip().startswith(str(SRC)):
            raise Unrunnable(f"importing tatecalc from {SRC} failed: {err.strip()[-300:]}")

    def setup_times(self) -> list[float]:
        times = []
        for _ in range(SETUP_REPS):
            rc, _, err, dt, _ = self.spawn(
                [PY, "-c", "import tatecalc.cli; tatecalc.cli.build_parser()"])
            if rc != 0:
                raise Unrunnable(f"set-up failed: {err.strip()[-300:]}")
            times.append(dt)
        return times

    # -- timed workloads ----------------------------------------------------------------

    def fresh_process_ops(self, workload: str, seed: int, defect: int | None):
        """Closed loop: each op is `python -m tatecalc.cli ...` in a new process.
        An op starts only if a median-length op would still end within the
        run's seconds, so a run lasts about as long as asked."""
        ops, results, lat, rss = [], [], [], []
        stream = workloads.ops_for(workload, seed)
        t0 = perf_counter()
        while not ops or perf_counter() - t0 + statistics.median(lat) <= self.seconds:
            if self.remaining() < 20:
                break
            op = next(stream)
            if defect is not None:
                op = replace(op, argv=op.argv + ("--defect", str(defect)))
            rc, out, err, dt, kb = self.spawn([PY, "-m", "tatecalc.cli", *op.argv])
            ops.append(op)
            results.append((rc, out, err))
            lat.append(dt)
            rss.append(kb)
        return ops, results, lat, max(rss), perf_counter() - t0

    def session_ops(self, seed: int):
        """Closed loop of queries through cli.main in one long-lived process."""
        WORK.mkdir(exist_ok=True)
        with open(WORK / "session-stderr", "w+") as fe:
            p = subprocess.Popen([PY, str(HERE / "inproc.py"), "serve"], stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, stderr=fe, text=True,
                                 env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(self.remaining() - 5, 1.0), p.kill)
            watchdog.start()
            try:
                if not p.stdout.readline():
                    fe.seek(0)
                    raise Unrunnable(f"session did not start: {fe.read().strip()[-300:]}")
                ops, results, lat = [], [], []
                stream = workloads.interactive_stream(seed)
                t0 = perf_counter()
                while perf_counter() - t0 < self.seconds:
                    op = next(stream)
                    p.stdin.write(json.dumps(op.argv) + "\n")
                    p.stdin.flush()
                    line = p.stdout.readline()
                    ops.append(op)
                    if not line:   # the session died; the op failed without a latency
                        results.append((None, "", "session ended"))
                        break
                    rc, out, err, dt = json.loads(line)
                    results.append((rc, out, err))
                    lat.append(dt)
                wall = perf_counter() - t0
                p.stdin.close()
                tail = p.stdout.readline()
                rss_kb = json.loads(tail)["peak_rss_kb"] if tail else 0
            finally:
                if not p.stdin.closed:
                    p.kill()
                p.wait()
                watchdog.cancel()
        return ops, results, lat, rss_kb, wall

    # -- traced run -----------------------------------------------------------------------

    def in_process(self, workload: str, seed: int, trace: bool) -> dict:
        WORK.mkdir(exist_ok=True)
        path = WORK / f"inproc-{workload}-{seed}-{int(trace)}.json"
        rc, _, err, _, _ = self.spawn(
            [PY, str(HERE / "inproc.py"), "batch", "--workload", workload, "--seed", str(seed),
             "--count", str(workloads.TRACE_OPS[workload]), "--trace", str(int(trace)),
             "--out", str(path)])
        if rc != 0:
            raise Unrunnable(f"in-process run failed: {err.strip()[-300:]}")
        with open(path) as fh:
            data = json.load(fh)
        path.unlink()
        return data


def calibrate() -> float:
    """Fixed stdlib-only loop; a drift diagnostic, never used to rescale."""
    t0 = perf_counter()
    acc = 0
    for i in range(1, 30001):
        acc += (Fraction(i, i + 1) * Fraction(i + 2, i + 3)).numerator & 1
    return perf_counter() - t0


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"python {platform.python_version()}, nproc {nproc}, cpu {cpu}"


def tail_latency(values) -> float:
    """Nearest-rank p99 when at least ten samples lie beyond it (1000+ ops).

    With fewer ops no percentile above the median has ten samples beyond
    it, so the median stands in: the slowest of a handful of ops would only
    measure the machine's drift."""
    ordered = sorted(values)
    if len(ordered) < P99_MIN_OPS:
        return statistics.median(ordered)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def report_failures(ops, fails) -> int:
    bad = [(op, why) for op, why in zip(ops, fails) if why]
    for op, why in bad[:5]:
        print(f"FAILED {' '.join(op.argv)}: {why}", file=sys.stderr)
    return len(bad)


def timed(runner: Runner, workload: str, seed: int, defect: int | None):
    setup = runner.setup_times()
    if workload == "interactive":
        ops, results, lat, rss_kb, wall = runner.session_ops(seed)
    else:
        ops, results, lat, rss_kb, wall = runner.fresh_process_ops(workload, seed, defect)
    setup += runner.setup_times()
    failed = report_failures(ops, checks.check_run(workload, ops, results, seed))
    n = len(ops)
    lat = lat or [0.0]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_s.p50": (statistics.median(lat), "s"),
        "latency_s.p99": (tail_latency(lat), "s"),
        "throughput_ops_per_s": ((n - failed) / wall, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters running "
        "import tatecalc.cli + build_parser(), half before and half after the workload",
        f"latency samples: {n}; "
        + (f"beyond p99: {n - math.ceil(0.99 * n)}" if n >= P99_MIN_OPS
           else f"under {P99_MIN_OPS}, so latency_s.p99 repeats the median"),
        f"failed_ops_ratio {failed / n:.6g} ratio ({failed} failed / {n} attempted)",
    ]
    if workload == "interactive":
        distinct = len({op.argv for op in ops})
        notes.append(f"repeat_share {(n - distinct) / n:.4f} ratio "
                     f"({n - distinct} of {n} queries repeat an earlier query of this run)")
    return metrics, notes, n, failed


def traced(runner: Runner, workload: str, seed: int):
    plain = runner.in_process(workload, seed, trace=False)
    data = runner.in_process(workload, seed, trace=True)
    ops = workloads.first_ops(workload, seed, workloads.TRACE_OPS[workload])
    fails = checks.check_run(workload, ops, data["outputs"], seed)
    for k, (a, b) in enumerate(zip(plain["outputs"], data["outputs"])):
        if a != b:
            fails[k] = fails[k] or "traced output differs from the untraced output"
    failed = report_failures(ops, fails)
    metrics = layers.layer_metrics(data["trace"])
    metrics["trace.overhead_s"] = (data["wall_s"] - plain["wall_s"], "s")
    notes = [f"traced ops: {len(ops)}; untraced wall {plain['wall_s']:.4f} s, "
             f"traced wall {data['wall_s']:.4f} s"]
    notes += [f"unlisted layer metric {k} {v[0]:.6g} {v[1]}"
              for k, v in layers.unlisted_metrics(data["trace"]).items()]
    return metrics, notes, len(ops), failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--defect", type=int, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    runner = Runner(args.seconds)
    try:
        runner.preflight()
        print(f"perfbench: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print(f"machine: {machine()}")
        cal_before = calibrate()
        if args.trace:
            metrics, notes, attempted, failed = traced(runner, args.workload, args.seed)
        else:
            metrics, notes, attempted, failed = timed(runner, args.workload, args.seed, args.defect)
        cal_after = calibrate()
    except Unrunnable as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()
    print(f"calibration_s: before {cal_before:.4f} after {cal_after:.4f} "
          "(drift diagnostic only; no metric is rescaled by it)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
