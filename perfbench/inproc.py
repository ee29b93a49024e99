"""Child process that calls `tatecalc.cli.main(argv)` in-process.

    inproc.py serve
        Long-lived session for the interactive workload: reads one JSON argv
        list per stdin line and answers one JSON line [rc, stdout, stderr,
        seconds in main]; at end of input it reports its peak RSS.
    inproc.py batch --workload W --seed S --count N --trace 0|1 --out PATH
        Runs the first N ops of a workload in-process, with or without the
        layer trace, and writes outputs, loop wall time and the trace to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import traceback
from time import perf_counter

import tracer as tracing
import workloads


def _call(main, argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call.  A
    call that raises answers exit code None with the traceback on stderr, so
    the op fails its check and the session goes on."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = main(list(argv))
        except Exception:
            rc = None
            traceback.print_exc()
        dt = perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), dt


def serve() -> int:
    from tatecalc import cli

    print(json.dumps({"ready": cli.__file__}), flush=True)
    for line in sys.stdin:
        print(json.dumps(_call(cli.main, json.loads(line))), flush=True)
    print(json.dumps({"peak_rss_kb": peak_rss_kb()}), flush=True)
    return 0


def peak_rss_kb() -> int:
    """This process's own high-water RSS.  getrusage would also count the
    memory of the process this one was spawned from."""
    with open("/proc/self/status") as fh:
        return int(next(ln.split()[1] for ln in fh if ln.startswith("VmHWM:")))


def batch(workload: str, seed: int, count: int, trace: bool, out_path: str) -> int:
    from tatecalc import cli

    ops = workloads.first_ops(workload, seed, count)
    tracer = tracing.Tracer().install() if trace else None
    outputs = []
    t0 = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        # module attribute lookup, so the traced wrapper is the one called
        outputs.append(_call(cli.main, op.argv)[:3])
    wall = perf_counter() - t0
    result = {"wall_s": wall, "outputs": outputs}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = {"spans": tracer.spans, "calls": tracer.calls,
                           "agg_self": tracer.agg_self}
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


def main() -> int:
    p = argparse.ArgumentParser()
    sub = p.add_subparsers(dest="mode", required=True)
    sub.add_parser("serve")
    b = sub.add_parser("batch")
    b.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--count", type=int, required=True)
    b.add_argument("--trace", type=int, choices=(0, 1), default=0)
    b.add_argument("--out", required=True)
    args = p.parse_args()
    if args.mode == "serve":
        return serve()
    return batch(args.workload, args.seed, args.count, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())
