"""Small helper that starts each fresh-process op and reports its cost.

Reads one JSON request per stdin line:
    [argv, stdout_path, stderr_path, timeout_s]
and answers one JSON line:
    [exit code, wall seconds, peak RSS in KiB]

Linux charges a process that calls exec with the memory of the process it
was spawned from, so the peak RSS that wait4 reports is never below the
spawner's own.  This helper stays near a bare interpreter's size, which keeps
that floor under any tatecalc process; run.py itself, which holds every
op's output, would not.
"""

import json
import os
import signal
import sys
from time import perf_counter

_child = 0


def _kill(_signum, _frame):
    if _child:
        os.kill(_child, signal.SIGKILL)


def main():
    global _child
    signal.signal(signal.SIGALRM, _kill)
    devnull = os.open(os.devnull, os.O_RDONLY)
    for line in sys.stdin:
        argv, out_path, err_path, timeout = json.loads(line)
        out = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        err = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        actions = [(os.POSIX_SPAWN_DUP2, devnull, 0), (os.POSIX_SPAWN_DUP2, out, 1),
                   (os.POSIX_SPAWN_DUP2, err, 2)]
        t0 = perf_counter()
        _child = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        signal.alarm(max(1, int(timeout)))
        _, status, usage = os.wait4(_child, 0)
        dt = perf_counter() - t0
        signal.alarm(0)
        _child = 0
        os.close(out)
        os.close(err)
        print(json.dumps([os.waitstatus_to_exitcode(status), dt, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
