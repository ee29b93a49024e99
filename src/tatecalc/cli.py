"""Command-line interface: eval, verify, expand, report.

Exit codes: 0 success / suite pass, 1 identity failure, 2 usage or parse or
evaluation-type error, division by zero, expressions nested too deeply and
integers of more than 4300 digits (typed in or to print) included.  The
`tatecalc` script also exits 1, without a traceback, when the reader of its
output closes the pipe early.  All randomness is seeded, so identical
invocations produce byte-identical output.

The argparse parser is built once per process, on the first `main` call, and
reused: `parse_args` keeps no state between calls (each call gets a new
namespace, usage errors look up `sys.stderr` when they print, and `prog` is
fixed), so a long-lived caller pays for `build_parser` once, not per query.

`entry`, the script's entry point, flushes the output and ends the process
with `os._exit`, skipping interpreter finalization; `main` returns its exit
code and leaves the process to its caller.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable

from . import expansions, tate_h, tate_k
from .errors import TateCalcError
from .evaluator import EvalError, evaluate, infer_mode, value_json
from .parser import names_used, parse
from .verify import COROLLARY_SIGN_MAX_ORDER, Q_INTEGRALITY_MAX_ORDER, SUITE_NAMES, run_suite

REPORT_NAMES = ("q-integrality", "corollary-sign", "expansion-sign")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tatecalc",
        description="Exact computation and identity verification in the Tate rings of circle actions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate an expression")
    ev.add_argument("expr", help="expression, e.g. 'boundary(cinv^2)' or 'geom(cinv)'")
    ev.add_argument("--ring", default="auto", choices=["auto", "tate_h", "tate_k", "series"],
                    help="ring context (default: inferred from the symbols used)")
    ev.add_argument("--order", type=int, default=8, help="truncation order for series results")
    ev.add_argument("--json", action="store_true", help="emit JSON")

    vf = sub.add_parser("verify", help="run a verification suite")
    vf.add_argument("suite", choices=list(SUITE_NAMES))
    vf.add_argument("--order", type=int, default=16)
    vf.add_argument("--seed", type=int, default=1)
    vf.add_argument("--json", action="store_true", help="emit the JSON report")
    vf.add_argument("--defect", type=int, default=None, help=argparse.SUPPRESS)

    ex = sub.add_parser("expand", help="expand a Tate K element at a puncture")
    ex.add_argument("expr", help="element of Z[q^±1, (1-q)^-1], e.g. '(1-q)^-1'")
    ex.add_argument("--at", required=True, choices=["0", "1", "inf"], dest="puncture")
    ex.add_argument("--order", type=int, default=8)
    ex.add_argument("--json", action="store_true")

    rp = sub.add_parser("report", help="print an investigative report")
    rp.add_argument("name", choices=list(REPORT_NAMES))
    rp.add_argument("--order", type=int, default=16)
    rp.add_argument("--json", action="store_true")

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.  `build_parser` is looked
    up at call time and not cached itself, so it stays a plain public function
    that returns a new parser."""
    return build_parser()


def _print(render: Callable[[], str]) -> None:
    """Print `render()`, the text of a computed result.

    str() of an integer longer than sys.get_int_max_str_digits (4300 digits by
    default) raises ValueError; here it becomes a typed error, exit 2.  Only
    the rendering is guarded: a ValueError raised while computing stays
    unmasked.
    """
    try:
        text = render()
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise TateCalcError(
            f"the result has an integer of more than {sys.get_int_max_str_digits()} "
            "digits, too long to print"
        ) from None
    print(text)


# What a command computed: its exit code, its JSON payload and its text.  The
# last two are built only when printed, through `_print`.
Outcome = tuple[int, Callable[[], object], Callable[[], str]]


def _cmd_eval(args: argparse.Namespace) -> Outcome:
    expr = parse(args.expr)
    symbols, functions = names_used(expr)
    mode = infer_mode(symbols, functions) if args.ring == "auto" else args.ring
    value = evaluate(expr, mode, args.order, symbols)
    return (0, lambda: {"expr": args.expr, "ring": mode, "order": args.order,
                        "value": value_json(value), "text": str(value)},
            lambda: str(value))


def _cmd_verify(args: argparse.Namespace) -> Outcome:
    report = run_suite(args.suite, args.order, args.seed, defect=args.defect)
    return 0 if report.passed else 1, report.to_json, report.__str__


def _cmd_expand(args: argparse.Namespace) -> Outcome:
    expr = parse(args.expr)
    value = evaluate(expr, "tate_k", args.order)
    if not isinstance(value, tate_k.TateKElem):
        raise EvalError("expand needs an element of Z[q^±1, (1-q)^-1]")
    puncture = expansions.Puncture(args.puncture)
    series = expansions.expand(value, puncture, args.order)
    return (0, lambda: {"puncture": args.puncture, "variable": puncture.variable,
                        "low": series.low, "order": series.order,
                        "coeffs": [int(c) for c in series.coeffs]},
            series.__str__)


def _cmd_report(args: argparse.Namespace) -> Outcome:
    bound = {"q-integrality": Q_INTEGRALITY_MAX_ORDER,
             "corollary-sign": COROLLARY_SIGN_MAX_ORDER}.get(args.name)
    if bound is not None and args.order > bound:
        raise TateCalcError(f"order {args.order} is above the {args.name} bound {bound}")
    if args.name == "q-integrality":
        rep = tate_k.integrality_report(args.order)
        return 0, rep.to_json, rep.__str__
    if args.order < 0:
        raise TateCalcError("order must be non-negative")
    order = max(args.order, 4)
    if args.name == "corollary-sign":
        res = tate_h.c_series_from_b(order)
        statement = f"c_hat = {res.matching_sign:+d} * b^-1 * B(-bT), B(D) = D/(e^D - 1)"
        return (0, lambda: {"report": "corollary-sign", "order": order,
                            "matchingSign": res.matching_sign, "statement": statement,
                            "cHat": res.c_hat.to_json()},
                lambda: f"{statement}\nc_hat = {res.c_hat}")
    # expansion-sign
    qinv = tate_k.TateKElem(tate_k.LaurentPoly("q", {-1: 1}))
    series = expansions.expand(qinv, expansions.Puncture.INFINITY, order)
    statement = (
        "q^-1 expands at the s-puncture as -(s + s^2 + ...); the sign is forced by "
        "(1 - s^-1) * (-sum_{k>=1} s^k) = 1, while the positive sum expands -q^-1"
    )
    return (0, lambda: {"report": "expansion-sign", "order": order,
                        "qInvAtS": series.to_json(), "statement": statement},
            lambda: f"{statement}\nq^-1 |-> {series}")


_COMMANDS: dict[str, Callable[[argparse.Namespace], Outcome]] = {
    "eval": _cmd_eval, "verify": _cmd_verify, "expand": _cmd_expand, "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        code, payload, text = _COMMANDS[args.command](args)
        _print(lambda: json.dumps(payload(), indent=2) if args.json else text())
    except (TateCalcError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # the parser and the evaluator recurse on the expression tree
        print("error: expression is nested too deeply", file=sys.stderr)
        return 2
    return code


def entry() -> None:
    """The `tatecalc` script and `python -m tatecalc.cli`: `main` on the
    process's arguments, then the end of the process.

    Once the output is flushed the process ends by `os._exit`, without
    interpreter finalization: tearing down the modules and objects of a run
    took 10-25 ms per process, after everything was written, and tatecalc
    registers no `atexit` handler and leaves no file, child or thread open
    by then.  A caller that needs the normal shutdown (a `-X dev` run that
    should report unclosed resources, say) calls `main` instead."""
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe then fails here, not at shutdown
        sys.stderr.flush()
    except BrokenPipeError:
        # the reader went away (`tatecalc ... | head`): send what Python would
        # still flush at exit to devnull and end quietly, as for SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    os._exit(code)


if __name__ == "__main__":
    entry()
