"""Command-line interface: eval, verify, expand, report.

Exit codes: 0 success / suite pass, 1 identity failure, 2 usage or parse or
evaluation-type error, division by zero, expressions nested too deeply and
integers of more than 4300 digits (typed in or to print) included.  The
`tatecalc` script also exits 1, without a traceback, when the reader of its
output closes the pipe early.  All randomness is seeded, so identical
invocations produce byte-identical output.

The command-line grammar is declared once, in `_GRAMMAR`.  `_read` reads an
argv of the plain shape straight from it: a command, its positional, then
options spelled out in full, each with a value that does not start with `-`.
Any other argv (`--help`, a usage error, an abbreviated option, `--order=5`,
`--`, a value or expression starting with `-`) goes to the argparse parser
that `build_parser` builds from the same table, so help and usage errors
read as argparse writes them.  `argparse` is imported only there: a process
answering well-formed argv never imports it.  The parser is built once per
process, on first use, and reused: `parse_args` keeps no state between calls
(each call gets a new namespace, usage errors look up `sys.stderr` when they
print, and `prog` is fixed), so a long-lived caller pays for `build_parser`
once, not per query.

`entry`, the script's entry point, flushes the output and ends the process
with `os._exit`, skipping interpreter finalization; `main` returns its exit
code and leaves the process to its caller.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import expansions, tate_h, tate_k
from .errors import TateCalcError
from .evaluator import EvalError, evaluate, infer_mode, value_json
from .parser import names_used, parse
from .verify import COROLLARY_SIGN_MAX_ORDER, Q_INTEGRALITY_MAX_ORDER, SUITE_NAMES, run_suite

if TYPE_CHECKING:
    import argparse

    Args = SimpleNamespace | argparse.Namespace  # from `_read`, or from the parser

REPORT_NAMES = ("q-integrality", "corollary-sign", "expansion-sign")


class _Option(NamedTuple):
    """One option of a command.  `kind` is int for an integer value, a tuple
    of the allowed values, or None for a flag that takes no value."""
    dest: str
    kind: type[int] | tuple[str, ...] | None
    default: object = None
    required: bool = False
    help: str | None = None


class _Command(NamedTuple):
    """One command: its help line, its one positional and its options."""
    help: str
    positional: str
    positional_help: str | None
    choices: tuple[str, ...] | None  # of the positional; None takes any value
    options: dict[str, _Option]  # by flag, in --help order


_HIDDEN = "(hidden)"  # the help of an option left out of --help (argparse.SUPPRESS)
_DESCRIPTION = "Exact computation and identity verification in the Tate rings of circle actions."
# read by `_read` and by `build_parser`, so the two cannot drift apart
_GRAMMAR = {
    "eval": _Command("evaluate an expression", "expr",
                     "expression, e.g. 'boundary(cinv^2)' or 'geom(cinv)'", None, {
        "--ring": _Option("ring", ("auto", "tate_h", "tate_k", "series"), "auto",
                          help="ring context (default: inferred from the symbols used)"),
        "--order": _Option("order", int, 8, help="truncation order for series results"),
        "--json": _Option("json", None, False, help="emit JSON"),
    }),
    "verify": _Command("run a verification suite", "suite", None, SUITE_NAMES, {
        "--order": _Option("order", int, 16),
        "--seed": _Option("seed", int, 1),
        "--json": _Option("json", None, False, help="emit the JSON report"),
        "--defect": _Option("defect", int, None, help=_HIDDEN),
    }),
    "expand": _Command("expand a Tate K element at a puncture", "expr",
                       "element of Z[q^±1, (1-q)^-1], e.g. '(1-q)^-1'", None, {
        "--at": _Option("puncture", ("0", "1", "inf"), required=True),
        "--order": _Option("order", int, 8),
        "--json": _Option("json", None, False),
    }),
    "report": _Command("print an investigative report", "name", None, REPORT_NAMES, {
        "--order": _Option("order", int, 16),
        "--json": _Option("json", None, False),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `_GRAMMAR`, for the argv that `_read` declines:
    help, usage errors and the spellings only argparse reads."""
    import argparse

    p = argparse.ArgumentParser(prog="tatecalc", description=_DESCRIPTION)
    sub = p.add_subparsers(dest="command", required=True)
    for name, command in _GRAMMAR.items():
        cp = sub.add_parser(name, help=command.help)
        cp.add_argument(command.positional, help=command.positional_help, choices=command.choices)
        for flag, o in command.options.items():
            if o.kind is None:
                kind = {"action": "store_true"}
            elif o.kind is int:
                kind = {"type": int}
            else:
                kind = {"choices": o.kind}
            cp.add_argument(flag, dest=o.dest, default=o.default, required=o.required,
                            help=argparse.SUPPRESS if o.help is _HIDDEN else o.help, **kind)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.  `build_parser` is looked
    up at call time and not cached itself, so it stays a plain public function
    that returns a new parser."""
    return build_parser()


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace the parser gives for `argv`, read from `_GRAMMAR`, when
    `argv` is a command, its positional, then full option names each with a
    value that does not start with `-` (`--json` takes none), with every
    value valid and every required option given.  None for any other argv,
    which the parser then reads, and answers or refuses."""
    command = _GRAMMAR.get(argv[0]) if len(argv) > 1 else None
    if command is None:
        return None
    value = argv[1]
    if value[:1] == "-" or (command.choices is not None and value not in command.choices):
        return None
    args = {"command": argv[0], command.positional: value}
    options, i, n = command.options, 2, len(argv)
    while i < n:
        option = options.get(argv[i])
        if option is None:
            return None
        if option.kind is None:
            args[option.dest] = True
            i += 1
            continue
        if i + 1 == n:
            return None
        value = argv[i + 1]
        if value[:1] == "-":
            return None
        if option.kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif value not in option.kind:
            return None
        args[option.dest] = value
        i += 2
    for option in options.values():
        if option.dest not in args:
            if option.required:
                return None
            args[option.dest] = option.default
    return SimpleNamespace(**args)


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


def _cmd_eval(args: Args) -> Outcome:
    expr = parse(args.expr)
    symbols, functions = names_used(expr)
    mode = infer_mode(symbols, functions) if args.ring == "auto" else args.ring
    value = evaluate(expr, mode, args.order, symbols)
    return (0, lambda: {"expr": args.expr, "ring": mode, "order": args.order,
                        "value": value_json(value), "text": str(value)},
            lambda: str(value))


def _cmd_verify(args: Args) -> Outcome:
    report = run_suite(args.suite, args.order, args.seed, defect=args.defect)
    return 0 if report.passed else 1, report.to_json, report.__str__


def _cmd_expand(args: Args) -> Outcome:
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


def _cmd_report(args: Args) -> Outcome:
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


_COMMANDS: dict[str, Callable[[Args], Outcome]] = {
    "eval": _cmd_eval, "verify": _cmd_verify, "expand": _cmd_expand, "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
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
