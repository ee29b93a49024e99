"""The command-line reader against argparse.

`cli._read` reads an argv of the plain shape straight from the grammar table,
and any other argv goes to the argparse parser that `build_parser` builds
from the same table.  Whatever the argv, the reader declines it or gives
exactly the namespace argparse gives; it takes every argv of the grammar's
own forms; and a process that answers only such argv never imports argparse.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

import tatecalc
from tatecalc import cli
from tatecalc.verify import SUITE_NAMES

SUITE_AND_REPORT_NAMES = [*SUITE_NAMES, *cli.REPORT_NAMES]

PARSER = cli.build_parser()


def parsed(argv):
    """vars() of argparse's namespace for `argv`, or None where it prints help
    or a usage error."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


# -- argparse's answer, or none -------------------------------------------------

# near-misses by the slot of an argv they stand in
NEAR = {
    "command": ["evaluate", "ev", "Eval", "-h", "--help", ""],
    "positional": ["al", "nosuch", "q-int", "eval", "", " ", "-q", "-1", "-", "--", "-h"],
    "flag": ["--ord", "--j", "--o", "--order=5", "--json=1", "--at=0", "--seed", "--ring", "--at",
             "--json", "--defect", "-h", "--help", "--", "--bogus", "-o"],
    "int": ["-1", " 5", " -1", "٣", "5_0", "0x1", "", "x", "1" * 5000],
    "choice": ["serie", "AUTO", "2", "infinity", "inf ", "", "-q", "all"],
}
EXPRESSIONS = st.text(max_size=12).filter(lambda s: not s.startswith("-"))


@st.composite
def argvs(draw, near):
    """An argv of the grammar's own forms: a command, a valid positional, then
    a random subset of its options, every required one included, in random
    order, each with a valid value.  With `near`, each slot may hold a
    near-miss for it instead, options may repeat or go missing, and a token
    may be dropped or one added."""
    def slot(kind, valid):
        return draw(st.sampled_from(NEAR[kind])) if near and draw(st.integers(0, 7)) == 7 else valid

    name = draw(st.sampled_from(sorted(cli._GRAMMAR)))
    command = cli._GRAMMAR[name]
    choices = command.choices
    argv = [slot("command", name),
            slot("positional", draw(st.sampled_from(choices) if choices else EXPRESSIONS))]
    flags = draw(st.permutations(list(command.options)))
    if near:
        flags += draw(st.lists(st.sampled_from(flags), max_size=2))
    for flag in flags:
        option = command.options[flag]
        if not (option.required and not near or draw(st.booleans())):
            continue
        argv.append(slot("flag", flag))
        if option.kind is int:
            argv.append(slot("int", str(draw(st.integers(0, 10**6)))))
        elif option.kind is not None:
            argv.append(slot("choice", draw(st.sampled_from(option.kind))))
    if near and draw(st.integers(0, 7)) == 7:
        del argv[draw(st.integers(0, len(argv) - 1))]
    if near and draw(st.integers(0, 7)) == 7:
        pool = sorted({token for tokens in NEAR.values() for token in tokens})
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(pool)))
    return argv


SOUP = st.lists(st.sampled_from([*cli._GRAMMAR, *SUITE_AND_REPORT_NAMES,
                                 *(token for tokens in NEAR.values() for token in tokens)]),
                max_size=8)


@settings(max_examples=600, deadline=None)
@given(argv=st.one_of(argvs(near=True), SOUP))
def test_the_reader_declines_or_gives_what_argparse_gives(argv):
    read = cli._read(argv)
    if read is not None:
        assert vars(read) == parsed(argv)


# -- every form of the grammar is read ------------------------------------------


@settings(max_examples=300, deadline=None)
@given(argv=argvs(near=False))
def test_every_argv_of_the_grammars_own_forms_is_read(argv):
    read = cli._read(argv)
    assert read is not None and vars(read) == parsed(argv)


def test_the_reader_declines_each_spelling_only_argparse_reads():
    for argv in (["eval", "q", "--order=5"], ["eval", "q", "--ord", "5"], ["eval", "q", "--j"],
                 ["eval", "--", "-q"], ["eval", "-q"], ["eval", "q", "--order", "-1"],
                 ["eval", "q", "-h"], ["--help"], ["eval"], ["expand", "q"],
                 ["eval", "q", "--order"], ["eval", "q", "extra"], ["verify", "nosuch"],
                 ["verify", "al"], ["eval", "q", "--order", "0x1"], ["eval", "q", "--ring", "serie"],
                 ["expand", "q", "--at", "2"]):
        assert cli._read(argv) is None, argv


# -- argparse only where it is needed -------------------------------------------

_CHILD = """
import json, sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from tatecalc import cli
with redirect_stdout(StringIO()):
    codes = [cli.main(["eval", "boundary(cinv^2)"]), cli.main(["verify", "all", "--order", "8"]),
             cli.main(["report", "q-integrality", "--order", "4"])]
loaded = [m for m in ("argparse", "gettext") if m in sys.modules]
answers = []
for argv in (["--help"], ["verify", "nosuch"]):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        answers.append([cli.main(argv), out.getvalue(), err.getvalue()])
print(json.dumps({"codes": codes, "loaded": loaded, "answers": answers}))
"""


def test_a_process_answering_well_formed_argv_never_imports_argparse(capsys, monkeypatch):
    # -S keeps site-packages hooks out, so only tatecalc's own imports count
    src = Path(tatecalc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-S", "-c", _CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0] and result["loaded"] == []
    # help and usage errors still come from argparse, as in this process
    monkeypatch.setenv("COLUMNS", "80")
    want = []
    for argv in (["--help"], ["verify", "nosuch"]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        want.append([code, captured.out, captured.err])
    assert result["answers"] == want
    assert want[0][1].startswith("usage: tatecalc ") and "invalid choice" in want[1][2]
