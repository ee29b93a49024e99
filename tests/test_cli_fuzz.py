"""Grammar fuzz through `cli.main`: whatever the expression, the CLI answers
with exit 0, 1 or 2 and raises nothing; on exit 2 stdout is empty and stderr
is one `error:` line.

Expressions come from the whole grammar: every symbol, `b_k` and `beta_k` for
k <= 8, the ints 0..5, the four binary operators, unary minus, `^` with
exponents -3..4 and every function at its arity, nested at most four deep.
Unary minus is parenthesised, so that no argument starts with '-' and reads
as an option.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from tatecalc.cli import main
from tatecalc.parser import FUNCTIONS, SYMBOLS

LEAVES = st.sampled_from(
    sorted(SYMBOLS)
    + [f"{name}_{k}" for name in ("b", "beta") for k in range(9)]
    + [str(n) for n in range(6)]
)


def _nodes(inner):
    binary = st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
    negation = inner.map(lambda x: f"(-{x})")
    power = st.tuples(inner, st.integers(-3, 4)).map(lambda t: f"({t[0]})^{t[1]}")
    calls = [st.tuples(*[inner] * arity).map(lambda args, f=f: f"{f}({', '.join(args)})")
             for f, arity in sorted(FUNCTIONS.items())]
    return st.one_of(binary, negation, power, *calls)


def _expressions(depth: int):
    if depth == 0:
        return LEAVES
    return st.one_of(LEAVES, _nodes(_expressions(depth - 1)))


@st.composite
def queries(draw):
    expr = draw(_expressions(4))
    if draw(st.booleans()):
        argv = ["eval", expr, "--ring", draw(st.sampled_from(["auto", "tate_h", "tate_k", "series"]))]
    else:
        argv = ["expand", expr, "--at", draw(st.sampled_from(["0", "1", "inf"]))]
    argv += ["--order", str(draw(st.integers(0, 8)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=queries())
def test_every_query_exits_0_1_or_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
