"""Grammar, machine-readable errors, the names an expression uses, and
round trips through a pretty-printer kept here as the parser's inverse."""

import inspect
import sys

import pytest

from tatecalc.parser import (
    ArityError,
    Bin,
    Call,
    LexError,
    Neg,
    Num,
    ParseError,
    Pow,
    Sym,
    Token,
    UnknownNameError,
    names_used,
    parse,
    tokenize,
)


def test_function_application():
    assert parse("geom(cinv)") == Call("geom", (Sym("cinv"),))
    assert parse("adams(2, q + q^-1)") == Call(
        "adams", (Num(2), Bin("+", Sym("q"), Pow(Sym("q"), -1)))
    )
    assert parse("binomial_series()") == Call("binomial_series", ())


def test_signed_exponent_tree():
    t = parse("(1-q)^-1 * (1-q)")
    assert t == Bin(
        "*",
        Pow(Bin("-", Num(1), Sym("q")), -1),
        Bin("-", Num(1), Sym("q")),
    )


def test_precedence_and_associativity():
    assert parse("1 + 2 * 3") == Bin("+", Num(1), Bin("*", Num(2), Num(3)))
    assert parse("1 - 2 - 3") == Bin("-", Bin("-", Num(1), Num(2)), Num(3))
    assert parse("2 ^ 3") == Pow(Num(2), 3)
    assert parse("-q^2") == Neg(Pow(Sym("q"), 2))


def test_indexed_symbols():
    assert parse("b_3") == Sym("b_3")
    assert parse("beta_12") == Sym("beta_12")


def test_whitespace_insensitive():
    assert parse(" geom( cinv ) ") == parse("geom(cinv)")


class TestErrors:
    def test_unclosed_call_offset(self):
        with pytest.raises(ParseError) as err:
            parse("exp(")
        assert err.value.offset == 4
        assert err.value.code == "syntax"

    def test_missing_rparen(self):
        with pytest.raises(ParseError) as err:
            parse("geom(cinv")
        assert err.value.offset == 9
        assert "')'" in err.value.expected

    def test_unknown_symbol(self):
        with pytest.raises(UnknownNameError) as err:
            parse("zeta + 1")
        assert err.value.code == "unknown-name"
        assert err.value.offset == 0

    def test_unknown_function(self):
        with pytest.raises(UnknownNameError):
            parse("frobenius(q)")

    def test_arity(self):
        with pytest.raises(ArityError) as err:
            parse("adams(2)")
        assert err.value.code == "arity"
        with pytest.raises(ArityError):
            parse("exp(T, T)")

    def test_lex_error(self):
        with pytest.raises(LexError) as err:
            parse("q + $")
        assert err.value.code == "lex"
        assert err.value.offset == 4

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("q q")

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError):
            parse("q^x")


ROUND_TRIP_CORPUS = [
    "geom(cinv)",
    "boundary(cinv^2)",
    "(1 - q)^-1 * (1 - q)",
    "adams(2, q + q^-1)",
    "exp(b * T)",
    "1 + 2 * 3 - 4",
    "q^-5 / (1 - q)",
    "-(q + 1)",
    "partial_fractions(q^-1 * (1 - q)^-1)",
    "expand(qinv, s)",
    "b_1 * b_2 + 3",
    "bernoulli(12)",
    "exp_bT()",
    "((1 + T)^2)^3",
]


# A minimal-parenthesis printer, the inverse the round trip checks the parser
# against: precedence, left associativity and signed exponents must all come
# back as the same tree.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def render(e):
    text, _ = _render(e)
    return text


def _render(e):
    if isinstance(e, Num):
        return str(e.value), 5
    if isinstance(e, Sym):
        return e.name, 5
    if isinstance(e, Neg):
        inner, prec = _render(e.arg)
        if prec < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PREC["neg"]
    if isinstance(e, Pow):
        base, prec = _render(e.base)
        # the grammar allows one exponent per factor, so nested bases need parens
        if prec < _PREC["^"] or isinstance(e.base, (Bin, Neg, Pow)):
            base = f"({base})"
        return f"{base}^{e.exponent}", _PREC["^"]
    if isinstance(e, Bin):
        my = _PREC[e.op]
        left, lp = _render(e.left)
        right, rp = _render(e.right)
        if lp < my:
            left = f"({left})"
        # right side needs parens at equal precedence for - and /
        if rp < my or (rp == my and e.op in "-/"):
            right = f"({right})"
        return f"{left} {e.op} {right}", my
    args = ", ".join(render(a) for a in e.args)
    return f"{e.func}({args})", 5


@pytest.mark.parametrize("source", ROUND_TRIP_CORPUS)
def test_render_parse_round_trip(source):
    tree = parse(source)
    assert parse(render(tree)) == tree


@pytest.mark.parametrize("source,symbols,functions", [
    ("b_2*b_3 - 3*b", {"b_2", "b_3", "b"}, set()),
    ("exp(b*T)*geom(cinv)", {"b", "T", "cinv"}, {"exp", "geom"}),
    # the puncture slot adds no symbol, but a function in it still counts
    ("expand(qinv, s)", {"qinv"}, {"expand"}),
    ("expand(q, exp_bT())", {"q"}, {"expand", "exp_bT"}),
    ("-(2 + 3)^-1", set(), set()),
])
def test_names_used(source, symbols, functions):
    assert names_used(parse(source)) == (symbols, functions)


def test_tokenize_returns_tokens():
    tokens = tokenize("beta_3*(q^-2 + 17)")
    assert all(type(t) is Token for t in tokens)
    assert tokens[0] == Token("IDENT", "beta_3", 0) and tokens[0].kind == "IDENT"
    assert tokens[-1] == Token("EOF", "", 18)
    assert [t.kind for t in tokens[1:-1]] == [
        "OP", "LPAREN", "IDENT", "CARET", "OP", "NUMBER", "OP", "NUMBER", "RPAREN"]


def test_a_bracket_level_costs_four_frames(capsys):
    # expr, term, factor and base recurse once per bracket: a nesting that
    # fills the frames left under the recursion limit at four a level
    # evaluates, and at a fifth frame a level it would not
    from tatecalc.cli import main

    depth = (sys.getrecursionlimit() - len(inspect.stack()) - 40) // 4
    assert depth > 150
    assert main(["eval", "(" * depth + "q" + ")" * depth]) == 0
    assert capsys.readouterr().out == "q\n"
    assert main(["eval", "(" * 10000 + "1" + ")" * 10000]) == 2
    assert capsys.readouterr() == ("", "error: expression is nested too deeply\n")
