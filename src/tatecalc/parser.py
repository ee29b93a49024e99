"""Expression parser for the CLI.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' signed-int)?
    base   := number | symbol | '(' expr ')' | ident '(' args ')'
    args   := expr (',' expr)* | <empty>

Errors are machine-readable: every ParseError carries a `code`, the byte
`offset` into the input, and the `expected` token set.

`tokenize` looks each character up in one punctuation table before it tests
the character classes, and builds each `Token` with `tuple.__new__`; the
parser reads each token as a plain (kind, text, pos) triple.  Each bracket
level costs four frames (expr, term, factor, base), so a nesting past the
recursion limit raises RecursionError, which the CLI reports.
"""

from __future__ import annotations

import re
import sys
from typing import NamedTuple

from .errors import TateCalcError

SYMBOLS = frozenset({"c", "cinv", "b", "q", "qinv", "beta", "T", "u", "s"})
_INDEXED = re.compile(r"(b|beta)_(\d+)$")

# function name -> arity
FUNCTIONS = {
    "exp": 1,
    "log": 1,
    "geom": 1,
    "binomial_series": 0,
    "bernoulli": 1,
    "boundary": 1,
    "pi_minus": 1,
    "partial_fractions": 1,
    "quotient": 1,
    "adams": 2,
    "expand": 2,
    "exp_bT": 0,
    "geom_cinv": 0,
}


class ParseError(TateCalcError):
    code = "syntax"

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
        super().__init__(detail)


class LexError(ParseError):
    code = "lex"


class UnknownNameError(ParseError):
    code = "unknown-name"


class ArityError(ParseError):
    code = "arity"


# -- AST ----------------------------------------------------------------------


class Num(NamedTuple):
    value: int


class Sym(NamedTuple):
    name: str


class Neg(NamedTuple):
    arg: "Expr"


class Bin(NamedTuple):
    op: str  # + - * /
    left: "Expr"
    right: "Expr"


class Pow(NamedTuple):
    base: "Expr"
    exponent: int


class Call(NamedTuple):
    func: str
    args: tuple["Expr", ...] = ()


Expr = Num | Sym | Neg | Bin | Pow | Call


# -- lexer ----------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # NUMBER IDENT OP LPAREN RPAREN COMMA CARET EOF
    text: str
    pos: int


# one lookup for each single-character token, before the character-class tests
_PUNCTUATION = {"+": "OP", "-": "OP", "*": "OP", "/": "OP", "^": "CARET",
                "(": "LPAREN", ")": "RPAREN", ",": "COMMA"}


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append, token = tokens.append, tuple.__new__  # a Token without its keyword handling
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        kind = _PUNCTUATION.get(ch)
        if kind is not None:
            append(token(Token, (kind, ch, i)))
            i += 1
        elif ch.isspace():
            i += 1
        elif ch.isdecimal():
            j = i + 1
            while j < n and source[j].isdecimal():
                j += 1
            append(token(Token, ("NUMBER", source[i:j], i)))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            append(token(Token, ("IDENT", source[i:j], i)))
            i = j
        else:
            raise LexError(f"unexpected character {ch!r}", i)
    append(token(Token, ("EOF", "", n)))
    return tokens


# -- parser ----------------------------------------------------------------------


class _Parser:
    """Recursive descent, one method per rule, so each bracket nests four
    frames (expr, term, factor, base).  Each method reads the token at
    `self.pos` as (kind, text, pos) and steps `self.pos` past what it takes."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0

    def _expect(self, kind: str, what: str) -> str:
        """The text of the next token, which must be of `kind`."""
        got, text, pos = self.tokens[self.pos]
        if got != kind:
            raise ParseError(f"unexpected {got or 'end of input'}", pos, (what,))
        self.pos += 1
        return text

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.tokens[self.pos]
        if kind != "EOF":
            raise ParseError(f"trailing input {text!r}", pos, ("operator", "end of input"))
        return e

    def expr(self) -> Expr:
        left = self.term()
        tokens = self.tokens
        while True:
            kind, op, _ = tokens[self.pos]
            if kind != "OP" or op not in "+-":
                return left
            self.pos += 1
            left = Bin(op, left, self.term())

    def term(self) -> Expr:
        left = self.factor()
        tokens = self.tokens
        while True:
            kind, op, _ = tokens[self.pos]
            if kind != "OP" or op not in "*/":
                return left
            self.pos += 1
            left = Bin(op, left, self.factor())

    def factor(self) -> Expr:
        tokens = self.tokens
        if tokens[self.pos][1] == "-":  # only an OP token has the text '-'
            self.pos += 1
            return Neg(self.factor())
        base = self.base()
        if tokens[self.pos][0] != "CARET":
            return base
        self.pos += 1
        sign = 1
        if tokens[self.pos][1] == "-":
            sign = -1
            self.pos += 1
        pos = tokens[self.pos][2]
        return Pow(base, sign * _integer(self._expect("NUMBER", "integer exponent"), pos))

    def base(self) -> Expr:
        kind, text, pos = self.tokens[self.pos]
        if kind == "NUMBER":
            self.pos += 1
            return Num(_integer(text, pos))
        if kind == "LPAREN":
            self.pos += 1
            inner = self.expr()
            self._expect("RPAREN", "')'")
            return inner
        if kind == "IDENT":
            self.pos += 1
            if self.tokens[self.pos][0] == "LPAREN":
                return self.call(text, pos)
            indexed = _INDEXED.match(text)
            if indexed:  # the evaluator reads the index back with int()
                _integer(indexed.group(2), pos + indexed.start(2))
            if text in SYMBOLS or indexed:
                return Sym(text)
            raise UnknownNameError(f"unknown symbol {text!r}", pos)
        raise ParseError(
            f"unexpected {kind if kind != 'EOF' else 'end of input'}",
            pos,
            ("number", "symbol", "'('", "function"),
        )

    def call(self, name: str, pos: int) -> Expr:
        if name not in FUNCTIONS:
            raise UnknownNameError(f"unknown function {name!r}", pos)
        self.pos += 1  # the '(' that `base` saw
        args: list[Expr] = []
        if self.tokens[self.pos][0] != "RPAREN":
            args.append(self.expr())
            while self.tokens[self.pos][0] == "COMMA":
                self.pos += 1
                args.append(self.expr())
        self._expect("RPAREN", "')'")
        arity = FUNCTIONS[name]
        if len(args) != arity:
            raise ArityError(f"{name} takes {arity} argument(s), got {len(args)}", pos)
        return Call(name, tuple(args))


def _integer(digits: str, offset: int) -> int:
    """int(digits), where more digits than the interpreter converts
    (sys.get_int_max_str_digits, 4300 by default) are a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"integer of {len(digits)} digits is over the limit of "
            f"{sys.get_int_max_str_digits()} digits", offset
        ) from None


def parse(source: str) -> Expr:
    return _Parser(source).parse()


def names_used(e: Expr) -> tuple[set[str], set[str]]:
    """(symbols, functions) named in the tree.  The puncture slot of expand()
    adds no symbol, but functions in it still count."""
    symbols: set[str] = set()
    functions: set[str] = set()

    def walk(node: Expr, into: set[str]) -> None:
        if isinstance(node, Sym):
            into.add(node.name)
        elif isinstance(node, Neg):
            walk(node.arg, into)
        elif isinstance(node, Pow):
            walk(node.base, into)
        elif isinstance(node, Bin):
            walk(node.left, into)
            walk(node.right, into)
        elif isinstance(node, Call):
            functions.add(node.func)
            for i, a in enumerate(node.args):
                puncture = node.func == "expand" and i == len(node.args) - 1
                walk(a, set() if puncture else into)

    walk(e, symbols)
    return symbols, functions
