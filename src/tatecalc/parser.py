"""Expression parser for the CLI.

Grammar (whitespace insensitive):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' signed-int)?
    base   := number | symbol | '(' expr ')' | ident '(' args ')'
    args   := expr (',' expr)* | <empty>

Errors are machine-readable: every ParseError carries a `code`, the byte
`offset` into the input, and the `expected` token set.
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


def tokenize(source: str) -> list[Token]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            tokens.append(Token("NUMBER", source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", source[i:j], i))
            i = j
            continue
        if ch in "+-*/":
            tokens.append(Token("OP", ch, i))
        elif ch == "^":
            tokens.append(Token("CARET", ch, i))
        elif ch == "(":
            tokens.append(Token("LPAREN", ch, i))
        elif ch == ")":
            tokens.append(Token("RPAREN", ch, i))
        elif ch == ",":
            tokens.append(Token("COMMA", ch, i))
        else:
            raise LexError(f"unexpected character {ch!r}", i)
        i += 1
    tokens.append(Token("EOF", "", n))
    return tokens


# -- parser ----------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.kind or 'end of input'}", tok.pos, (what,))
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"trailing input {tok.text!r}", tok.pos, ("operator", "end of input"))
        return e

    def expr(self) -> Expr:
        left = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            left = Bin(op, left, self.term())
        return left

    def term(self) -> Expr:
        left = self.factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            left = Bin(op, left, self.factor())
        return left

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return Neg(self.factor())
        base = self.base()
        if self.peek().kind == "CARET":
            self.advance()
            sign = 1
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "-":
                sign = -1
                self.advance()
            num = self.expect("NUMBER", "integer exponent")
            return Pow(base, sign * _integer(num.text, num.pos))
        return base

    def base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Num(_integer(tok.text, tok.pos))
        if tok.kind == "LPAREN":
            self.advance()
            inner = self.expr()
            self.expect("RPAREN", "')'")
            return inner
        if tok.kind == "IDENT":
            self.advance()
            if self.peek().kind == "LPAREN":
                return self.call(tok)
            indexed = _INDEXED.match(tok.text)
            if indexed:  # the evaluator reads the index back with int()
                _integer(indexed.group(2), tok.pos + indexed.start(2))
            if tok.text in SYMBOLS or indexed:
                return Sym(tok.text)
            raise UnknownNameError(f"unknown symbol {tok.text!r}", tok.pos)
        raise ParseError(
            f"unexpected {tok.kind if tok.kind != 'EOF' else 'end of input'}",
            tok.pos,
            ("number", "symbol", "'('", "function"),
        )

    def call(self, name: Token) -> Expr:
        if name.text not in FUNCTIONS:
            raise UnknownNameError(f"unknown function {name.text!r}", name.pos)
        self.expect("LPAREN", "'('")
        args: list[Expr] = []
        if self.peek().kind != "RPAREN":
            args.append(self.expr())
            while self.peek().kind == "COMMA":
                self.advance()
                args.append(self.expr())
        self.expect("RPAREN", "')'")
        arity = FUNCTIONS[name.text]
        if len(args) != arity:
            raise ArityError(
                f"{name.text} takes {arity} argument(s), got {len(args)}", name.pos
            )
        return Call(name.text, tuple(args))


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
