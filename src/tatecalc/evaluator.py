"""Evaluation of parsed expressions against a ring context.

Three contexts exist, mirroring how the same symbol means different things on
the two sides of the theory:

* tate_h   -- honest Laurent arithmetic in Z[c,c^-1] plus divided powers;
              cinv *is* c^-1 here.
* tate_k   -- Z[q^±1, (1-q)^-1] elements plus numerical polynomials.
* series   -- truncated series in T whose coefficients live in a polynomial
              ring over the bare symbols used; cinv/qinv are primitive scale
              generators here, deliberately not inverses of anything.

One tree walk serves all three: scalars (int, Fraction) meet scalars there,
and every other operand goes to the context.  The two Tate contexts share one
operator rule for unary -, +, -, *, and ^ (see `_EvalTate`); division is each
ring's own.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import comb
from typing import Collection

from . import expansions, tate_h, tate_k
from .basis import DividedPowerElem, NumericalPoly
from .errors import DomainError, TateCalcError
from .laurent import LaurentPoly
from .multipoly import MultiPoly
from .parser import Bin, Call, Expr, Neg, Num, Pow, Sym
from .series import QQ, TruncSeries, bernoulli_number, geometric_series, poly_ring
from .tate_k import TateKElem


class EvalError(TateCalcError):
    """Type/usage error while evaluating an expression."""


_H_SYMBOLS = {"c", "cinv", "b"}
_K_SYMBOLS = {"q", "qinv", "beta"}
_H_FUNCS = {"boundary", "pi_minus", "exp_bT", "geom_cinv"}
_K_FUNCS = {"partial_fractions", "quotient", "adams", "expand"}
_SERIES_FUNCS = {"exp", "log", "geom", "binomial_series", "bernoulli"}
# canonical generator order for series-mode coefficient rings
_GEN_ORDER = ("b", "beta", "c", "cinv", "q", "qinv", "u", "s")
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
# the puncture slot of expand(): 0, 1, or a local coordinate q/u/s (s = infinity)
_PUNCTURE_SLOT = {Num(0): expansions.Puncture.ZERO, Sym("q"): expansions.Puncture.ZERO,
                  Num(1): expansions.Puncture.ONE, Sym("u"): expansions.Puncture.ONE,
                  Sym("s"): expansions.Puncture.INFINITY}

# bernoulli(n) extends one table through B_n by the recurrence, n^2/8 rational
# products: a fresh process took 0.16 s at n = 256, 0.5 s at 512, 0.7 s at 600
# and 3.2 s at 1000 (CPython 3.11, 2-vCPU VM); indices above 512 exit 2.
BERNOULLI_MAX_INDEX = 512

# A series result grows with the order in both length and coefficient size:
# in a fresh process `eval "exp(b*T)*geom(cinv)"` took 0.6 s at order 256,
# 1.8 s at 384, 3.6 s at 512 (160 MB, printing 46 MB) and 5.9 s at 600
# (283 MB, printing 75 MB), and `eval "1+T" --order 4000000` took 12-17 s and
# 383 MB to print `1 + T` (CPython 3.11, 2-vCPU VM).  So series and tate_h
# orders above 512 exit 2 before any series is built.  tate_k values carry no
# order; its expansions keep their own bound, `expansions.MAX_ORDER`.
# A series in g generators has up to comb(order + g, g) monomials through
# T^order, and more generators cost more: `exp(b*T+c*T+q*T)` took 4.3 s and
# 213 MB at order 120, and the same exponent over all eight generators 12 s
# and 338 MB at order 16.  So a series order whose comb(order + g, g) exceeds
# the two-generator count at MAX_ORDER, comb(MAX_ORDER + 2, 2), exits 2 too:
# the bound is 90 for three generators, 39 for four and 12 for eight, each
# under 2 s and 90 MB in a fresh process (CPython 3.11, 2-vCPU VM).
MAX_ORDER = 512


def infer_mode(symbols: set[str], functions: set[str]) -> str:
    """The ring context of an expression, from `parser.names_used`."""
    if functions & _SERIES_FUNCS or symbols & {"T", "u", "s"}:
        return "series"
    h_marks = bool(symbols & _H_SYMBOLS) or any(s.startswith("b_") for s in symbols) or bool(functions & _H_FUNCS)
    k_marks = bool(symbols & _K_SYMBOLS) or any(s.startswith("beta_") for s in symbols) or bool(functions & _K_FUNCS)
    if h_marks and k_marks:
        raise EvalError("expression mixes H-side (c, b) and K-side (q, beta) symbols; pass --ring")
    if k_marks:
        return "tate_k"
    if h_marks:
        return "tate_h"
    return "series"


def evaluate(expr: Expr, mode: str, order: int = 8, symbols: Collection[str] = ()):
    """The value of `expr` in the context `mode` (tate_h, tate_k or series).

    `symbols` are the expression's symbols (`parser.names_used`); series mode
    builds its coefficient ring from them, the Tate contexts do not read them.
    """
    if mode != "tate_k":
        if order > MAX_ORDER:
            raise DomainError(f"order {order} is above the series bound {MAX_ORDER}")
        if order < 0:
            raise DomainError("order must be non-negative")
    if mode == "tate_h":
        return _EvalH(order).eval(expr)
    if mode == "tate_k":
        return _EvalK(order).eval(expr)
    if mode == "series":
        g, most = sum(s in symbols for s in _GEN_ORDER), comb(MAX_ORDER + 2, 2)
        if comb(order + g, g) > most:
            bound = max(n for n in range(order) if comb(n + g, g) <= most)
            raise DomainError(f"order {order} is above the series bound {bound} for {g} generators")
        if order == 0 and "T" in symbols:
            # T needs order >= 1: work at order 1, then keep the T^0 term
            return _order_zero(_EvalSeries(1, symbols).eval(expr))
        return _EvalSeries(order, symbols).eval(expr)
    raise EvalError(f"unknown ring hint {mode!r}")


def _order_zero(v: TruncSeries) -> TruncSeries:
    """A series truncated to order 0.  One that starts above T^0, as T does,
    has no order-0 truncation and keeps the constructor's error."""
    if v.low > 0:
        raise DomainError(f"order 0 below lowest exponent {v.low}")
    return v.truncated(0)


def _is_scalar(v) -> bool:
    return isinstance(v, (int, Fraction))


def _scalar_div(a, b) -> Fraction:
    if b == 0:
        raise EvalError("division by zero")
    return Fraction(a) / Fraction(b)


def _scalar_pow(v, n: int):
    if n >= 0:
        return v**n
    if v == 0:
        raise EvalError("zero has no negative powers")
    return Fraction(1) / Fraction(v) ** (-n)


class _EvalBase:
    """The tree walk.  A scalar meets a scalar here; an operation with any
    other operand goes to the context's `neg`, `pow` or `binary`."""

    def __init__(self, order: int):
        self.order = order

    def eval(self, e: Expr):
        if isinstance(e, Num):
            return e.value
        if isinstance(e, Sym):
            return self.symbol(e.name)
        if isinstance(e, Neg):
            v = self.eval(e.arg)
            return -v if _is_scalar(v) else self.neg(v)
        if isinstance(e, Pow):
            v = self.eval(e.base)
            return _scalar_pow(v, e.exponent) if _is_scalar(v) else self.pow(v, e.exponent)
        if isinstance(e, Bin):
            a, b = self.eval(e.left), self.eval(e.right)
            if _is_scalar(a) and _is_scalar(b):
                return _scalar_div(a, b) if e.op == "/" else _ARITH[e.op](a, b)
            return self.binary(e.op, a, b)
        if isinstance(e, Call):
            return self.call(e)
        raise EvalError(f"cannot evaluate node {e!r}")


class _EvalTate(_EvalBase):
    """The operator rule of both Tate contexts: a value of one of the
    context's `kinds` meets an int or a value of its own type.  Anything else,
    function results such as exp_bT() and partial_fractions(...) included, is
    an EvalError.  A basis element (`kinds[1]`) over an int divides its
    coordinates; other division is the ring's own `div`.  A subclass also
    gives its symbols, functions, and `lift`, how an int becomes an `element`."""

    name: str
    kinds: tuple[type, ...]
    element: type
    element_ring: str

    def neg(self, v):
        self._admit("-", v)
        return -v

    def pow(self, v, n: int):
        self._admit("^", v, n)
        return v**n

    def binary(self, op: str, a, b):
        if op == "/":
            if isinstance(a, self.kinds[1]) and isinstance(b, int):
                return a.div_int_exact(b)
            return self.div(a, b)
        self._admit(op, a, b)
        return _ARITH[op](a, b)

    def _admit(self, op: str, *operands) -> None:
        kind, *more = {type(v) for v in operands if not isinstance(v, int)}
        if more or kind not in self.kinds:
            names = " and ".join(type(v).__name__ for v in operands)
            raise EvalError(f"cannot apply {op!r} to {names} in {self.name}")

    def arg(self, e: Call, i: int = 0):
        """Argument `i` of a call as an `element`; ints are lifted."""
        v = self.eval(e.args[i])
        if isinstance(v, int):
            v = self.lift(v)
        if not isinstance(v, self.element):
            raise EvalError(f"{e.func} expects an element of {self.element_ring}")
        return v


class _EvalH(_EvalTate):
    name = "tate_h"
    kinds = (LaurentPoly, DividedPowerElem)
    element, element_ring = LaurentPoly, "Z[c,c^-1]"

    @staticmethod
    def lift(n: int) -> LaurentPoly:
        return LaurentPoly("c", {0: n})

    def symbol(self, name: str):
        if name == "c":
            return LaurentPoly("c", {1: 1})
        if name == "cinv":
            return LaurentPoly("c", {-1: 1})
        if name == "b":
            return DividedPowerElem.basis(1)
        if name.startswith("b_"):
            return DividedPowerElem.basis(int(name.split("_")[1]))
        raise EvalError(f"symbol {name!r} is not available in the tate_h ring")

    def div(self, a, b):
        if isinstance(a, LaurentPoly) and isinstance(b, LaurentPoly):
            return a.div_exact(b)
        if isinstance(a, LaurentPoly) and isinstance(b, int):
            return a.div_scalar_exact(b)
        raise EvalError("division in tate_h needs exact Laurent or integer divisors")

    def call(self, e: Call):
        if e.func == "boundary":
            return tate_h.boundary(self.arg(e))
        if e.func == "pi_minus":
            return tate_h.pi_minus(self.arg(e))
        if e.func == "exp_bT":
            return tate_h.exp_bT(self.order)
        if e.func == "geom_cinv":
            return tate_h.geom_cinv(self.order)
        raise EvalError(f"function {e.func!r} is not available in the tate_h ring")


class _EvalK(_EvalTate):
    name = "tate_k"
    kinds = (TateKElem, NumericalPoly)
    element, element_ring = TateKElem, "Z[q^±1, (1-q)^-1]"

    @staticmethod
    def lift(n: int) -> TateKElem:
        return TateKElem(LaurentPoly("q", {0: n}))

    def symbol(self, name: str):
        if name == "q":
            return TateKElem(LaurentPoly("q", {1: 1}))
        if name == "qinv":
            return TateKElem(LaurentPoly("q", {-1: 1}))
        if name == "beta":
            return NumericalPoly.basis(1)
        if name.startswith("beta_"):
            return NumericalPoly.basis(int(name.split("_")[1]))
        raise EvalError(f"symbol {name!r} is not available in the tate_k ring")

    def div(self, a, b):
        a, b = (self.lift(v) if isinstance(v, int) else v for v in (a, b))
        if isinstance(a, TateKElem) and isinstance(b, TateKElem):
            return a * b.inverse()
        raise EvalError("division in tate_k requires unit divisors")

    def call(self, e: Call):
        if e.func == "partial_fractions":
            return tate_k.partial_fractions(self.arg(e))
        if e.func == "quotient":
            return tate_k.quotient_to_betas(self.arg(e))
        if e.func == "adams":
            k = self.eval(e.args[0])
            if not isinstance(k, int) or k < 1:
                raise EvalError("adams expects a positive integer index")
            x = self.arg(e, 1)
            if not x.is_laurent():
                raise EvalError(
                    "adams acts on Z[q^±1] here: psi^k((1-q)^-1) leaves the ring "
                    "(use `expand` and apply adams on the series target)"
                )
            return TateKElem(tate_k.adams_on_laurent(k, x.num))
        if e.func == "expand":
            x = self.arg(e)
            puncture = _PUNCTURE_SLOT.get(e.args[1])
            if puncture is None:
                raise EvalError("expand puncture must be 0, 1, or a local coordinate q/u/s (s = infinity)")
            return expansions.expand(x, puncture, self.order)
        raise EvalError(f"function {e.func!r} is not available in the tate_k ring")


class _EvalSeries(_EvalBase):
    def __init__(self, order: int, symbols: Collection[str]):
        super().__init__(order)
        self.gens = tuple(g for g in _GEN_ORDER if g in symbols)
        self.ring = poly_ring(*self.gens) if self.gens else QQ

    def _const(self, value):
        return self.ring.one * value

    def symbol(self, name: str):
        if name == "T":
            return TruncSeries.from_coeffs(self.ring, 1, [self.ring.one], order=self.order)
        if name in self.gens:
            return MultiPoly.var(self.gens, name)
        raise EvalError(f"symbol {name!r} is not available in series mode")

    def _promote(self, v) -> TruncSeries:
        if isinstance(v, TruncSeries):
            return v
        if _is_scalar(v):
            v = self._const(v)
        return TruncSeries.constant(self.ring, v, self.order)

    def _coeff(self, v, what: str):
        """Coerce to a coefficient-ring element; `what` names the operation
        that needs one."""
        if isinstance(v, MultiPoly):
            return v
        if _is_scalar(v):
            return self._const(v)
        got = "a series in T" if isinstance(v, TruncSeries) else type(v).__name__
        raise EvalError(f"{what} needs a coefficient, not {got}")

    def neg(self, v):
        return -v

    def pow(self, v, n: int):
        if isinstance(v, MultiPoly) and n < 0:
            raise EvalError("polynomial generators have no negative powers in series mode")
        return v**n

    def binary(self, op: str, a, b):
        if op == "/":
            return self.div(a, b)
        if not isinstance(a, TruncSeries) and not isinstance(b, TruncSeries):
            return _ARITH[op](a, b)  # MultiPoly takes ints and Fractions itself
        if op == "*":
            s, v = (a, b) if isinstance(a, TruncSeries) else (b, a)
            if isinstance(v, int):  # each coefficient takes it through its own *
                return s.scalar_mul(v)
            if not isinstance(v, TruncSeries) and s.ring.name == self.ring.name:
                return s.scalar_mul(self._coeff(v, "scalar multiplication"))
        # a series over another ring (binomial_series()) meets a RingMismatchError here
        return _ARITH[op](self._promote(a), self._promote(b))

    def div(self, a, b):
        if isinstance(a, TruncSeries) and isinstance(b, TruncSeries):
            return a.div_exact(b)
        if isinstance(a, TruncSeries):
            return a.div_exact(TruncSeries.constant(self.ring, self._coeff(b, "division"), a.order))
        if isinstance(b, TruncSeries):
            return self._promote(a).div_exact(b)
        # a scalar divisor becomes a constant, so b/0 divides by the zero polynomial
        return self._coeff(a, "division").div_exact(self._coeff(b, "division"))

    def call(self, e: Call):
        if e.func == "exp":
            return self._promote(self.eval(e.args[0])).exp()
        if e.func == "log":
            return self._promote(self.eval(e.args[0])).log()
        if e.func == "geom":
            ratio = self._coeff(self.eval(e.args[0]), "geom")
            return geometric_series(self.ring, ratio, self.order)
        if e.func == "binomial_series":
            return tate_k.binomial_series(self.order)
        if e.func == "bernoulli":
            n = self.eval(e.args[0])
            if not isinstance(n, int) or n < 0:
                raise EvalError("bernoulli expects a non-negative integer index")
            if n > BERNOULLI_MAX_INDEX:
                raise EvalError(f"index {n} is above the bernoulli bound {BERNOULLI_MAX_INDEX}")
            return bernoulli_number(n)
        raise EvalError(f"function {e.func!r} is not available in series mode")


# -- rendering -----------------------------------------------------------------


def value_json(v):
    if isinstance(v, (int, Fraction)):
        f = Fraction(v)
        return {"kind": "rational", "value": [str(f.numerator), str(f.denominator)]}
    if isinstance(v, LaurentPoly):
        return {"kind": "laurent", "var": v.var, "terms": v.to_json()}
    if isinstance(v, MultiPoly):
        return {"kind": "poly", "gens": list(v.gens), "terms": v.to_json()}
    if isinstance(v, DividedPowerElem):
        return {"kind": "divided-power", "coords": v.to_json()}
    if isinstance(v, NumericalPoly):
        return {"kind": "numerical", "coords": v.to_json()}
    if isinstance(v, TateKElem):
        return {"kind": "tate-k", **v.to_json()}
    if isinstance(v, tate_k.PartialFractionForm):
        return {"kind": "partial-fractions", **v.to_json()}
    if isinstance(v, TruncSeries):
        return {"kind": "series", **v.to_json()}
    if isinstance(v, tate_h.GradedTSeries):
        return {"kind": "graded-series", **v.to_json()}
    raise EvalError(f"no JSON rendering for {type(v).__name__}")
