"""Evaluation of parsed expressions against a ring context.

Three contexts exist, mirroring how the same symbol means different things on
the two sides of the theory:

* tate_h   -- honest Laurent arithmetic in Z[c,c^-1] plus divided powers;
              cinv *is* c^-1 here.
* tate_k   -- Z[q^±1, (1-q)^-1] elements plus numerical polynomials.
* series   -- truncated series in T whose coefficients live in a polynomial
              ring over the bare symbols used; cinv/qinv are primitive scale
              generators here, deliberately not inverses of anything.
"""

from __future__ import annotations

from fractions import Fraction

from . import expansions, tate_h, tate_k
from .basis import DividedPowerElem, NumericalPoly
from .errors import DomainError, TateCalcError
from .laurent import LaurentPoly
from .multipoly import MultiPoly
from .parser import Bin, Call, Expr, Neg, Num, Pow, Sym, functions_used, symbols_used
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


def infer_mode(expr: Expr) -> str:
    syms = symbols_used(expr)
    funcs = functions_used(expr)
    series = bool(funcs & _SERIES_FUNCS) or "T" in syms or bool(syms & {"u", "s"})
    h_marks = bool(syms & _H_SYMBOLS) or any(s.startswith("b_") for s in syms) or bool(funcs & _H_FUNCS)
    k_marks = bool(syms & _K_SYMBOLS) or any(s.startswith("beta_") for s in syms) or bool(funcs & _K_FUNCS)
    if series:
        return "series"
    if h_marks and k_marks:
        raise EvalError("expression mixes H-side (c, b) and K-side (q, beta) symbols; pass --ring")
    if k_marks:
        return "tate_k"
    if h_marks:
        return "tate_h"
    return "series"


def evaluate(expr: Expr, mode: str = "auto", order: int = 8):
    if mode == "auto":
        mode = infer_mode(expr)
    if mode == "tate_h":
        return _EvalH(order).eval(expr)
    if mode == "tate_k":
        return _EvalK(order).eval(expr)
    if mode == "series":
        if order == 0 and "T" in symbols_used(expr):
            # T needs order >= 1: work at order 1, then keep the T^0 term
            return _order_zero(_EvalSeries(1, expr).eval(expr))
        return _EvalSeries(order, expr).eval(expr)
    raise EvalError(f"unknown ring hint {mode!r}")


def _order_zero(v: TruncSeries) -> TruncSeries:
    """A series truncated to order 0.  One that starts above T^0, as T does,
    has no order-0 truncation and keeps the constructor's error."""
    if v.low > 0:
        raise DomainError(f"order 0 below lowest exponent {v.low}")
    return v.truncated(0)


def _is_scalar(v) -> bool:
    return isinstance(v, (int, Fraction))


def _scalar_pow(v, n: int):
    if n >= 0:
        return v**n
    if v == 0:
        raise EvalError("zero has no negative powers")
    return Fraction(1) / Fraction(v) ** (-n)


class _EvalBase:
    """Shared arithmetic dispatch; subclasses provide symbols and calls."""

    def __init__(self, order: int):
        self.order = order

    def eval(self, e: Expr):
        if isinstance(e, Num):
            return e.value
        if isinstance(e, Sym):
            return self.symbol(e.name)
        if isinstance(e, Neg):
            return self.neg(self.eval(e.arg))
        if isinstance(e, Pow):
            return self.pow(self.eval(e.base), e.exponent)
        if isinstance(e, Bin):
            left, right = self.eval(e.left), self.eval(e.right)
            return {"+": self.add, "-": self.sub, "*": self.mul, "/": self.div}[e.op](left, right)
        if isinstance(e, Call):
            return self.call(e)
        raise EvalError(f"cannot evaluate node {e!r}")

    def neg(self, v):
        return -v

    def add(self, a, b):
        return self._arith("+", a, b)

    def sub(self, a, b):
        return self._arith("-", a, b)

    def mul(self, a, b):
        return self._arith("*", a, b)

    def div(self, a, b):
        raise NotImplementedError

    def pow(self, v, n: int):
        return _scalar_pow(v, n) if _is_scalar(v) else v**n

    def symbol(self, name):
        raise NotImplementedError

    def call(self, e: Call):
        raise NotImplementedError

    def _arith(self, op, a, b):
        raise NotImplementedError


def _dispatch_pair(op: str, a, b, same_kind, kinds: tuple[type, ...], what: str):
    """Apply op within one value family, allowing int scalars on either side."""
    fn = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}[op]
    if _is_scalar(a) and _is_scalar(b):
        return fn(a, b)
    if isinstance(a, kinds) and isinstance(b, kinds) and same_kind(a, b):
        return fn(a, b)
    if isinstance(a, kinds) and isinstance(b, int):
        return fn(a, b)
    if isinstance(a, int) and isinstance(b, kinds):
        return fn(a, b)
    raise EvalError(f"cannot apply {op!r} to {type(a).__name__} and {type(b).__name__} in {what}")


class _EvalH(_EvalBase):
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

    def _arith(self, op, a, b):
        return _dispatch_pair(op, a, b, lambda x, y: type(x) is type(y),
                              (LaurentPoly, DividedPowerElem), "tate_h")

    def div(self, a, b):
        if _is_scalar(a) and _is_scalar(b):
            if b == 0:
                raise EvalError("division by zero")
            return Fraction(a, b) if isinstance(a, int) and isinstance(b, int) else Fraction(a) / b
        if isinstance(a, LaurentPoly) and isinstance(b, LaurentPoly):
            return a.div_exact(b)
        if isinstance(a, LaurentPoly) and isinstance(b, int):
            return a.div_scalar_exact(b)
        if isinstance(a, DividedPowerElem) and isinstance(b, int):
            return a.div_int_exact(b)
        raise EvalError("division in tate_h needs exact Laurent or integer divisors")

    def call(self, e: Call):
        if e.func == "boundary":
            return tate_h.boundary(self._laurent_arg(e, 0))
        if e.func == "pi_minus":
            return tate_h.pi_minus(self._laurent_arg(e, 0))
        if e.func == "exp_bT":
            return tate_h.exp_bT(self.order)
        if e.func == "geom_cinv":
            return tate_h.geom_cinv(self.order)
        raise EvalError(f"function {e.func!r} is not available in the tate_h ring")

    def _laurent_arg(self, e: Call, i: int) -> LaurentPoly:
        v = self.eval(e.args[i])
        if isinstance(v, int):
            v = LaurentPoly("c", {0: v})
        if not isinstance(v, LaurentPoly):
            raise EvalError(f"{e.func} expects an element of Z[c,c^-1]")
        return v


class _EvalK(_EvalBase):
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

    def _arith(self, op, a, b):
        return _dispatch_pair(op, a, b, lambda x, y: type(x) is type(y),
                              (TateKElem, NumericalPoly), "tate_k")

    def div(self, a, b):
        if _is_scalar(a) and _is_scalar(b):
            if b == 0:
                raise EvalError("division by zero")
            return Fraction(a, b) if isinstance(a, int) and isinstance(b, int) else Fraction(a) / b
        if isinstance(a, TateKElem) and isinstance(b, TateKElem):
            return tate_k.tatek_div(a, b)
        if isinstance(a, int) and isinstance(b, TateKElem):
            return tate_k.tatek_div(TateKElem(LaurentPoly("q", {0: a})), b)
        if isinstance(a, TateKElem) and isinstance(b, int):
            return tate_k.tatek_div(a, TateKElem(LaurentPoly("q", {0: b})))
        raise EvalError("division in tate_k requires unit divisors")

    def call(self, e: Call):
        if e.func == "partial_fractions":
            return tate_k.partial_fractions(self._tatek_arg(e, 0))
        if e.func == "quotient":
            return tate_k.quotient_to_betas(self._tatek_arg(e, 0))
        if e.func == "adams":
            k = self.eval(e.args[0])
            if not isinstance(k, int) or k < 1:
                raise EvalError("adams expects a positive integer index")
            x = self._tatek_arg(e, 1)
            if not x.is_laurent():
                raise EvalError(
                    "adams acts on Z[q^±1] here: psi^k((1-q)^-1) leaves the ring "
                    "(use `expand` and apply adams on the series target)"
                )
            return TateKElem(tate_k.adams_on_laurent(k, x.num))
        if e.func == "expand":
            x = self._tatek_arg(e, 0)
            puncture = _puncture_from_expr(e.args[1])
            return expansions.expand(x, puncture, self.order)
        raise EvalError(f"function {e.func!r} is not available in the tate_k ring")

    def _tatek_arg(self, e: Call, i: int) -> TateKElem:
        v = self.eval(e.args[i])
        if isinstance(v, int):
            v = TateKElem(LaurentPoly("q", {0: v}))
        if not isinstance(v, TateKElem):
            raise EvalError(f"{e.func} expects an element of Z[q^±1, (1-q)^-1]")
        return v


def _puncture_from_expr(e: Expr) -> expansions.Puncture:
    if isinstance(e, Num) and e.value in (0, 1):
        return expansions.Puncture.ZERO if e.value == 0 else expansions.Puncture.ONE
    if isinstance(e, Sym):
        by_var = {"q": expansions.Puncture.ZERO, "u": expansions.Puncture.ONE,
                  "s": expansions.Puncture.INFINITY}
        if e.name in by_var:
            return by_var[e.name]
    raise EvalError("expand puncture must be 0, 1, or a local coordinate q/u/s (s = infinity)")


class _EvalSeries(_EvalBase):
    def __init__(self, order: int, root: Expr):
        super().__init__(order)
        used = symbols_used(root) - {"T"}
        self.gens = tuple(g for g in _GEN_ORDER if g in used)
        self.ring = poly_ring(*self.gens) if self.gens else QQ

    def _const(self, value):
        if self.gens:
            return MultiPoly.const(self.gens, value)
        return Fraction(value)

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

    def _arith(self, op, a, b):
        fn = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}[op]
        if isinstance(a, TruncSeries) or isinstance(b, TruncSeries):
            if op == "*" and not isinstance(b, TruncSeries):
                return a.scalar_mul(self._coeff(b, "scalar multiplication"))
            if op == "*" and not isinstance(a, TruncSeries):
                return b.scalar_mul(self._coeff(a, "scalar multiplication"))
            return fn(self._promote(a), self._promote(b))
        if isinstance(a, MultiPoly) or isinstance(b, MultiPoly):
            a = a if isinstance(a, MultiPoly) else self._const(a)
            b = b if isinstance(b, MultiPoly) else self._const(b)
            return fn(a, b)
        return fn(a, b)

    def _coeff(self, v, what: str):
        """Coerce to a coefficient-ring element; `what` names the operation
        that needs one."""
        if isinstance(v, MultiPoly):
            return v
        if _is_scalar(v):
            return self._const(v)
        got = "a series in T" if isinstance(v, TruncSeries) else type(v).__name__
        raise EvalError(f"{what} needs a coefficient, not {got}")

    def div(self, a, b):
        if isinstance(a, TruncSeries) and isinstance(b, TruncSeries):
            return a.div_exact(b)
        if isinstance(a, TruncSeries):
            return a.div_exact(TruncSeries.constant(self.ring, self._coeff(b, "division"), a.order))
        if isinstance(b, TruncSeries):
            return self._promote(a).div_exact(b)
        if isinstance(a, MultiPoly) or isinstance(b, MultiPoly):
            a = a if isinstance(a, MultiPoly) else self._const(a)
            b = b if isinstance(b, MultiPoly) else self._const(b)
            if isinstance(b, MultiPoly):
                return a.div_exact(b)
            return a * (Fraction(1) / Fraction(b))
        if b == 0:
            raise EvalError("division by zero")
        return Fraction(a) / Fraction(b)

    def pow(self, v, n: int):
        if isinstance(v, TruncSeries):
            return v**n
        if isinstance(v, MultiPoly):
            if n < 0:
                raise EvalError("polynomial generators have no negative powers in series mode")
            return v**n
        return _scalar_pow(v, n)

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
