"""Multivariate polynomials over Q, and the display form of a Laurent quotient.

MultiPoly is a sparse exponent-vector -> Fraction map over a fixed ordered
generator tuple.  Its one caller is the evaluator's series mode, over
whichever generators an expression names.  Every series the engine builds
itself runs over `LaurentPoly` instead, renorm's Q[x,y] included (by
Kronecker substitution).  Products are fraction-free: a `SparseAccumulator`
collects any number of products x*y and, when the sum is read, adds them up
as integer numerators keyed by exponent vector over one common denominator
and builds its Fractions once.  The series kernel keeps one accumulator per
output coefficient, and `__mul__` is the one-product case.

RationalFunction is not a coefficient ring: it writes a Laurent polynomial in
one variable as num/(d*var^m) with integer coefficients of content 1, which
is how the q-integrality report prints its coefficients.  It stays in this
module, under this name, because the benchmark's tracer (`perfbench/tracer.py`)
wraps `multipoly.RationalFunction` by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Mapping, Sequence

from .errors import DomainError, InexactDivisionError, NotInvertibleError, VariableMismatchError
from .arith import power
from .laurent import LaurentPoly, render_terms, var_power

Expo = tuple[int, ...]

# Generators whose powers pretty-print as negative powers of another letter,
# e.g. cinv^2 -> c^-2.  Used when series are written over Q[cinv] etc.
_INVERSE_DISPLAY = {"cinv": "c", "qinv": "q"}


def _gen_power(gen: str, e: int) -> str:
    base = _INVERSE_DISPLAY.get(gen)
    if base is not None:
        return f"{base}^{-e}"
    return var_power(gen, e)


class MultiPoly:
    __slots__ = ("gens", "terms", "_int_cache")

    def __init__(self, gens: Sequence[str], terms: Mapping[Expo, Fraction | int] | None = None):
        self.gens = tuple(gens)
        clean: dict[Expo, Fraction] = {}
        if terms:
            arity = len(self.gens)
            for expo, v in terms.items():
                f = v if type(v) is Fraction else Fraction(v)
                if f == 0:
                    continue
                expo = tuple(expo)
                if len(expo) != arity or any(e < 0 for e in expo):
                    raise DomainError(f"bad exponent vector {expo} for generators {self.gens}")
                clean[expo] = f
        self.terms = clean
        self._int_cache: tuple[list[tuple], int] | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, gens: Sequence[str]) -> MultiPoly:
        return cls(gens)

    @classmethod
    def const(cls, gens: Sequence[str], value: Fraction | int) -> MultiPoly:
        return cls(gens, {(0,) * len(tuple(gens)): Fraction(value)})

    @classmethod
    def var(cls, gens: Sequence[str], name: str) -> MultiPoly:
        gens = tuple(gens)
        expo = [0] * len(gens)
        expo[gens.index(name)] = 1
        return cls(gens, {tuple(expo): Fraction(1)})

    # -- predicates and accessors -------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in expo) for expo in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * len(self.gens), Fraction(0))

    def _require_same(self, other: MultiPoly) -> None:
        if self.gens != other.gens:
            raise VariableMismatchError(
                f"cannot combine polynomials over {self.gens} and {other.gens}"
            )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.gens == other.gens and self.terms == other.terms
        return NotImplemented

    __hash__ = None

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.gens, {e: -v for e, v in self.terms.items()})

    def __add__(self, other: MultiPoly | Fraction | int) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.gens, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same(other)
        out = dict(self.terms)
        for e, v in other.terms.items():
            out[e] = out.get(e, 0) + v
        return MultiPoly(self.gens, out)

    __radd__ = __add__

    def __sub__(self, other: MultiPoly | Fraction | int) -> MultiPoly:
        return self + (-other)

    def __rsub__(self, other: Fraction | int) -> MultiPoly:
        return (-self) + other

    def _int_form(self) -> tuple[list[tuple[Expo, int]], int]:
        """((exponent vector, integer numerator) pairs, common denominator), cached."""
        if self._int_cache is None:
            den = 1
            for v in self.terms.values():
                den = lcm(den, v.denominator)
            pairs = [(e, v.numerator * (den // v.denominator)) for e, v in self.terms.items()]
            self._int_cache = (pairs, den)
        return self._int_cache

    def __mul__(self, other: MultiPoly | Fraction | int) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly.zero(self.gens)
            return MultiPoly(self.gens, {e: v * other for e, v in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same(other)
        acc = SparseAccumulator(self.gens)
        acc.add(self, other)
        return acc.value()

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MultiPoly:
        if n < 0:
            raise NotInvertibleError("negative powers are not defined in a polynomial ring")
        if n == 0:
            return MultiPoly.const(self.gens, 1)
        return power(self, n)

    def div_exact(self, other: MultiPoly) -> MultiPoly:
        """Exact polynomial division by leading-term elimination (lex order).

        For exactly divisible inputs the greedy cancellation always succeeds;
        anything else raises InexactDivisionError.
        """
        self._require_same(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return MultiPoly.zero(self.gens)
        div_lead = max(other.terms)  # lex-largest exponent vector
        div_lc = other.terms[div_lead]
        rem = dict(self.terms)
        quo: dict[Expo, Fraction] = {}
        while rem:
            lead = max(rem)
            if any(l < d for l, d in zip(lead, div_lead)):
                raise InexactDivisionError("polynomial division leaves a remainder")
            qe = tuple(l - d for l, d in zip(lead, div_lead))
            qc = rem[lead] / div_lc
            quo[qe] = quo.get(qe, Fraction(0)) + qc
            for e, v in other.terms.items():
                t = tuple(x + y for x, y in zip(qe, e))
                nv = rem.get(t, Fraction(0)) - qc * v
                if nv:
                    rem[t] = nv
                else:
                    rem.pop(t, None)
        return MultiPoly(self.gens, quo)

    def __str__(self) -> str:
        def mono(expo: Expo) -> str:
            return "*".join(_gen_power(g, e) for g, e in zip(self.gens, expo) if e)

        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return render_terms([(e, v) for e, v in items], mono)

    def __repr__(self) -> str:
        return f"MultiPoly({self.gens!r}, {self.terms!r})"

    def to_json(self) -> list[list]:
        out = []
        for expo, v in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            out.append([list(expo), str(v.numerator), str(v.denominator)])
        return out


class SparseAccumulator:
    """A sum of products of polynomials, fraction-free.  `add` records each
    product as its factors' cached `_int_form`s; `value` takes the common
    denominator once, sums the integer numerators keyed by exponent vector
    over it, and builds the result's Fractions without the public
    constructor's per-term checks.  The sparse twin of
    `laurent.DenseAccumulator`."""

    __slots__ = ("gens", "products")

    def __init__(self, gens: tuple[str, ...]):
        self.gens = gens
        self.products: list[tuple[list[tuple[Expo, int]], list[tuple[Expo, int]], int]] = []

    def add(self, x: MultiPoly, y: MultiPoly) -> None:
        xs, dx = x._int_form()
        ys, dy = y._int_form()
        self.products.append((xs, ys, dx * dy))

    def value(self) -> MultiPoly:
        products = self.products
        den = lcm(*[d for _, _, d in products])
        nums: dict[Expo, int] = {}
        get = nums.get
        for xs, ys, d in products:
            f = den // d
            for ea, ca in xs:
                ca *= f
                for eb, cb in ys:
                    e = tuple(map(add, ea, eb))
                    nums[e] = get(e, 0) + ca * cb
        out = object.__new__(MultiPoly)
        out.gens = self.gens
        out.terms = {e: Fraction(c, den) for e, c in nums.items() if c}
        out._int_cache = None
        return out


class RationalFunction:
    """A Laurent polynomial c in one variable written as num/den, the form in
    which the q-integrality report prints its coefficients.

    When lo c >= 0, num is c and den is 1.  Otherwise den = d*var^m with
    m = -lo c and d the lcm of c's coefficient denominators, and num = c*den.
    num has a nonzero constant term, so it is coprime to var^m and no
    polynomial gcd is needed.  Its integer coefficients have no factor in
    common with d either: for each prime p | d, the coefficient whose
    denominator carries the full power of p in d has a numerator prime to p.
    So num's integer content is already 1, and c's rational content shows as
    d in the denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, c: LaurentPoly):
        m = -c.lo()
        if m <= 0:
            self.num, self.den = c, LaurentPoly.one(c.var)
            return
        self.num = LaurentPoly._from_numerators(c.var, {e + m: v for e, v in c.nums.items()})
        self.den = LaurentPoly._from_numerators(c.var, {m: c.den})

    def __str__(self) -> str:
        if self.den == 1:
            return str(self.num)
        num, den = str(self.num), str(self.den)
        if len(self.num.nums) > 1:
            num = f"({num})"
        if "*" in den or "^" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"
