"""Multivariate polynomials over Q, and the canonical display form of a quotient.

MultiPoly is a sparse exponent-vector -> Fraction map over a fixed ordered
generator tuple.  Products are fraction-free: `MultiPoly.accumulator` sums any
number of products x*y as integer numerators over one common denominator (a
dense list in one generator, `arith.DenseAccumulator`; a sparse dict in
several) and normalises to Fractions once, when the sum is read.  The series
kernel keeps one accumulator per output coefficient, and `__mul__` is the
one-product case.  `binom_polys` builds the falling-factorial binomials
incrementally.

RationalFunction is not a coefficient ring: it puts a univariate num/den pair
in canonical form (coprime, integer coefficients of content 1, denominator
leading coefficient positive), which is how the q-integrality report prints
its coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, InexactDivisionError, NotInvertibleError, VariableMismatchError
from .arith import DenseAccumulator, power
from .laurent import LaurentPoly, render_terms

Expo = tuple[int, ...]

# Generators whose powers pretty-print as negative powers of another letter,
# e.g. cinv^2 -> c^-2.  Used when series are written over Q[cinv] etc.
_INVERSE_DISPLAY = {"cinv": "c", "qinv": "q"}


def _gen_power(gen: str, e: int) -> str:
    base = _INVERSE_DISPLAY.get(gen)
    if base is not None:
        return f"{base}^{-e}"
    if e == 1:
        return gen
    return f"{gen}^{e}"


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

    def coeff(self, expo: Expo) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def _require_same(self, other: MultiPoly) -> None:
        if self.gens != other.gens:
            raise VariableMismatchError(
                f"cannot combine polynomials over {self.gens} and {other.gens}"
            )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self.gens == other.gens and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            zero = (0,) * len(self.gens)
            return self.terms == ({} if other == 0 else {zero: Fraction(other)})
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

    def _int_form(self) -> tuple[list[tuple], int]:
        """((exponent, integer numerator) pairs, common denominator), cached.

        In one generator the exponent is an int and the pairs are sorted, the
        form `DenseAccumulator` reads; in several it is the exponent vector.
        """
        if self._int_cache is None:
            den = 1
            for v in self.terms.values():
                den = lcm(den, v.denominator)
            pairs = [(e, v.numerator * (den // v.denominator)) for e, v in self.terms.items()]
            if len(self.gens) == 1:
                pairs = sorted((e, c) for (e,), c in pairs)
            self._int_cache = (pairs, den)
        return self._int_cache

    @staticmethod
    def _from_ints(gens: tuple[str, ...], lo: int, nums: list[int], den: int) -> MultiPoly:
        """sum_i nums[i]/den gen^(lo+i) in the one generator."""
        return MultiPoly(gens, {(e,): Fraction(c, den) for e, c in enumerate(nums, lo) if c})

    @staticmethod
    def accumulator(gens: Sequence[str]) -> DenseAccumulator | _SparseAccumulator:
        """An empty sum of products of polynomials over `gens`."""
        gens = tuple(gens)
        if len(gens) != 1:
            return _SparseAccumulator(gens)
        return DenseAccumulator(MultiPoly._int_form, MultiPoly._from_ints, gens)

    def __mul__(self, other: MultiPoly | Fraction | int) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return MultiPoly.zero(self.gens)
            return MultiPoly(self.gens, {e: v * other for e, v in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._require_same(other)
        acc = MultiPoly.accumulator(self.gens)
        acc.add(self, other)
        return acc.value()

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MultiPoly:
        if n < 0:
            raise NotInvertibleError("negative powers are not defined in a polynomial ring")
        if n == 0:
            return MultiPoly.const(self.gens, 1)
        return power(self, n)

    def div_int(self, n: int) -> MultiPoly:
        if n == 0:
            raise ZeroDivisionError("division by zero")
        return MultiPoly(self.gens, {e: v / n for e, v in self.terms.items()})

    def div_exact(self, other: MultiPoly) -> MultiPoly:
        """Exact polynomial division by leading-term elimination (lex order).

        For exactly divisible inputs the greedy cancellation always succeeds;
        anything else raises InexactDivisionError.
        """
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / Fraction(other))
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

    # -- structure ------------------------------------------------------------

    def evaluate(self, values: Mapping[str, Fraction | int]) -> Fraction:
        missing = [g for g in self.gens if g not in values]
        if missing:
            raise DomainError(f"no value supplied for generator(s) {missing}")
        total = Fraction(0)
        for expo, v in self.terms.items():
            term = v
            for g, e in zip(self.gens, expo):
                if e:
                    term = term * Fraction(values[g]) ** e
            total += term
        return total

    def collapse(self, src: str, dst: str) -> MultiPoly:
        """Substitute generator src := dst, dropping src from the generator list."""
        if src not in self.gens or dst not in self.gens:
            raise DomainError(f"{src} or {dst} is not a generator of {self.gens}")
        si, di = self.gens.index(src), self.gens.index(dst)
        new_gens = tuple(g for g in self.gens if g != src)
        out: dict[Expo, Fraction] = {}
        for expo, v in self.terms.items():
            merged = list(expo)
            merged[di] += merged[si]
            del merged[si]
            key = tuple(merged)
            nv = out.get(key, Fraction(0)) + v
            if nv:
                out[key] = nv
            else:
                out.pop(key, None)
        return MultiPoly(new_gens, out)

    def dense(self) -> list[Fraction]:
        """Coefficient list for a univariate polynomial, low to high."""
        if len(self.gens) != 1:
            raise DomainError("dense form requires a univariate polynomial")
        if not self.terms:
            return []
        out = [Fraction(0)] * (max(e[0] for e in self.terms) + 1)
        for (e,), v in self.terms.items():
            out[e] = v
        return out

    @classmethod
    def from_dense(cls, gen: str, coeffs: Iterable[Fraction | int]) -> MultiPoly:
        return cls((gen,), {(i,): Fraction(c) for i, c in enumerate(coeffs) if c})

    def to_laurent(self) -> LaurentPoly:
        """The same univariate polynomial as a Laurent polynomial in its generator."""
        if len(self.gens) != 1:
            raise DomainError("Laurent form requires a univariate polynomial")
        return LaurentPoly(self.gens[0], {e: v for (e,), v in self.terms.items()})

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


class _SparseAccumulator:
    """A sum of products of polynomials in several generators: integer
    numerators keyed by exponent vector over one common denominator,
    normalised once by `value`.  The sparse twin of `DenseAccumulator`."""

    __slots__ = ("gens", "nums", "den")

    def __init__(self, gens: tuple[str, ...]):
        self.gens = gens
        self.nums: dict[Expo, int] = {}
        self.den = 1

    def add(self, x: MultiPoly, y: MultiPoly) -> None:
        xs, dx = x._int_form()
        ys, dy = y._int_form()
        d = dx * dy
        den = self.den
        if den % d:
            common = lcm(den, d)
            scale = common // den
            self.nums = {e: c * scale for e, c in self.nums.items()}
            self.den = den = common
        f = den // d
        nums = self.nums
        get = nums.get
        for ea, ca in xs:
            ca *= f
            for eb, cb in ys:
                e = tuple(map(add, ea, eb))
                nums[e] = get(e, 0) + ca * cb

    def value(self) -> MultiPoly:
        den = self.den
        return MultiPoly(self.gens, {e: Fraction(c, den) for e, c in self.nums.items() if c})


def binom_polys(x: MultiPoly, n: int) -> list[MultiPoly]:
    """[binom(x, 0), ..., binom(x, n)] for a polynomial argument, by the
    running recurrence binom(x, k) = binom(x, k-1) (x - k + 1) / k."""
    out = [MultiPoly.const(x.gens, 1)]
    for k in range(1, n + 1):
        out.append((out[-1] * (x - (k - 1))).div_int(k))
    return out


def binom_poly(x: MultiPoly, k: int) -> MultiPoly:
    """Falling-factorial binomial x(x-1)...(x-k+1)/k! for a polynomial argument."""
    if k < 0:
        raise DomainError("binomial index must be non-negative")
    return binom_polys(x, k)[k]


# -- univariate helpers for the fraction field --------------------------------


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd of dense univariate polynomials over Q."""

    def trim(p: list[Fraction]) -> list[Fraction]:
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim(list(a)), trim(list(b))
    while b:
        # a mod b
        while len(a) >= len(b):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] -= f * c
            trim(a)
            if not a:
                break
        a, b = b, a
    if not a:
        return []
    lead = a[-1]
    return [c / lead for c in a]


class RationalFunction:
    """num/den of univariate polynomials in canonical integer-coprime form."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        if num.gens != den.gens or len(num.gens) != 1:
            raise VariableMismatchError("rational functions are univariate over one generator")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = MultiPoly.zero(num.gens)
            self.den = MultiPoly.const(num.gens, 1)
            return
        g = _poly_gcd(num.dense(), den.dense())
        if len(g) > 1:
            gp = MultiPoly.from_dense(num.gens[0], g)
            num = num.div_exact(gp)
            den = den.div_exact(gp)
        # clear denominators, strip content, fix the sign of the leading coefficient
        scale = 1
        for v in list(num.terms.values()) + list(den.terms.values()):
            scale = lcm(scale, v.denominator)
        nn = {e: int(v * scale) for e, v in num.terms.items()}
        dd = {e: int(v * scale) for e, v in den.terms.items()}
        content = 0
        for v in list(nn.values()) + list(dd.values()):
            content = gcd(content, v)
        lead = dd[max(dd)]
        if lead < 0:
            content = -content
        self.num = MultiPoly(num.gens, {e: Fraction(v, content) for e, v in nn.items()})
        self.den = MultiPoly(num.gens, {e: Fraction(v, content) for e, v in dd.items()})

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def as_polynomial(self) -> MultiPoly:
        if not self.is_polynomial():
            raise DomainError(f"{self} is not a polynomial")
        return self.num * (Fraction(1) / self.den.constant_value())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    __hash__ = None

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.as_polynomial())
        num, den = str(self.num), str(self.den)
        if len(self.num.terms) > 1:
            num = f"({num})"
        if len(self.den.terms) > 1 or "*" in den or "^" in den:
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r}, {self.den!r})"
