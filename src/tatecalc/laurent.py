"""Laurent polynomials in one named variable with exact coefficients.

One type serves both the integer rings (Z[c,c^-1], Z[q,q^-1]) and, with
Fraction coefficients, the Q-coefficient rings that series computations pass
through.  Integral coefficients are always stored as int, so integrality is a
structural property of the value rather than a mode flag.

Products are sums of products: `accumulator` collects any number of them
(`DenseAccumulator`) and, when the sum is read, adds them up as one dense
list of integer numerators over one common denominator, and `__mul__` is the
one-product case, or a shift and a scale when one factor has a single term.
A rational result of a ring operation stays in that integer form from one
operation to the next (`_HeldPoly`); its dict of Fractions is built only
when something reads `coeffs`.  Ring operations build their results with
`_canonical` or `_from_numerators`, which skip the public constructor's
per-coefficient check.  The series kernel uses the same accumulator per
output coefficient, so every one-variable series the engine builds (over
Q[b^±1], Q[x^±1], Q[beta^±1], Z[c^±1], ...) runs on it.  `binomials` gives
the falling-factorial binomials binom(x, k) of a Laurent polynomial x by
their running recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Mapping

from .arith import power
from .errors import DomainError, InexactDivisionError, NotInvertibleError, VariableMismatchError

Scalar = int | Fraction


def canon_scalar(value: Scalar) -> Scalar:
    """Collapse integral Fractions to int.  An exact type test: `isinstance`
    against the ABC-registered `Fraction` is slow on an int."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


class LaurentPoly:
    """Finite map exponent -> coefficient; zero coefficients are never stored."""

    __slots__ = ("var", "coeffs", "_int_cache")

    def __init__(self, var: str, coeffs: Mapping[int, Scalar] | None = None):
        self.var = var
        clean: dict[int, Scalar] = {}
        if coeffs:
            for e, v in coeffs.items():
                v = canon_scalar(v)
                if v != 0:
                    clean[int(e)] = v
        self.coeffs = clean
        self._int_cache: tuple[list[tuple[int, int]], int] | None = None

    @staticmethod
    def _canonical(var: str, coeffs: dict[int, Scalar]) -> LaurentPoly:
        """A LaurentPoly holding `coeffs` as given, for ring-operation results
        whose coefficients are canonical already: none is zero and every
        integral one is an int.  The public constructor checks each one."""
        out = object.__new__(LaurentPoly)
        out.var = var
        out.coeffs = coeffs
        out._int_cache = None
        return out

    @staticmethod
    def _from_numerators(var: str, pairs: list[tuple[int, int]], den: int) -> LaurentPoly:
        """sum n/den var^e over `pairs` (sorted by exponent, no zero
        numerator, den > 0), divided through by the gcd of den and every
        numerator.  That leaves exactly the form `_int_form` computes, whose
        denominator is the lcm of the reduced coefficient denominators; a
        rational result is held in it (`_HeldPoly`)."""
        if den != 1:
            g = gcd(den, *map(itemgetter(1), pairs))
            if g != 1:
                den //= g
                pairs = [(e, n // g) for e, n in pairs]
            if den != 1:
                return _HeldPoly(var, pairs, den)
        out = LaurentPoly._canonical(var, dict(pairs))
        out._int_cache = (pairs, 1)
        return out

    @classmethod
    def zero(cls, var: str) -> LaurentPoly:
        return cls(var)

    @classmethod
    def one(cls, var: str) -> LaurentPoly:
        return cls(var, {0: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_integral(self) -> bool:
        return all(isinstance(v, int) for v in self.coeffs.values())

    def coeff(self, exponent: int) -> Scalar:
        return self.coeffs.get(exponent, 0)

    def lo(self) -> int:
        """Lowest exponent; 0 for the zero polynomial."""
        return min(self.coeffs) if self.coeffs else 0

    def hi(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    def _require_same(self, other: LaurentPoly) -> None:
        if self.var != other.var:
            raise VariableMismatchError(
                f"cannot combine Laurent polynomials in {self.var!r} and {other.var!r}"
            )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self.var == other.var and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ({} if other == 0 else {0: canon_scalar(other)})
        return NotImplemented

    __hash__ = None  # mutable dict inside; values are compared, not hashed

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._canonical(self.var, {e: -v for e, v in self.coeffs.items()})

    def __add__(self, other: LaurentPoly | Scalar) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly(self.var, {0: other})
        self._require_same(other)
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            if e in out:  # only a sum of two terms can vanish or become integral
                v = canon_scalar(out[e] + v)
                if not v:
                    del out[e]
                    continue
            out[e] = v
        return LaurentPoly._canonical(self.var, out)

    __radd__ = __add__

    def __sub__(self, other: LaurentPoly | Scalar) -> LaurentPoly:
        return self + (-other)

    def __rsub__(self, other: Scalar) -> LaurentPoly:
        return (-self) + other

    def _int_form(self) -> tuple[list[tuple[int, int]], int]:
        """((exponent, integer numerator) pairs sorted by exponent, common
        denominator), cached; the form `DenseAccumulator` reads."""
        if self._int_cache is None:
            den = 1
            for v in self.coeffs.values():
                if type(v) is not int:
                    den = lcm(den, v.denominator)
            if den == 1:
                pairs = sorted(self.coeffs.items())
            else:
                pairs = sorted((e, v.numerator * (den // v.denominator))
                               for e, v in self.coeffs.items())
            self._int_cache = (pairs, den)
        return self._int_cache

    @staticmethod
    def accumulator(var: str) -> DenseAccumulator:
        """An empty sum of products of Laurent polynomials in `var`."""
        return DenseAccumulator(var)

    def __mul__(self, other: LaurentPoly | Scalar) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return LaurentPoly(self.var, {e: v * other for e, v in self.coeffs.items()})
        self._require_same(other)
        if len(self.coeffs) == 1 or len(other.coeffs) == 1:
            return self._monomial_mul(other)
        acc = LaurentPoly.accumulator(self.var)
        acc.add(self, other)
        return acc.value()

    __rmul__ = __mul__

    def _monomial_mul(self, other: LaurentPoly) -> LaurentPoly:
        """A product with a one-term factor as a shift and a scale, with no
        dense list; a span over MAX_SPAN is refused as `DenseAccumulator`
        refuses it."""
        poly, mono = (self, other) if len(other.coeffs) == 1 else (other, self)
        lo, hi = poly.lo() + mono.lo(), poly.hi() + mono.hi()
        if hi - lo >= MAX_SPAN:
            raise _span_error(self.var, lo, hi)
        (k, c), = mono.coeffs.items()
        return LaurentPoly._canonical(
            self.var, {e + k: canon_scalar(v * c) for e, v in poly.coeffs.items()})

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return LaurentPoly.one(self.var)
        return power(self, n)

    def inverse(self) -> LaurentPoly:
        """Invert a unit.  Only monomials with invertible coefficient qualify."""
        if len(self.coeffs) != 1:
            raise NotInvertibleError(f"{self} is not a unit in the Laurent ring")
        (e, v), = self.coeffs.items()
        return LaurentPoly(self.var, {-e: canon_scalar(Fraction(1, 1) / v)})

    def shifted(self, k: int) -> LaurentPoly:
        """Multiply by var^k."""
        return LaurentPoly._canonical(self.var, {e + k: v for e, v in self.coeffs.items()})

    def dilated(self, k: int) -> LaurentPoly:
        """Exponent dilation var^n -> var^(k*n); a ring endomorphism for k >= 1."""
        return LaurentPoly._canonical(self.var, {e * k: v for e, v in self.coeffs.items()})

    def binomials(self, n: int) -> list[LaurentPoly]:
        """[binom(self, 0), ..., binom(self, n)], the falling-factorial binomials
        of this polynomial, by the running recurrence
        binom(x, k) = binom(x, k-1) (x - k + 1) / k."""
        out = [LaurentPoly.one(self.var)]
        for k in range(1, n + 1):
            acc = LaurentPoly.accumulator(self.var)
            acc.add(out[-1], self - (k - 1))
            out.append(acc.value(k))
        return out

    def div_scalar_exact(self, n: Scalar) -> LaurentPoly:
        """Divide by a scalar, staying integral when the input is integral."""
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        out: dict[int, Scalar] = {}
        for e, v in self.coeffs.items():
            q = Fraction(v) / Fraction(n)
            if isinstance(v, int) and q.denominator != 1:
                raise InexactDivisionError(f"{v} is not divisible by {n}")
            out[e] = q
        return LaurentPoly(self.var, out)

    def div_exact(self, other: LaurentPoly, over_integers: bool = True) -> LaurentPoly:
        """Exact Laurent division; raises InexactDivisionError when it fails.

        With `over_integers`, integral operands must give an integral quotient.
        """
        if isinstance(other, (int, Fraction)):
            return self.div_scalar_exact(other)
        self._require_same(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.var)
        if len(other.coeffs) == 1:  # a unit of the Laurent ring
            quo = self * other.inverse()
        else:  # shift both to ordinary polynomials and run dense long division
            a_lo, b_lo = self.lo(), other.lo()
            a = [Fraction(self.coeff(a_lo + i)) for i in range(self.hi() - a_lo + 1)]
            b = [Fraction(other.coeff(b_lo + i)) for i in range(other.hi() - b_lo + 1)]
            if len(a) < len(b):
                raise InexactDivisionError(f"{other} does not divide {self}")
            lead = b[-1]
            q = [Fraction(0)] * (len(a) - len(b) + 1)
            rem = a[:]
            for i in range(len(q) - 1, -1, -1):
                coef = rem[i + len(b) - 1] / lead
                q[i] = coef
                if coef:
                    for j, bj in enumerate(b):
                        rem[i + j] -= coef * bj
            if any(rem):
                raise InexactDivisionError(f"{other} does not divide {self}")
            quo = LaurentPoly(self.var, {a_lo - b_lo + i: c for i, c in enumerate(q)})
        if over_integers and self.is_integral() and other.is_integral() and not quo.is_integral():
            raise InexactDivisionError(f"{other} does not divide {self} over the integers")
        return quo

    def __str__(self) -> str:
        return render_terms(
            [(e, v) for e, v in sorted(self.coeffs.items())],
            lambda e: var_power(self.var, e),
        )

    def __repr__(self) -> str:
        return f"LaurentPoly({self.var!r}, {self.coeffs!r})"

    def to_json(self) -> list[list[str | int]]:
        out = []
        for e, v in sorted(self.coeffs.items()):
            f = Fraction(v)
            out.append([e, str(f.numerator), str(f.denominator)])
        return out


# The dense list of a sum of products holds one slot per exponent from its
# lowest to its highest, so a far exponent costs memory in proportion:
# (1+q^4000000)*(1+q) took 0.26 s and 45 MB in a fresh process (CPython 3.11,
# 2-vCPU VM), and q^1000000000 in place of q^4000000 would ask for about 8 GB.
# `verify all` up to order 256 and the benchmark's interactive stream reach a
# span of at most 649, so a sum spanning more than MAX_SPAN (2^22) exponents
# is refused with a DomainError before its list is allocated.
MAX_SPAN = 1 << 22


def _span_error(var: str, lo: int, hi: int) -> DomainError:
    return DomainError(f"a product over {var}^{lo}..{var}^{hi} spans more than {MAX_SPAN} exponents")


class _HeldPoly(LaurentPoly):
    """A rational Laurent polynomial held as its reduced integer form
    `_int_cache` = (sorted (exponent, numerator) pairs, denominator > 1).

    Its ring operations run on that form and return held results, so a chain
    of them builds no Fraction; `coeffs` is built from it when first read
    (rendering, JSON, `coeff`).  Python tries a subclass's reflected
    operator first, so an operation with a plain polynomial on the left
    lands here too, and integral polynomials keep the plain class's paths
    with `coeffs` as a plain attribute.  The form is canonical, so two
    polynomials are equal exactly when their forms are."""

    __slots__ = ("_coeffs",)

    def __init__(self, var: str, pairs: list[tuple[int, int]], den: int):
        self.var = var
        self._int_cache = (pairs, den)
        self._coeffs = None

    @property
    def coeffs(self) -> dict[int, Scalar]:
        coeffs = self._coeffs
        if coeffs is None:
            pairs, den = self._int_cache
            coeffs = self._coeffs = {
                e: Fraction(n, den) if n % den else n // den for e, n in pairs}
        return coeffs

    def is_zero(self) -> bool:
        return False

    def is_integral(self) -> bool:
        return False

    def lo(self) -> int:
        return self._int_cache[0][0][0]

    def hi(self) -> int:
        return self._int_cache[0][-1][0]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self.var == other.var and self._int_cache == other._int_form()
        return LaurentPoly.__eq__(self, other)

    def __neg__(self) -> LaurentPoly:
        pairs, den = self._int_cache
        return _HeldPoly(self.var, [(e, -n) for e, n in pairs], den)

    def __add__(self, other: LaurentPoly | Scalar) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly(self.var, {0: other})
        self._require_same(other)
        (xs, dx), (ys, dy) = self._int_cache, other._int_form()
        den = lcm(dx, dy)
        fx, fy = den // dx, den // dy
        sums = {e: n * fx for e, n in xs}
        get = sums.get
        for e, n in ys:
            sums[e] = get(e, 0) + n * fy
        return LaurentPoly._from_numerators(
            self.var, sorted([(e, n) for e, n in sums.items() if n]), den)

    __radd__ = __add__

    def __mul__(self, other: LaurentPoly | Scalar) -> LaurentPoly:
        xs, dx = self._int_cache
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return LaurentPoly.zero(self.var)
            p = other.numerator
            return LaurentPoly._from_numerators(
                self.var, [(e, n * p) for e, n in xs], dx * other.denominator)
        self._require_same(other)
        ys, dy = other._int_form()
        if len(ys) == 1 or len(xs) == 1:
            if len(xs) == 1:
                xs, ys = ys, xs
            if not xs:
                return LaurentPoly.zero(self.var)
            (k, c), = ys
            lo, hi = xs[0][0] + k, xs[-1][0] + k
            if hi - lo >= MAX_SPAN:
                raise _span_error(self.var, lo, hi)
            return LaurentPoly._from_numerators(self.var, [(e + k, n * c) for e, n in xs], dx * dy)
        acc = LaurentPoly.accumulator(self.var)
        acc.add(self, other)
        return acc.value()

    __rmul__ = __mul__


class DenseAccumulator:
    """A sum of products x*y of Laurent polynomials in one variable, fraction-free.

    `add` records each product as its factors' cached `_int_form`s and keeps
    the running lowest and highest exponent, so a sum spanning more than
    MAX_SPAN exponents is refused when the product that widens it is added.
    `value` takes the common denominator once, sums every product into one
    dense list of integer numerators over it, and divides through by one gcd.
    """

    __slots__ = ("var", "lo", "hi", "products")

    def __init__(self, var: str):
        self.var = var
        self.lo = self.hi = 0
        self.products: list[tuple[list[tuple[int, int]], list[tuple[int, int]], int]] = []

    def add(self, x: LaurentPoly, y: LaurentPoly) -> None:
        xs, dx = x._int_form()
        ys, dy = y._int_form()
        if not xs or not ys:
            return
        lo = xs[0][0] + ys[0][0]
        hi = xs[-1][0] + ys[-1][0]
        if self.products:
            if lo > self.lo:
                lo = self.lo
            if hi < self.hi:
                hi = self.hi
        if hi - lo >= MAX_SPAN:
            raise _span_error(self.var, lo, hi)
        self.lo, self.hi = lo, hi
        self.products.append((xs, ys, dx * dy) if len(xs) <= len(ys) else (ys, xs, dx * dy))

    def value(self, divisor: int = 1) -> LaurentPoly:
        """The sum divided by the positive integer `divisor`."""
        products = self.products
        if not products:
            return LaurentPoly._canonical(self.var, {})
        den = lcm(*[d for _, _, d in products])
        base = self.lo
        nums = [0] * (self.hi - base + 1)
        for xs, ys, d in products:
            f = den // d
            for i, c in xs:
                c *= f
                i -= base
                for j, v in ys:
                    nums[i + j] += c * v
        den *= divisor
        if den == 1:
            return LaurentPoly._canonical(self.var, dict(compress(enumerate(nums, base), nums)))
        return LaurentPoly._from_numerators(
            self.var, list(compress(enumerate(nums, base), nums)), den)


def var_power(var: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}"


def render_terms(terms: list[tuple[int, Scalar]], basis: Callable[[int], str]) -> str:
    """Render (key, scalar) pairs as `a + 2*x^2 - x^3`; scalars use p/q form."""
    if not terms:
        return "0"
    parts: list[str] = []
    for key, v in terms:
        mono = basis(key)
        sign = "-" if v < 0 else "+"
        mag = -v if v < 0 else v
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)
