"""Laurent polynomials in one named variable with exact coefficients.

One type serves both the integer rings (Z[c,c^-1], Z[q,q^-1]) and the
Q-coefficient rings that series computations pass through.  Every polynomial
is integer numerators `nums` (exponent -> numerator) over one denominator
`den` > 0, always reduced: no numerator is zero, and den and the numerators
have no common factor.  So integrality is `den == 1`, a structural property
of the value rather than a mode flag, two polynomials are equal exactly when
their forms are, and each ring operation is written once, on that form.

`coeffs` (exponent -> int, or a Fraction where a coefficient is not
integral) is a view of that form, built on each read: `nums` itself when
den == 1.  Only `__repr__` and the tests read it; the ring operations, the
engine, `__str__` and `to_json` read `nums` and `den`, so a chain of them
builds no Fraction.

Products are sums of products: a `DenseAccumulator` collects any number of
them and, when the sum is read, adds them up as one dense list of integer
numerators over one common denominator, and `__mul__` is the one-product
case, or a shift and a scale when one factor has a single term.  The series
kernel uses the same accumulator per output coefficient, so every
one-variable series the engine builds (over Q[b^±1], Q[x^±1], Q[beta^±1],
Z[c^±1], ...) runs on it.  `binomials` gives the falling-factorial binomials
binom(x, k) of a Laurent polynomial x by their running recurrence.

`render_terms` is the one rule for printing a sum of terms, over coefficients
of any type, and `var_power` writes the powers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Any, Callable, Mapping

from .arith import power
from .errors import DomainError, InexactDivisionError, NotInvertibleError, VariableMismatchError

Scalar = int | Fraction


class LaurentPoly:
    """sum nums[e]/den var^e, in the reduced form the module docstring sets.

    The constructor takes int or Fraction coefficients, checks each one and
    keeps only their numerators over one denominator.  Ring operations build
    their results with `_from_numerators`, which skips those checks."""

    __slots__ = ("var", "nums", "den", "_int_cache")

    def __new__(cls, var: str, coeffs: Mapping[int, Scalar] | None = None) -> LaurentPoly:
        given: dict[int, Scalar] = {}
        den = 1
        if coeffs:
            for e, v in coeffs.items():
                if type(v) is Fraction:  # an exact type test: isinstance is slow on an int
                    if v.denominator == 1:
                        v = v.numerator
                    else:
                        den = lcm(den, v.denominator)
                if v:
                    given[int(e)] = v
        if den == 1:
            return LaurentPoly._from_numerators(var, given)
        # an int has numerator and denominator too; den is the lcm of the
        # reduced denominators, so the form is reduced already
        return LaurentPoly._from_numerators(
            var, {e: v.numerator * (den // v.denominator) for e, v in given.items()}, den)

    @staticmethod
    def _from_numerators(var: str, nums: dict[int, int], den: int = 1) -> LaurentPoly:
        """sum nums[e]/den var^e for `nums` with no zero numerator and den > 0,
        divided through by the gcd of den and every numerator when den > 1."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {e: n // g for e, n in nums.items()}
        out = object.__new__(LaurentPoly)
        out.var, out.nums, out.den, out._int_cache = var, nums, den, None
        return out

    @classmethod
    def zero(cls, var: str) -> LaurentPoly:
        return cls(var)

    @classmethod
    def one(cls, var: str) -> LaurentPoly:
        return cls(var, {0: 1})

    def is_zero(self) -> bool:
        return not self.nums

    def is_integral(self) -> bool:
        return self.den == 1

    @property
    def coeffs(self) -> dict[int, Scalar]:
        """exponent -> coefficient: `nums` itself when integral, otherwise a
        new dict with an int where a coefficient is integral."""
        den = self.den
        if den == 1:
            return self.nums
        return {e: Fraction(n, den) if n % den else n // den for e, n in self.nums.items()}

    def coeff(self, exponent: int) -> Scalar:
        n, den = self.nums.get(exponent, 0), self.den
        if den == 1:
            return n
        return Fraction(n, den) if n % den else n // den

    def lo(self) -> int:
        """Lowest exponent; 0 for the zero polynomial."""
        return min(self.nums) if self.nums else 0

    def hi(self) -> int:
        return max(self.nums) if self.nums else 0

    def _require_same(self, other: LaurentPoly) -> None:
        if self.var != other.var:
            raise VariableMismatchError(
                f"cannot combine Laurent polynomials in {self.var!r} and {other.var!r}"
            )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self.var == other.var and self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):  # an int has numerator and denominator too
            return self.den == other.denominator and self.nums == (
                {0: other.numerator} if other else {})
        return NotImplemented

    __hash__ = None  # mutable dict inside; values are compared, not hashed

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._from_numerators(
            self.var, {e: -n for e, n in self.nums.items()}, self.den)

    def __add__(self, other: LaurentPoly | Scalar) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly(self.var, {0: other})
        self._require_same(other)
        dx, dy = self.den, other.den
        den = dx if dx == dy else lcm(dx, dy)
        out = dict(self.nums) if den == dx else {e: n * (den // dx) for e, n in self.nums.items()}
        ys = other.nums if den == dy else {e: n * (den // dy) for e, n in other.nums.items()}
        for e, n in ys.items():
            if e in out:  # only a sum of two terms can vanish
                n += out[e]
                if not n:
                    del out[e]
                    continue
            out[e] = n
        return LaurentPoly._from_numerators(self.var, out, den)

    __radd__ = __add__

    def __sub__(self, other: LaurentPoly | Scalar) -> LaurentPoly:
        return self + (-other)

    def __rsub__(self, other: Scalar) -> LaurentPoly:
        return (-self) + other

    def _int_form(self) -> tuple[list[tuple[int, int]], int]:
        """((exponent, numerator) pairs sorted by exponent, den), cached; the
        view `DenseAccumulator` reads."""
        if self._int_cache is None:
            self._int_cache = (sorted(self.nums.items()), self.den)
        return self._int_cache

    def __mul__(self, other: LaurentPoly | Scalar) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return LaurentPoly.zero(self.var)
            p = other.numerator
            return LaurentPoly._from_numerators(
                self.var, {e: n * p for e, n in self.nums.items()}, self.den * other.denominator)
        self._require_same(other)
        if len(self.nums) == 1 or len(other.nums) == 1:
            return self._monomial_mul(other)
        acc = DenseAccumulator(self.var)
        acc.add(self, other)
        return acc.value()

    __rmul__ = __mul__

    def _monomial_mul(self, other: LaurentPoly) -> LaurentPoly:
        """A product with a one-term factor as a shift and a scale, with no
        dense list; a span over MAX_SPAN is refused as `DenseAccumulator`
        refuses it."""
        poly, mono = (self, other) if len(other.nums) == 1 else (other, self)
        (k, c), = mono.nums.items()
        lo, hi = poly.lo() + k, poly.hi() + k
        if hi - lo >= MAX_SPAN:
            raise _span_error(self.var, lo, hi)
        return LaurentPoly._from_numerators(
            self.var, {e + k: n * c for e, n in poly.nums.items()}, poly.den * mono.den)

    def __pow__(self, n: int) -> LaurentPoly:
        """self^n; n < 0 powers the inverse of a unit.  A one-term c*x^e
        gives c^n*x^(e*n) over den^n in closed form; a longer one squares
        and multiplies."""
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return LaurentPoly.one(self.var)
        if len(self.nums) == 1:
            (e, c), = self.nums.items()
            return LaurentPoly._from_numerators(self.var, {e * n: c**n}, self.den**n)
        return power(self, n)

    def inverse(self) -> LaurentPoly:
        """Invert a unit.  Only monomials with invertible coefficient qualify."""
        if len(self.nums) != 1:
            raise NotInvertibleError(f"{self} is not a unit in the Laurent ring")
        (e, n), = self.nums.items()
        sign = 1 if n > 0 else -1
        return LaurentPoly._from_numerators(self.var, {-e: sign * self.den}, sign * n)

    def shifted(self, k: int) -> LaurentPoly:
        """Multiply by var^k."""
        return LaurentPoly._from_numerators(
            self.var, {e + k: n for e, n in self.nums.items()}, self.den)

    def dilated(self, k: int) -> LaurentPoly:
        """Exponent dilation var^n -> var^(k*n); a ring endomorphism for k >= 1."""
        return LaurentPoly._from_numerators(
            self.var, {e * k: n for e, n in self.nums.items()}, self.den)

    def binomials(self, n: int) -> list[LaurentPoly]:
        """[binom(self, 0), ..., binom(self, n)], the falling-factorial binomials
        of this polynomial, by the running recurrence
        binom(x, k) = binom(x, k-1) (x - k + 1) / k."""
        out = [LaurentPoly.one(self.var)]
        for k in range(1, n + 1):
            acc = DenseAccumulator(self.var)
            acc.add(out[-1], self - (k - 1))
            out.append(acc.value(k))
        return out

    def div_scalar_exact(self, n: Scalar) -> LaurentPoly:
        """Divide by a scalar, staying integral when the input is integral."""
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        r = Fraction(1) / n
        quo = self * r
        if self.den == 1 and quo.den != 1:
            v = next(v for v in self.nums.values() if (v * r).denominator != 1)
            raise InexactDivisionError(f"{v} is not divisible by {n}")
        return quo

    def div_exact(self, other: LaurentPoly, over_integers: bool = True) -> LaurentPoly:
        """Exact Laurent division; raises InexactDivisionError when it fails.

        With `over_integers`, integral operands must give an integral quotient.
        """
        self._require_same(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero(self.var)
        if len(other.nums) == 1:  # a unit of the Laurent ring
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

    def _lowest_terms(self) -> list[tuple[int, int, int]]:
        """(exponent, numerator, denominator) in lowest terms, by exponent."""
        den = self.den
        return [(e, n // (g := gcd(n, den)), den // g) for e, n in sorted(self.nums.items())]

    def __str__(self) -> str:
        return render_terms(
            [(e, n if d == 1 else f"{n}/{d}") for e, n, d in self._lowest_terms()],
            lambda e: var_power(self.var, e),
        )

    def __repr__(self) -> str:
        return f"LaurentPoly({self.var!r}, {self.coeffs!r})"

    def to_json(self) -> list[list[str | int]]:
        return [[e, str(n), str(d)] for e, n, d in self._lowest_terms()]


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


class DenseAccumulator:
    """A sum of products x*y of Laurent polynomials in one variable, fraction-free.

    `add` records each product as its factors' cached `_int_form`s and keeps
    the running lowest and highest exponent, so a sum spanning more than
    MAX_SPAN exponents is refused when the product that widens it is added.
    `value` takes the common denominator once, sums every product into one
    dense list of integer numerators over it, and `_from_numerators` divides
    through by one gcd.
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
            return LaurentPoly._from_numerators(self.var, {})
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
        return LaurentPoly._from_numerators(
            self.var, dict(compress(enumerate(nums, base), nums)), den * divisor)


def var_power(var: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}"


def render_terms(terms: list[tuple[Any, object]], basis: Callable[[Any], str]) -> str:
    """Render (key, coefficient) pairs as `a + 2*x^2 - x^3 + (1 + b) x^4`.

    A coefficient is anything printable.  With m = basis(key), its text t
    gives t where m is empty, m or -m for t = 1 or -1, t*m for any other t
    of digits, `/` and `-` only (an int or a Fraction), and t m otherwise,
    with t in brackets when it is a sum.  The sign t leads with joins it.
    An int follows the same rule, written from its sign and magnitude
    rather than from its text read back."""
    if not terms:
        return "0"
    parts: list[str] = []
    for key, v in terms:
        mono = basis(key)
        if type(v) is int:
            mag = -v if v < 0 else v
            piece = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
            if v < 0:
                parts.append(f" - {piece}" if parts else f"-{piece}")
            else:
                parts.append(f" + {piece}" if parts else piece)
            continue
        text = str(v)
        if not mono:
            piece = text
        elif text == "1":
            piece = mono
        elif text == "-1":
            piece = f"-{mono}"
        elif not text.strip("0123456789/-"):
            piece = f"{text}*{mono}"
        elif " + " in text or " - " in text:
            piece = f"({text}) {mono}"
        else:
            piece = f"{text} {mono}"
        if not parts:
            parts.append(piece)
        elif piece[0] == "-":
            parts.append(f" - {piece[1:]}")
        else:
            parts.append(f" + {piece}")
    return "".join(parts)
