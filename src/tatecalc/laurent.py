"""Laurent polynomials in one named variable with exact coefficients.

One type serves both the integer rings (Z[c,c^-1], Z[q,q^-1]) and, with
Fraction coefficients, the Q-coefficient rings that series computations pass
through.  Integral coefficients are always stored as int, so integrality is a
structural property of the value rather than a mode flag.

Products are sums of products: `accumulator` collects any number of them as
one dense list of integer numerators over one common denominator
(`DenseAccumulator`) and normalises once, and `__mul__` is the one-product
case.  The series kernel uses the same accumulator per output coefficient, so
every one-variable series the engine builds (over Q[b^±1], Q[x^±1],
Q[beta^±1], Z[c^±1], ...) runs on it.  `binomials` gives the falling-factorial
binomials binom(x, k) of a Laurent polynomial x by their running recurrence.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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
        return LaurentPoly(self.var, {e: -v for e, v in self.coeffs.items()})

    def __add__(self, other: LaurentPoly | Scalar) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly(self.var, {0: other})
        self._require_same(other)
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            out[e] = out.get(e, 0) + v
        return LaurentPoly(self.var, out)

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
        acc = LaurentPoly.accumulator(self.var)
        acc.add(self, other)
        return acc.value()

    __rmul__ = __mul__

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
        return LaurentPoly(self.var, {e + k: v for e, v in self.coeffs.items()})

    def dilated(self, k: int) -> LaurentPoly:
        """Exponent dilation var^n -> var^(k*n); a ring endomorphism for k >= 1."""
        return LaurentPoly(self.var, {e * k: v for e, v in self.coeffs.items()})

    def binomials(self, n: int) -> list[LaurentPoly]:
        """[binom(self, 0), ..., binom(self, n)], the falling-factorial binomials
        of this polynomial, by the running recurrence
        binom(x, k) = binom(x, k-1) (x - k + 1) / k."""
        out = [LaurentPoly.one(self.var)]
        for k in range(1, n + 1):
            acc = LaurentPoly.accumulator(self.var)
            acc.add(out[-1], self - (k - 1))
            acc.den *= k  # divide the integer numerators by k once, in `value`
            out.append(acc.value())
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


class DenseAccumulator:
    """A sum of products x*y of Laurent polynomials in one variable, fraction-free.

    The sum is one dense list of integer numerators, nums[i] at exponent
    lo + i, over one common denominator, read from each factor's cached
    `_int_form`; `value` normalises it once, however many products went into
    it.  A product's denominator joins the common one by lcm only when it
    does not divide it already.  A sum spanning more than MAX_SPAN exponents
    is refused.
    """

    __slots__ = ("var", "lo", "nums", "den")

    def __init__(self, var: str):
        self.var = var
        self.lo = 0
        self.nums: list[int] = []
        self.den = 1

    def add(self, x: LaurentPoly, y: LaurentPoly) -> None:
        xs, dx = x._int_form()
        ys, dy = y._int_form()
        if not xs or not ys:
            return
        d = dx * dy
        den = self.den
        if den % d:
            common = lcm(den, d)
            scale = common // den
            self.nums = [c * scale for c in self.nums]
            self.den = den = common
        f = den // d
        lo = xs[0][0] + ys[0][0]
        hi = xs[-1][0] + ys[-1][0]
        nums = self.nums
        # the span is checked only where the list is allocated or grown
        if not nums:
            if hi - lo >= MAX_SPAN:
                raise _span_error(self.var, lo, hi)
            self.lo = lo
            nums = self.nums = [0] * (hi - lo + 1)
        elif lo < self.lo or hi >= self.lo + len(nums):
            lo, hi = min(lo, self.lo), max(hi, self.lo + len(nums) - 1)
            if hi - lo >= MAX_SPAN:
                raise _span_error(self.var, lo, hi)
            nums[:0] = [0] * (self.lo - lo)
            nums.extend([0] * (hi - lo + 1 - len(nums)))
            self.lo = lo
        if len(xs) > len(ys):
            xs, ys = ys, xs
        base = -self.lo
        for i, c in xs:
            c *= f
            i += base
            for j, v in ys:
                nums[i + j] += c * v

    def value(self) -> LaurentPoly:
        """sum_i nums[i]/den var^(lo+i), integral coefficients as int."""
        out = object.__new__(LaurentPoly)
        out.var = self.var
        out._int_cache = None
        den = self.den
        if den == 1:
            out.coeffs = {e: c for e, c in enumerate(self.nums, self.lo) if c}
            return out
        coeffs = {}
        for e, c in enumerate(self.nums, self.lo):
            if c:
                q, r = divmod(c, den)
                coeffs[e] = Fraction(c, den) if r else q
        out.coeffs = coeffs
        return out


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
