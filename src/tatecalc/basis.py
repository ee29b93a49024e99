"""Integer basis rings: divided powers b_k and numerical polynomials binom(beta,k).

Both are free Z-modules on a basis e_0 = 1, e_1, ... with integer structure
constants, so one implementation, `_IntBasisElem`, carries the coordinates,
their validation, the module operations, powers, exact division by integers
and the rendering.  The public subclasses `DividedPowerElem` and
`NumericalPoly` add only their basis label and their product, and stay two
types so that H-side and K-side values never mix.  Integer coordinates are a
type invariant; rational multiples only ever appear inside series
coefficients, never here.

A product is refused with a DomainError, before it is computed, when its
estimated work is above BASIS_MAX_WORK; see `_IntBasisElem._work`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lgamma, log, log10, sqrt
from typing import Mapping, NamedTuple

from .arith import power
from .errors import DomainError, InexactDivisionError
from .laurent import LaurentPoly, render_terms


# The estimated work of a product is in digit operations, about 1 ns each on
# CPython 3.11 (2-vCPU VM): beta_1000^3 is 1.8e9 and took 2.3 s, so the bound
# keeps a product to a few seconds.  beta_3000^3 (4.9e10, past 60 s),
# beta_100000*beta_100000 (7.7e9, 18.7 s) and b_200000*b_200000 (3.6e9, 2.5 s)
# are refused.
BASIS_MAX_WORK = 2 * 10**9


def _digits(n: int) -> float:
    """About log10 |n|, from the bit length."""
    return n.bit_length() * log10(2)


def _log10_comb(n: int, k: int) -> float:
    return (lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)) / log(10)


def binom_int(n: int, k: int) -> int:
    """C(n, k) for any integer n and k >= 0 (falling factorial over k!)."""
    if k < 0:
        raise DomainError("binomial index must be non-negative")
    num = 1
    for i in range(k):
        num *= n - i
    return num // factorial(k)


def binom_ints(m: int, n: int) -> list[int]:
    """[C(m, 0), ..., C(m, n)] for any integer m, by the running recurrence
    C(m, k) = C(m, k-1) (m - k + 1) / k; the division is exact on ints."""
    out = [1]
    for k in range(1, n + 1):
        out.append(out[-1] * (m - k + 1) // k)
    return out


def stirling1_rows(n: int) -> list[list[int]]:
    """Rows 0..n of the signed Stirling numbers of the first kind, rows[j][m] =
    s(j, m) for m <= j: x (x-1) ... (x-j+1) = sum_m s(j, m) x^m.  Built by the
    recurrence s(j+1, m) = s(j, m-1) - j s(j, m)."""
    rows = [[1]]
    for j in range(n):
        prev = rows[-1]
        rows.append([a - j * b for a, b in zip([0, *prev], [*prev, 0])])
    return rows


class _IntBasisElem:
    """Z-linear combination of a basis e_0 = 1, e_1, e_2, ... with integer
    coordinates.

    Everything but the product is the same for every such ring; a subclass
    gives `_label(k)`, the name of e_k, the nouns its messages use, and
    `_product`, the product of two elements in its structure constants.
    Arithmetic only mixes an element with ints and with its own subclass.
    """

    __slots__ = ("coords",)
    _what: str  # "divided-power", in index and coordinate messages
    _noun: str  # "divided-power elements", in the negative-power message

    def __init__(self, coords: Mapping[int, int] | None = None):
        out: dict[int, int] = {}
        for k, v in (coords or {}).items():
            if k < 0:
                raise DomainError(f"{self._what} indices must be non-negative, got {k}")
            if not isinstance(v, int):
                raise DomainError(f"{self._what} coordinates must be integers, got {v!r}")
            if v:
                out[int(k)] = v
        self.coords = out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def basis(cls, k: int):
        return cls({k: 1})

    def is_zero(self) -> bool:
        return not self.coords

    def coord(self, k: int) -> int:
        return self.coords.get(k, 0)

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self.coords == other.coords
        if isinstance(other, int):
            return self.coords == ({} if other == 0 else {0: other})
        return NotImplemented

    __hash__ = None

    def __neg__(self):
        return type(self)({k: -v for k, v in self.coords.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = type(self)({0: other})
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = out.get(k, 0) + v
        return type(self)(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)({k: v * other for k, v in self.coords.items()})
        if type(other) is not type(self):
            return NotImplemented
        if self.coords and other.coords:
            work = self._work(other)
            if work > BASIS_MAX_WORK:
                raise DomainError(f"the product of {self._noun} would take about {work:.1e} "
                                  f"digit operations, above the bound of {BASIS_MAX_WORK:.0e}")
        return self._product(other)

    __rmul__ = __mul__

    def _work(self, other) -> float:
        """Estimated digit operations of self * other: `_pair_work` of the
        top indices, where the largest structure constant sits, for every
        pair of terms."""
        digits = (_digits(max(map(abs, self.coords.values())))
                  + _digits(max(map(abs, other.coords.values()))))
        pair = self._pair_work(max(self.coords), max(other.coords), digits)
        return len(self.coords) * len(other.coords) * pair

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError(f"{self._noun} have no negative powers")
        return power(self, n) if n else self.one()

    def div_int_exact(self, n: int):
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        out = {}
        for k, v in self.coords.items():
            if v % n:
                raise InexactDivisionError(f"coordinate {v} of {self._label(k)} is not divisible by {n}")
            out[k] = v // n
        return type(self)(out)

    def __str__(self) -> str:
        terms = sorted(self.coords.items())
        return render_terms(terms, lambda k: "" if k == 0 else self._label(k))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.coords!r})"

    def to_json(self) -> list[list]:
        return [[k, str(v), "1"] for k, v in sorted(self.coords.items())]


class DividedPowerElem(_IntBasisElem):
    """Z-linear combination of the divided powers b_k (b_0 = 1).

    Multiplication carries the binomial structure constants
    b_i * b_j = C(i+j, i) * b_{i+j}.
    """

    __slots__ = ()
    _what = "divided-power"
    _noun = "divided-power elements"

    @staticmethod
    def _label(k: int) -> str:
        return f"b_{k}"

    @staticmethod
    def _pair_work(i: int, j: int, digits: float) -> float:
        # one term, C(i+j, i), which math.comb computes in about the square of
        # its digits, times coordinates of `digits` digits
        d = _log10_comb(i + j, i)
        return d * d / 4 + d + digits

    def _product(self, other: DividedPowerElem) -> DividedPowerElem:
        out: dict[int, int] = {}
        for i, a in self.coords.items():
            for j, b in other.coords.items():
                k = i + j
                out[k] = out.get(k, 0) + a * b * comb(k, i)
        return DividedPowerElem(out)


class NumericalPoly(_IntBasisElem):
    """Integer-valued polynomial in the binomial basis binom(beta, k)."""

    __slots__ = ()
    _what = "binomial-basis"
    _noun = "numerical polynomials"

    @staticmethod
    def _label(k: int) -> str:
        return f"binom(beta,{k})"

    @staticmethod
    def _pair_work(i: int, j: int, digits: float) -> float:
        # min(i,j) + 1 terms C(k,i) C(i,k-j), k = max(i,j)..i+j, each scaling a
        # product of coordinates of `digits` digits.  The constants grow while
        # k + 1 is below the larger root m of 2m^2 - (2i+2j+1)m + ij, then fall.
        s = 2 * (i + j) + 1
        m = int((s + sqrt(s * s - 8 * i * j)) / 4)
        peak = max(_log10_comb(k, i) + _log10_comb(i, k - j)
                   for k in {min(max(m + d, i, j), i + j) for d in (-2, -1, 0, 1)})
        return (min(i, j) + 1) * (peak + digits)

    def _product(self, other: NumericalPoly) -> NumericalPoly:
        return numerical_mul(self, other)

    def degree(self) -> int:
        return max(self.coords, default=-1)

    def evaluate(self, n: int) -> int:
        """Value at an integer argument; always an integer."""
        return sum(v * binom_int(n, k) for k, v in self.coords.items())


def _finite_differences(values: list) -> list:
    """Forward differences at 0: returns [f(0), Δf(0), Δ²f(0), ...]."""
    out = []
    row = list(values)
    while row:
        out.append(row[0])
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return out


def numerical_mul(x: NumericalPoly, y: NumericalPoly) -> NumericalPoly:
    """Product in the binomial basis, by the structure constants

        binom(beta,i) binom(beta,j) = sum_{k=max(i,j)}^{i+j} C(k,i) C(i,k-j) binom(beta,k),

    the counterpart of the divided powers' b_i b_j = C(i+j,i) b_{i+j}.  Each
    constant follows from the one before by a running ratio, exact in integers.
    """
    out: dict[int, int] = {}
    for i, a in x.coords.items():
        for j, b in y.coords.items():
            lo = max(i, j)
            t = a * b * comb(lo, i) * comb(i, lo - j)
            for k in range(lo, i + j + 1):
                out[k] = out.get(k, 0) + t
                t = t * (k + 1) * (i + j - k) // ((k + 1 - i) * (k + 1 - j))
    return NumericalPoly(out)


class NotIntegral(NamedTuple):
    """Binomial-basis conversion result with non-integer coordinates."""

    coords: tuple[tuple[int, Fraction], ...]
    fractional: tuple[tuple[int, Fraction], ...]

    def __str__(self) -> str:
        bad = ", ".join(f"c_{k}={v}" for k, v in self.fractional)
        return f"NotIntegral{{{bad}}}"


def to_binomial_basis(p: LaurentPoly) -> NumericalPoly | NotIntegral:
    """Convert a polynomial in one variable to the binomial basis.

    Coordinates are the iterated finite differences Δ^k p(0): p is scaled to
    integer numerators over one denominator, evaluated at 0..deg by integer
    Horner, differenced in integers and divided once per coordinate.  Returns
    a NumericalPoly when all are integers, otherwise a NotIntegral report.
    """
    if p.lo() < 0:
        raise DomainError(f"binomial-basis conversion requires a polynomial, got {p}")
    pairs, den = p._int_form()
    nums = [0] * (p.hi() + 1)
    for e, c in pairs:
        nums[e] = c
    values = []
    for n in range(len(nums)):
        v = 0
        for c in reversed(nums):
            v = v * n + c
        values.append(v)
    coords = [(k, Fraction(d, den)) for k, d in enumerate(_finite_differences(values)) if d]
    fractional = [(k, c) for k, c in coords if c.denominator != 1]
    if fractional:
        return NotIntegral(coords=tuple(coords), fractional=tuple(fractional))
    return NumericalPoly({k: int(c) for k, c in coords})
