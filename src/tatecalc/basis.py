"""Integer basis rings: divided powers b_k and numerical polynomials binom(beta,k).

Both rings keep integer coordinates as a type invariant; rational multiples
only ever appear inside series coefficients, never here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Mapping

from .arith import power
from .errors import DomainError, InexactDivisionError
from .laurent import LaurentPoly, render_terms
from .multipoly import MultiPoly, binom_polys


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


def _clean_int_coords(coords: Mapping[int, int], what: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for k, v in coords.items():
        if k < 0:
            raise DomainError(f"{what} indices must be non-negative, got {k}")
        if not isinstance(v, int):
            raise DomainError(f"{what} coordinates must be integers, got {v!r}")
        if v:
            out[int(k)] = v
    return out


class DividedPowerElem:
    """Z-linear combination of the divided powers b_k (b_0 = 1).

    Multiplication carries the binomial structure constants
    b_i * b_j = C(i+j, i) * b_{i+j}.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Mapping[int, int] | None = None):
        self.coords = _clean_int_coords(coords or {}, "divided-power")

    @classmethod
    def zero(cls) -> DividedPowerElem:
        return cls()

    @classmethod
    def one(cls) -> DividedPowerElem:
        return cls({0: 1})

    @classmethod
    def basis(cls, k: int) -> DividedPowerElem:
        return cls({k: 1})

    def is_zero(self) -> bool:
        return not self.coords

    def coord(self, k: int) -> int:
        return self.coords.get(k, 0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DividedPowerElem):
            return self.coords == other.coords
        if isinstance(other, int):
            return self.coords == ({} if other == 0 else {0: other})
        return NotImplemented

    __hash__ = None

    def __neg__(self) -> DividedPowerElem:
        return DividedPowerElem({k: -v for k, v in self.coords.items()})

    def __add__(self, other: DividedPowerElem | int) -> DividedPowerElem:
        if isinstance(other, int):
            other = DividedPowerElem({0: other})
        if not isinstance(other, DividedPowerElem):
            return NotImplemented
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = out.get(k, 0) + v
        return DividedPowerElem(out)

    __radd__ = __add__

    def __sub__(self, other: DividedPowerElem | int) -> DividedPowerElem:
        return self + (-other)

    def __mul__(self, other: DividedPowerElem | int) -> DividedPowerElem:
        if isinstance(other, int):
            return DividedPowerElem({k: v * other for k, v in self.coords.items()})
        if not isinstance(other, DividedPowerElem):
            return NotImplemented
        out: dict[int, int] = {}
        for i, a in self.coords.items():
            for j, b in other.coords.items():
                k = i + j
                out[k] = out.get(k, 0) + a * b * binom_int(k, i)
        return DividedPowerElem(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> DividedPowerElem:
        if n < 0:
            raise DomainError("divided-power elements only take non-negative powers")
        if n == 0:
            return DividedPowerElem.one()
        return power(self, n)

    def div_int_exact(self, n: int) -> DividedPowerElem:
        if n == 0:
            raise ZeroDivisionError("division by zero scalar")
        out = {}
        for k, v in self.coords.items():
            if v % n:
                raise InexactDivisionError(f"coordinate {v} of b_{k} is not divisible by {n}")
            out[k] = v // n
        return DividedPowerElem(out)

    def __str__(self) -> str:
        terms = sorted(self.coords.items())
        return render_terms(terms, lambda k: "" if k == 0 else f"b_{k}")

    def __repr__(self) -> str:
        return f"DividedPowerElem({self.coords!r})"

    def to_json(self) -> list[list]:
        return [[k, str(v), "1"] for k, v in sorted(self.coords.items())]


class NumericalPoly:
    """Integer-valued polynomial in the binomial basis binom(beta, k)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Mapping[int, int] | None = None):
        self.coords = _clean_int_coords(coords or {}, "binomial-basis")

    @classmethod
    def zero(cls) -> NumericalPoly:
        return cls()

    @classmethod
    def one(cls) -> NumericalPoly:
        return cls({0: 1})

    @classmethod
    def basis(cls, k: int) -> NumericalPoly:
        return cls({k: 1})

    def is_zero(self) -> bool:
        return not self.coords

    def coord(self, k: int) -> int:
        return self.coords.get(k, 0)

    def degree(self) -> int:
        return max(self.coords, default=-1)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NumericalPoly):
            return self.coords == other.coords
        if isinstance(other, int):
            return self.coords == ({} if other == 0 else {0: other})
        return NotImplemented

    __hash__ = None

    def __neg__(self) -> NumericalPoly:
        return NumericalPoly({k: -v for k, v in self.coords.items()})

    def __add__(self, other: NumericalPoly | int) -> NumericalPoly:
        if isinstance(other, int):
            other = NumericalPoly({0: other})
        if not isinstance(other, NumericalPoly):
            return NotImplemented
        out = dict(self.coords)
        for k, v in other.coords.items():
            out[k] = out.get(k, 0) + v
        return NumericalPoly(out)

    __radd__ = __add__

    def __sub__(self, other: NumericalPoly | int) -> NumericalPoly:
        return self + (-other)

    def __mul__(self, other: NumericalPoly | int) -> NumericalPoly:
        if isinstance(other, int):
            return NumericalPoly({k: v * other for k, v in self.coords.items()})
        if not isinstance(other, NumericalPoly):
            return NotImplemented
        return numerical_mul(self, other)

    __rmul__ = __mul__

    def div_int_exact(self, n: int) -> NumericalPoly:
        out = {}
        for k, v in self.coords.items():
            if v % n:
                raise InexactDivisionError(f"coordinate {v} of binom(beta,{k}) is not divisible by {n}")
            out[k] = v // n
        return NumericalPoly(out)

    def evaluate(self, n: int) -> int:
        """Value at an integer argument; always an integer."""
        return sum(v * binom_int(n, k) for k, v in self.coords.items())

    def to_polynomial(self, gen: str = "beta") -> MultiPoly:
        """Expanded Q[beta] form."""
        total = MultiPoly.zero((gen,))
        binoms = binom_polys(MultiPoly.var((gen,), gen), self.degree())
        for k, v in self.coords.items():
            total = total + binoms[k] * v
        return total

    def __str__(self) -> str:
        terms = sorted(self.coords.items())
        return render_terms(terms, lambda k: "" if k == 0 else f"binom(beta,{k})")

    def __repr__(self) -> str:
        return f"NumericalPoly({self.coords!r})"

    def to_json(self) -> list[list]:
        return [[k, str(v), "1"] for k, v in sorted(self.coords.items())]


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


@dataclass(frozen=True)
class NotIntegral:
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
