"""Truncated (Laurent-tailed) formal series over pluggable exact coefficient rings.

A TruncSeries stores coefficients for exponents low..order and carries its
reliable order as data: every binary operation computes the output's order
pessimistically from its inputs, and reading past the reliable order raises
PrecisionError.  Coefficients below `low` are exactly zero by construction.

Coefficient rings are described by a Ring record: the elements' own + - * ==
do the arithmetic, by an int too (exp and log divide by n as * Fraction(1, n)),
and the record supplies what differs between rings (names, constants, exact
division, inverses, and an accumulator that sums products without normalising
each one).  The same engine runs over Q, Z, Q[x], Q[x,y], Laurent rings such
as Q[beta^±1], and numerical polynomials.  `bernoulli_number` owns a table that
the Bernoulli recurrence extends; `bernoulli_minus` inverts (e^D - 1)/D and
shares no state with it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import add
from typing import Any, Callable, NamedTuple, Sequence

from .arith import power
from .basis import NumericalPoly
from .errors import (
    CapabilityError,
    DomainError,
    InexactDivisionError,
    NotInvertibleError,
    PrecisionError,
    RingMismatchError,
    VariableMismatchError,
)
from .laurent import DenseAccumulator, LaurentPoly, render_terms, var_power
from .multipoly import MultiPoly, SparseAccumulator


class Ring(NamedTuple):
    """Operations contract for a coefficient ring whose elements support + - * ==,
    with an int on either side of *.

    `rational` marks rings whose elements also multiply by a Fraction, so that
    x * Fraction(1, n) divides by every nonzero int n; exp/log are typed errors
    without it.  `inv` and `div_exact` are partial: they raise
    NotInvertibleError / InexactDivisionError where undefined.
    `accumulator`, where set, makes an empty sum of products with
    `add(x, y)` and `value()`; the series kernel keeps one per output
    coefficient, so a ring can sum products without normalising each one.
    Without it the kernel folds with the elements' own + and *.
    """

    name: str
    zero: Any
    one: Any
    rational: bool = True
    inv: Callable[[Any], Any] | None = None
    div_exact: Callable[[Any, Any], Any] | None = None
    accumulator: Callable[[], Any] | None = None

    def is_zero(self, a) -> bool:
        return a == self.zero

    def json(self, a):
        if hasattr(a, "to_json"):
            return a.to_json()
        f = Fraction(a)
        return [str(f.numerator), str(f.denominator)]


QQ = Ring(
    name="QQ",
    zero=Fraction(0),
    one=Fraction(1),
    inv=lambda a: Fraction(1) / a,
    div_exact=lambda a, b: a / b,
)


def _zz_div_exact(a: int, n: int) -> int:
    if a % n:
        raise InexactDivisionError(f"{a} is not divisible by {n}")
    return a // n


def _zz_inv(a: int) -> int:
    if a in (1, -1):
        return a
    raise NotInvertibleError(f"{a} is not a unit in Z")


ZZ = Ring(
    name="ZZ",
    zero=0,
    one=1,
    rational=False,
    inv=_zz_inv,
    div_exact=_zz_div_exact,
)


def poly_ring(*gens: str) -> Ring:
    gens = tuple(gens)
    return Ring(
        name="QQ[" + ",".join(gens) + "]",
        zero=MultiPoly.zero(gens),
        one=MultiPoly.const(gens, 1),
        inv=_poly_inv,
        div_exact=lambda a, b: a.div_exact(b),
        accumulator=lambda: SparseAccumulator(gens),
    )


def _poly_inv(a: MultiPoly) -> MultiPoly:
    if not a.is_constant() or a.is_zero():
        raise NotInvertibleError(f"{a} is not a unit in the polynomial ring")
    return MultiPoly.const(a.gens, Fraction(1) / a.constant_value())


def laurent_coeff_ring(var: str, integral: bool = False) -> Ring:
    """Z[var^±1] (integer division only where exact) or Q[var^±1]."""
    return Ring(
        name=f"{'ZZ' if integral else 'QQ'}[{var}^±1]",
        zero=LaurentPoly.zero(var),
        one=LaurentPoly.one(var),
        rational=not integral,
        inv=lambda a: a.inverse(),
        div_exact=lambda a, b: a.div_exact(b, over_integers=integral),
        accumulator=lambda: DenseAccumulator(var),
    )


def numerical_ring() -> Ring:
    return Ring(
        name="Z[beta_*]",
        zero=NumericalPoly.zero(),
        one=NumericalPoly.one(),
        rational=False,
    )


def _terms(ring: Ring, coeffs: Sequence, first: int) -> list[tuple[int, Any]]:
    """The nonzero (index, coefficient) pairs of `coeffs`, indexed from `first`."""
    return [(j, c) for j, c in enumerate(coeffs, first) if not ring.is_zero(c)]


def _accumulate(ring: Ring, n: int, terms: list[tuple[int, Any]],
                step: Callable[[int, Any], Any] | Sequence) -> list:
    """The series engine's one O(n^2) loop over t_0..t_{n-1}.

    After each nonzero t_k, the product t_k * y is added to the pending sum
    s_{k+j} for every (j, y) of `terms` (nonzero, sorted by j) with k + j < n,
    so zero terms cost nothing.  With a `ring.accumulator`, each pending sum
    is an accumulator, created at its first product and normalised to a ring
    element once, when it is read, then dropped; a ring without one folds
    each product into s_{k+j} with + and *.

    With a callable `step` and every j >= 1, s_k is complete when t_k =
    step(k, s_k) reads it, which solves a triangular recurrence; returns t.
    With a sequence of given terms t and j = 0 allowed, the sums are the
    plain product, read at the end; returns s.
    """
    zero = ring.zero
    new = ring.accumulator
    fold = new is None
    acc: list = [zero] * n if fold else [None] * n
    recurrence = callable(step)
    t = []
    for k in range(n):
        if recurrence:
            s = acc[k]
            acc[k] = None
            if not fold:
                s = zero if s is None else s.value()
            x = step(k, s)
        else:
            x = step[k]
        t.append(x)
        if x == zero:
            continue
        if fold:
            for j, y in terms:
                i = k + j
                if i >= n:
                    break
                acc[i] = acc[i] + x * y
            continue
        for j, y in terms:
            i = k + j
            if i >= n:
                break
            s = acc[i]
            if s is None:
                s = acc[i] = new()
            s.add(x, y)
    if recurrence:
        return t
    if not fold:
        for i, s in enumerate(acc):
            acc[i] = zero if s is None else s.value()
    return acc


class TruncSeries:
    """Series sum_{k=low..order} coeffs[k-low] * var^k, reliable through `order`."""

    __slots__ = ("ring", "low", "order", "coeffs", "var")

    def __init__(self, ring: Ring, low: int, order: int, coeffs: Sequence, var: str = "T"):
        if order < low:
            raise DomainError(f"order {order} below lowest exponent {low}")
        if len(coeffs) != order - low + 1:
            raise DomainError(
                f"expected {order - low + 1} coefficients for exponents {low}..{order}, got {len(coeffs)}"
            )
        self.ring = ring
        self.low = low
        self.order = order
        self.coeffs = tuple(coeffs)
        self.var = var

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, ring: Ring, value, order: int, var: str = "T") -> TruncSeries:
        return cls(ring, 0, order, [value] + [ring.zero] * order, var)

    @classmethod
    def one(cls, ring: Ring, order: int, var: str = "T") -> TruncSeries:
        return cls.constant(ring, ring.one, order, var)

    @classmethod
    def zero(cls, ring: Ring, order: int, var: str = "T") -> TruncSeries:
        return cls.constant(ring, ring.zero, order, var)

    @classmethod
    def from_coeffs(cls, ring: Ring, low: int, coeffs: Sequence, var: str = "T",
                    order: int | None = None) -> TruncSeries:
        """Exact data known through `order` (defaults to the last given exponent);
        missing high coefficients are zero-padded when order extends past them,
        and given ones above it are dropped."""
        coeffs = list(coeffs)
        top = low + len(coeffs) - 1
        if order is None:
            order = top
        if order > top:
            coeffs.extend([ring.zero] * (order - top))
        return cls(ring, low, order, coeffs[: order - low + 1], var)

    # -- access ---------------------------------------------------------------

    def coeff(self, k: int):
        """Coefficient of var^k.  Zero below `low`; beyond `order` is a contract breach."""
        if k > self.order:
            raise PrecisionError(
                f"coefficient of {self.var}^{k} requested but series is reliable only to order {self.order}"
            )
        if k < self.low:
            return self.ring.zero
        return self.coeffs[k - self.low]

    def _window(self, lo: int, top: int) -> list:
        """The coefficients of var^lo..var^top, for lo <= low and top <= order."""
        pad = min(self.low, top + 1) - lo
        return [self.ring.zero] * pad + list(self.coeffs[:max(top - self.low + 1, 0)])

    def valuation(self) -> int | None:
        """Exponent of the first nonzero known coefficient, or None if all vanish."""
        zero = self.ring.zero
        return next((k for k, c in enumerate(self.coeffs, self.low) if not c == zero), None)

    def _require_ring(self, other: TruncSeries) -> None:
        if self.ring.name != other.ring.name:
            raise RingMismatchError(
                f"cannot combine series over {self.ring.name} and {other.ring.name}"
            )
        if self.var != other.var:
            raise VariableMismatchError(f"cannot combine series in {self.var} and {other.var}")

    def __eq__(self, other: object) -> bool:
        """Equality of reliable data: same ring, variable and order, same
        coefficients."""
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.ring.name != other.ring.name or self.var != other.var or self.order != other.order:
            return False
        lo = min(self.low, other.low)
        return all(self.coeff(k) == other.coeff(k) for k in range(lo, self.order + 1))

    __hash__ = None

    def agrees_with(self, other: TruncSeries, through: int | None = None) -> bool:
        """Coefficientwise equality through min of the reliable orders (or `through`).

        A `through` past either order is a PrecisionError, raised by `coeff`
        once the coefficients up to that order agree."""
        self._require_ring(other)
        reliable = min(self.order, other.order)
        top = reliable if through is None else through
        lo = min(self.low, other.low)
        if self._window(lo, min(top, reliable)) != other._window(lo, min(top, reliable)):
            return False
        if top > reliable:  # the series reliable to `reliable` raises
            (self if self.order == reliable else other).coeff(reliable + 1)
        return True

    def is_one_series(self) -> bool:
        return self.agrees_with(TruncSeries.one(self.ring, self.order, self.var))

    # -- ring operations -------------------------------------------------------

    def __neg__(self) -> TruncSeries:
        return TruncSeries(self.ring, self.low, self.order, [-c for c in self.coeffs], self.var)

    def __add__(self, other: TruncSeries) -> TruncSeries:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._require_ring(other)
        low = min(self.low, other.low)
        order = min(self.order, other.order)
        coeffs = list(map(add, self._window(low, order), other._window(low, order)))
        return TruncSeries(self.ring, low, order, coeffs, self.var)

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            return self._mul_series(other)
        return self.scalar_mul(other)

    __rmul__ = __mul__

    def _mul_series(self, other: TruncSeries) -> TruncSeries:
        self._require_ring(other)
        ring = self.ring
        low = self.low + other.low
        order = min(self.order + other.low, other.order + self.low)
        n = order - low + 1
        coeffs = _accumulate(ring, n, _terms(ring, other.coeffs, 0), self.coeffs[:n])
        return TruncSeries(ring, low, order, coeffs, self.var)

    def scalar_mul(self, value) -> TruncSeries:
        """Multiply by a ring element or int."""
        return TruncSeries(self.ring, self.low, self.order, [c * value for c in self.coeffs], self.var)

    def shifted(self, k: int) -> TruncSeries:
        """Multiply by var^k (exactly)."""
        return TruncSeries(self.ring, self.low + k, self.order + k, self.coeffs, self.var)

    def trimmed(self) -> TruncSeries:
        """Raise `low` past known-zero leading coefficients (an exact rewrite
        that tightens the order bookkeeping of later multiplications)."""
        v = self.valuation()
        if v is None:
            return TruncSeries.zero(self.ring, self.order, self.var)
        if v == self.low:
            return self
        return TruncSeries(self.ring, v, self.order, self.coeffs[v - self.low:], self.var)

    def truncated(self, order: int) -> TruncSeries:
        if order > self.order:
            raise PrecisionError(f"cannot extend reliable order {self.order} to {order}")
        if order < self.low:
            raise DomainError("truncation below the lowest exponent")
        return TruncSeries(self.ring, self.low, order, self.coeffs[: order - self.low + 1], self.var)

    def __pow__(self, n: int) -> TruncSeries:
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return TruncSeries.one(self.ring, self.order, self.var)
        return power(self, n)

    def map_coeffs(self, fn: Callable) -> TruncSeries:
        return TruncSeries(self.ring, self.low, self.order, [fn(c) for c in self.coeffs], self.var)

    # -- series operations -------------------------------------------------------

    def inverse(self) -> TruncSeries:
        """Multiplicative inverse.  A Laurent factor var^v is split off first:
        (a_v var^v (1 + u))^(-1) = a_v^(-1) var^(-v) (1 + u)^(-1)."""
        ring = self.ring
        v = self.valuation()
        if v is None:
            raise NotInvertibleError("series is zero to its reliable order")
        if ring.inv is None:
            raise CapabilityError(f"ring {ring.name} has no inverses")
        lead = self.coeff(v)
        lead_inv = ring.inv(lead)
        m = self.order - v  # relative reliable order of the unit part
        u = [self.coeff(v + i) * lead_inv for i in range(1, m + 1)]  # u_1..u_m
        one = ring.one
        # w_n = -sum_{k=1..n} u_k w_{n-k}, w_0 = 1
        w = _accumulate(ring, m + 1, _terms(ring, u, 1), lambda n, s: -s if n else one)
        coeffs = [lead_inv * c for c in w]
        return TruncSeries(ring, -v, m - v, coeffs, self.var)

    def _check_tail_free(self, op: str, constant) -> None:
        for k in range(min(self.low, 0), 1):
            c = self.coeff(k)
            expected = constant if k == 0 else self.ring.zero
            if c != expected:
                raise DomainError(
                    f"{op} requires constant term {constant} and no Laurent tail"
                )

    def exp(self) -> TruncSeries:
        """exp of a series with zero constant term, over a Q-algebra ring."""
        ring = self.ring
        if not ring.rational:
            raise CapabilityError(f"exp needs exact integer division; ring {ring.name} lacks it")
        self._check_tail_free("exp", ring.zero)
        a = [self.coeff(k) for k in range(1, self.order + 1)]
        ka = [(k, c * k) for k, c in _terms(ring, a, 1)]
        one = ring.one
        # e_n = (sum_{k=1..n} k a_k e_{n-k}) / n, e_0 = 1
        e = _accumulate(ring, self.order + 1, ka, lambda n, s: s * Fraction(1, n) if n else one)
        return TruncSeries(ring, 0, self.order, e, self.var)

    def log(self) -> TruncSeries:
        """log of a series with constant term 1, over a Q-algebra ring."""
        ring = self.ring
        if not ring.rational:
            raise CapabilityError(f"log needs exact integer division; ring {ring.name} lacks it")
        self._check_tail_free("log", ring.one)
        a = [self.coeff(k) for k in range(self.order + 1)]
        zero = ring.zero
        # m_n = n l_n = n a_n - sum_{k=1..n-1} m_k a_{n-k}
        m = _accumulate(ring, self.order + 1, _terms(ring, a[1:], 1),
                        lambda n, s: a[n] * n - s if n else zero)
        l = [c * Fraction(1, n) if n else c for n, c in enumerate(m)]
        return TruncSeries(ring, 0, self.order, l, self.var)

    def div_exact(self, other: TruncSeries) -> TruncSeries:
        """Exact series division, solving coefficientwise with ring.div_exact.

        Works when every step divides exactly in the coefficient ring (the
        multiply-back contract is the caller's test); the divisor's leading
        coefficient need not be a unit.
        """
        self._require_ring(other)
        ring = self.ring
        if ring.div_exact is None:
            raise CapabilityError(f"ring {ring.name} has no exact division")
        v = other.valuation()
        if v is None:
            raise ZeroDivisionError("division by a series that is zero to reliable order")
        lead = other.coeff(v)
        va = self.valuation()
        if va is None:
            # zero through order - v, which is negative when v exceeds the
            # dividend's order: the window then holds that one exponent
            order = self.order - v
            low = min(order, 0)
            return TruncSeries(ring, low, order, [ring.zero] * (order - low + 1), self.var)
        low = va - v
        # beyond this order the recurrence would touch divisor coefficients
        # past the divisor's own reliable order
        order = min(self.order - v, other.order - 2 * v + va)
        # divisor terms past its lead, indexed by their distance from v
        b = _terms(ring, other.coeffs[v + 1 - other.low:], 1)
        div, coeff = ring.div_exact, self.coeff
        # q_n = (a_{n+v} - sum_{d>=1} q_{n-d} b_{v+d}) / b_v
        q = _accumulate(ring, order - low + 1, b,
                        lambda n, s: div(coeff(low + n + v) - s, lead))
        return TruncSeries(ring, low, order, q, self.var)

    # -- rendering ----------------------------------------------------------------

    def __str__(self) -> str:
        is_zero = self.ring.is_zero
        return render_terms([(k, c) for k, c in enumerate(self.coeffs, self.low) if not is_zero(c)],
                            lambda k: var_power(self.var, k))

    def __repr__(self) -> str:
        return f"TruncSeries({self.ring.name}, low={self.low}, order={self.order}, {self.var}; {self})"

    def to_json(self) -> dict:
        return {
            "ring": self.ring.name,
            "var": self.var,
            "low": self.low,
            "order": self.order,
            "coeffs": [self.ring.json(c) for c in self.coeffs],
        }


def monomial_coords(s: TruncSeries, sign: int, divided: bool = False) -> list[int | None]:
    """Per T^k, k = low..order, of a series over a Laurent ring: the integer v
    with T^k coefficient v * var^(sign*k), or with `divided` the integer v with
    coefficient v * var^k/k! (the divided power b_k = b^k/k!).  None where the
    coefficient has another term or v is not an integer."""
    coords: list[int | None] = []
    for k, c in enumerate(s.coeffs, s.low):
        e = sign * k
        n = c.nums.get(e, 0) * (factorial(k) if divided else 1)
        coords.append(n // c.den if c.nums.keys() <= {e} and n % c.den == 0 else None)
    return coords


def geometric_series(ring: Ring, ratio, order: int) -> TruncSeries:
    """(1 - ratio*T)^(-1) = sum_k ratio^k T^k, computed by series inversion."""
    one_minus = TruncSeries.from_coeffs(ring, 0, [ring.one, -ratio], order=order)
    return one_minus.inverse()


# -- Bernoulli numbers ------------------------------------------------------------

# B_0, B_1, B_2, ...: read and extended only by bernoulli_number
_bernoulli: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


def bernoulli_minus(order: int) -> TruncSeries:
    """The series D/(e^D - 1) to the given order, over Q.

    Computed by inverting (e^D - 1)/D = sum_k D^k/(k+1)!; the coefficient of
    D^n is B_n/n!.  It shares no state with bernoulli_number.
    """
    if order < 0:
        raise DomainError("order must be non-negative")
    expm1_over = TruncSeries(
        QQ, 0, order, [Fraction(1, factorial(k + 1)) for k in range(order + 1)], var="D"
    )
    return expm1_over.inverse()


def bernoulli_number(n: int) -> Fraction:
    """B_n with the B_1 = -1/2 convention, from a table that grows one index at a
    time by B_m = -(1/(m+1)) sum_{k<m} C(m+1, k) B_k, with B_m = 0 for odd m >= 3."""
    if n < 0:
        raise DomainError("Bernoulli index must be non-negative")
    table = _bernoulli
    for m in range(len(table), n + 1):
        if m % 2:
            table.append(Fraction(0))
        else:  # C(m+1, 1) B_1 = -(m+1)/2 is the one odd term
            even = sum(comb(m + 1, k) * table[k] for k in range(0, m, 2))
            table.append(Fraction(1, 2) - even / (m + 1))
    return table[n]
