"""The K-side Tate ring of the circle: Z[q^±1, (1-q)^-1], its partial-fraction
splitting onto numerical polynomials, and the binomial/Cartier series.

Elements are kept as a Laurent numerator over a power of (1-q), reduced so the
numerator does not vanish at q = 1 whenever the denominator power is positive.
The quotient map mirrors the H-side boundary through the convention
(1-q)^-j -> beta_{j-1}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from operator import sub
from typing import Iterator, NamedTuple

from .arith import power
from .basis import (
    NotIntegral, NumericalPoly, binom_ints, numerical_mul, stirling1_rows, to_binomial_basis,
)
from .errors import DomainError, NotInvertibleError
from .laurent import LaurentPoly, render_terms, var_power
from .multipoly import RationalFunction
from .report import Check, VerificationReport
from .series import (
    ZZ, TruncSeries, bernoulli_number, geometric_series, laurent_coeff_ring, monomial_coords,
    numerical_ring,
)

ONE_MINUS_Q = LaurentPoly("q", {0: 1, 1: -1})


def _check_q(x: LaurentPoly) -> None:
    if x.var != "q":
        raise DomainError(f"expected a Laurent polynomial in q, got variable {x.var!r}")
    if not x.is_integral():
        raise DomainError(f"{x} has non-integer coefficients; the ring is over Z")


# `_split_at_one`'s quotient is dense over its numerator's span: `eval "(q^N -
# 1)*(1-q)^-1"` took 0.62 s and 76 MB at N = 2^18 and 7.7 s and 912 MB at N =
# 4000000 in a fresh process (CPython 3.11, 2-vCPU VM).  `verify all` and the
# interactive stream split spans of at most 649, so a wider one is refused.
MAX_SPLIT_SPAN = 1 << 18


def _split_at_one(num: LaurentPoly) -> tuple[int, LaurentPoly]:
    """(a, Q) with num = a + (1-q) * Q exactly and a = num(1)."""
    lo, dense = _dense_at_one(num)
    a, quo = _split_dense(lo, dense)
    return a, _from_dense(lo, quo)


def _dense_at_one(num: LaurentPoly) -> tuple[int, list[int]]:
    """(lo, num's coefficients at q^lo..q^hi) with lo = min(num.lo(), 0) and
    hi = max(num.hi(), 0), the window of a split at one; a quotient spanning
    more than MAX_SPLIT_SPAN exponents is refused."""
    lo, hi = min(num.lo(), 0), max(num.hi(), 0)
    if hi - lo > MAX_SPLIT_SPAN:
        raise DomainError(f"the quotient by 1-q over q^{lo}..q^{hi - 1} spans more than "
                          f"{MAX_SPLIT_SPAN} exponents")
    dense = [0] * (hi - lo + 1)
    for e, v in num.coeffs.items():
        dense[e - lo] = v
    return lo, dense


def _split_dense(lo: int, dense: list[int]) -> tuple[int, list[int]]:
    """`_split_at_one` on a window from q^lo that holds q^0: Q's coefficient
    at q^e is the prefix sum of the coefficients through q^e, less a from q^0
    on (synthetic division by the linear factor).  Q's window also starts at
    q^lo and holds q^0, so splits can follow one another."""
    a = sum(dense)
    quo = list(accumulate(dense[:-1]))
    if a:
        quo[-lo:] = map(sub, quo[-lo:], repeat(a))
    if len(quo) + lo == 0:  # the window ended at q^0
        quo.append(0)
    return a, quo


def _from_dense(lo: int, dense: list[int]) -> LaurentPoly:
    return LaurentPoly._from_numerators("q", {e: v for e, v in enumerate(dense, lo) if v})


def _binomial_row(b: int, n: int, c: int) -> Iterator[int]:
    """c (-1)^i C(b, i) for i < n, the coefficients of c (1-t)^b, by the
    running ratio; when b >= 0 it stops at i = b, past which every coefficient
    is zero."""
    if b >= 0:
        n = min(n, b + 1)
    for i in range(n):
        yield c
        c = c * (i - b) // (i + 1)


def _one_minus_q_pow(d: int) -> LaurentPoly:
    """(1-q)^d for d >= 0."""
    return LaurentPoly._from_numerators("q", dict(enumerate(_binomial_row(d, d + 1, 1))))


def _reduce(num: LaurentPoly, denom_pow: int) -> tuple[LaurentPoly, int]:
    """(num, denom_pow) with each factor 1-q that divides num cancelled."""
    while denom_pow > 0 and num.coeffs and sum(num.coeffs.values()) == 0:
        num, denom_pow = _split_at_one(num)[1], denom_pow - 1
    return num, denom_pow if num.coeffs else 0


class TateKElem:
    """num / (1-q)^denom_pow with num in Z[q^±1], reduced at q = 1."""

    __slots__ = ("num", "denom_pow")

    def __init__(self, num: LaurentPoly, denom_pow: int = 0):
        _check_q(num)
        if denom_pow < 0:
            raise DomainError("denominator power must be non-negative")
        self.num, self.denom_pow = _reduce(num, denom_pow)

    @classmethod
    def _reduced(cls, num: LaurentPoly, denom_pow: int) -> TateKElem:
        """A ring operation's result: its numerator is integral in q already,
        so only the reduction runs."""
        out = object.__new__(cls)
        out.num, out.denom_pow = _reduce(num, denom_pow)
        return out

    @classmethod
    def one(cls) -> TateKElem:
        return cls(LaurentPoly.one("q"))

    @classmethod
    def zero(cls) -> TateKElem:
        return cls(LaurentPoly.zero("q"))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_laurent(self) -> bool:
        return self.denom_pow == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TateKElem):
            return self.num == other.num and self.denom_pow == other.denom_pow
        if isinstance(other, (int, LaurentPoly)):
            return self == TateKElem(
                other if isinstance(other, LaurentPoly) else LaurentPoly("q", {0: other})
            )
        return NotImplemented

    __hash__ = None

    def _coerce(self, other) -> TateKElem:
        if isinstance(other, TateKElem):
            return other
        if isinstance(other, LaurentPoly):
            return TateKElem(other)
        if isinstance(other, int):
            return TateKElem(LaurentPoly("q", {0: other}))
        raise TypeError(f"cannot coerce {other!r} into the Tate K ring")

    def __neg__(self) -> TateKElem:
        return TateKElem._reduced(-self.num, self.denom_pow)

    def __add__(self, other) -> TateKElem:
        """Over the common pole order: the numerator with the lower one gains
        the missing power of (1-q)."""
        o = self._coerce(other)
        d = self.denom_pow - o.denom_pow
        if d == 0:
            return TateKElem._reduced(self.num + o.num, self.denom_pow)
        if d > 0:
            return TateKElem._reduced(self.num + o.num * _one_minus_q_pow(d), self.denom_pow)
        return TateKElem._reduced(self.num * _one_minus_q_pow(-d) + o.num, o.denom_pow)

    __radd__ = __add__

    def __sub__(self, other) -> TateKElem:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> TateKElem:
        return (-self) + other

    def __mul__(self, other) -> TateKElem:
        if isinstance(other, int):
            return TateKElem._reduced(self.num * other, self.denom_pow)
        o = self._coerce(other)
        return TateKElem._reduced(self.num * o.num, self.denom_pow + o.denom_pow)

    __rmul__ = __mul__

    def inverse(self) -> TateKElem:
        """Invert a unit ±q^a (1-q)^e; anything else is not invertible here."""
        if self.is_zero():
            raise NotInvertibleError("zero is not invertible")
        num, extra = self.num, 0
        while sum(num.coeffs.values()) == 0:
            num, extra = _split_at_one(num)[1], extra + 1
        if len(num.coeffs) != 1:
            raise NotInvertibleError(f"{self} is not a unit in Z[q^±1, (1-q)^-1]")
        (e, v), = num.coeffs.items()
        if v not in (1, -1):
            raise NotInvertibleError(f"{self} is not a unit in Z[q^±1, (1-q)^-1]")
        # self = v q^e (1-q)^(extra - denom_pow); invert each factor
        flips = self.denom_pow - extra
        inv_num = LaurentPoly("q", {-e: v})
        if flips >= 0:
            return TateKElem(inv_num * _one_minus_q_pow(flips), 0)
        return TateKElem(inv_num, -flips)

    def __pow__(self, n: int) -> TateKElem:
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return TateKElem.one()
        return power(self, n)

    def __str__(self) -> str:
        if self.denom_pow == 0:
            return str(self.num)
        num = str(self.num)
        if len(self.num.coeffs) > 1:
            num = f"({num})"
        pole = f"(1-q)^-{self.denom_pow}" if self.denom_pow > 1 else "(1-q)^-1"
        return pole if num == "1" else f"{num} * {pole}"

    def __repr__(self) -> str:
        return f"TateKElem({self.num!r}, denom_pow={self.denom_pow})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "denomPow": self.denom_pow}


class PartialFractionForm(NamedTuple):
    """poly_part + sum_j pole_coeffs[j-1] * (1-q)^-j, an exact rewriting."""

    poly_part: LaurentPoly
    pole_coeffs: tuple[int, ...]

    def reconstruct(self) -> TateKElem:
        total = TateKElem(self.poly_part)
        for j, a in enumerate(self.pole_coeffs, start=1):
            total = total + TateKElem(LaurentPoly("q", {0: a}), j)
        return total

    def __str__(self) -> str:
        """The Laurent terms, then each nonzero a*(1-q)^-j."""
        q = self.poly_part.var
        terms = [(var_power(q, e), v) for e, v in sorted(self.poly_part.coeffs.items())]
        terms += [(f"(1-q)^-{j}", a) for j, a in enumerate(self.pole_coeffs, start=1) if a]
        return render_terms(terms, str)  # the keys are the monomials

    def to_json(self) -> dict:
        return {"polyPart": self.poly_part.to_json(), "poleCoeffs": list(self.pole_coeffs)}


def partial_fractions(x: TateKElem) -> PartialFractionForm:
    """Split off the pole parts by iterated evaluation at q = 1.

    For x = n/(1-q)^k the top pole coefficient is n(1); subtracting it and
    dividing by (1-q) drops k by one.  Pole coefficients are integers because
    the numerator is integral.
    """
    num, k = x.num, x.denom_pow
    if not k:
        return PartialFractionForm(poly_part=num, pole_coeffs=())
    lo, dense = _dense_at_one(num)
    poles = [0] * k
    for j in range(k, 0, -1):
        poles[j - 1], dense = _split_dense(lo, dense)
    return PartialFractionForm(poly_part=_from_dense(lo, dense), pole_coeffs=tuple(poles))


def quotient_to_betas(x: TateKElem) -> NumericalPoly:
    """Image in Z[beta_*]: (1-q)^-j -> beta_{j-1}; the kernel is Z[q^±1]."""
    pf = partial_fractions(x)
    return NumericalPoly({j - 1: a for j, a in enumerate(pf.pole_coeffs, start=1) if a})


def binomial_series(order: int) -> TruncSeries:
    """(1+T)^beta = sum_k beta_k T^k over the numerical-polynomial ring."""
    ring = numerical_ring()
    return TruncSeries(ring, 0, order, [NumericalPoly.basis(k) for k in range(order + 1)])


def binomial_poly_series(order: int, negate: bool = False) -> TruncSeries:
    """(1+T)^(±beta) over Q[beta^±1]: the binomials binom(±beta, k), k <= order."""
    beta = LaurentPoly("beta", {1: -1 if negate else 1})
    return TruncSeries(laurent_coeff_ring("beta"), 0, order, beta.binomials(order))


def _cartier_lhs(order0: int, order1: int) -> dict[tuple[int, int], NumericalPoly]:
    """beta(T0 +_Gm T1) = sum_k beta_k (T0 + T1 + T0*T1)^k through T0^order0
    T1^order1: its beta_k coordinate at T0^i T1^j is the T0^i T1^j coefficient
    of the k-th power, filled per (i, j) from the power recurrence."""

    def trunc_mul(a: dict, b: dict) -> dict:
        out: dict[tuple[int, int], int] = {}
        for (i, j), u in a.items():
            for (k, l), v in b.items():
                ii, jj = i + k, j + l
                if ii <= order0 and jj <= order1:
                    out[(ii, jj)] = out.get((ii, jj), 0) + u * v
        return {e: v for e, v in out.items() if v}

    group_law = {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    coords: dict[tuple[int, int], dict[int, int]] = {}
    power = {(0, 0): 1}
    for k in range(order0 + order1 + 1):
        for e, v in power.items():
            coords.setdefault(e, {})[k] = v
        power = trunc_mul(power, group_law)
        if not power:
            break
    return {e: NumericalPoly(c) for e, c in coords.items()}


def cartier_check(order0: int, order1: int) -> VerificationReport:
    """The character relation beta(T0 +_Gm T1) = beta(T0) * beta(T1) with
    T0 +_Gm T1 = T0 + T1 + T0*T1, compared coefficientwise in Z[beta_*]; the
    right side is `numerical_mul`'s product of beta_i and beta_j."""
    if order0 < 1 or order1 < 1:
        raise DomainError("bi-orders must be at least 1")
    lhs = _cartier_lhs(order0, order1)
    products = (
        (i, j, numerical_mul(NumericalPoly.basis(i), NumericalPoly.basis(j)))
        for i in range(order0 + 1)
        for j in range(order1 + 1)
    )
    check = Check(
        "beta(T0 +Gm T1) == beta(T0)*beta(T1)",
        next((f"T0^{i} T1^{j}: {lhs.get((i, j))} != {rhs}" for i, j, rhs in products
              if lhs.get((i, j), NumericalPoly.zero()) != rhs), None),
        note=f"all bi-orders up to ({order0},{order1})",
    )
    return VerificationReport("cartier", max(order0, order1), (check,))


def q_hat_inv_poly(order: int) -> TruncSeries:
    """(1 - (1+T)^-beta)/T over Q[beta^±1]; T^k coefficient is -binom(-beta, k+1).

    q is its series inverse by definition; the tests compare `q_series` with
    that inverse, and the Q[beta] prop2 oracle builds on this series.
    """
    return _q_hat_inv(binomial_poly_series(order + 1, negate=True))


def _q_hat_inv(inv_pow: TruncSeries) -> TruncSeries:
    """(1 - inv_pow)/T, one order below `inv_pow`, which is (1+T)^-beta."""
    return (TruncSeries.one(inv_pow.ring, inv_pow.order) - inv_pow).shifted(-1)


def prop2_points(order: int) -> range:
    """The order+2 consecutive integers around 0 at which prop2 evaluates beta.

    (1+T)^m has |m|+1 nonzero terms for m >= 0 and (1+T)^-m for m <= 0, so a
    point costs about |m| * order integer products, and points centred on 0
    cost half as much as 0..order+1.
    """
    half = (order + 2) // 2
    return range(-half, order + 2 - half)


def _prop2_at(m: int, order: int) -> tuple[bool, bool]:
    """prop2's defining relation and Vandermonde identity in ZZ[[T]] at beta = m.

    1 - qhat_inv T built from the solved series is (1+T)^-m itself, so the
    relation's product (1 - qhat_inv T)(1+T)^m and the Vandermonde product
    (1+T)^m (1+T)^-m are one series: it is computed once and read by both
    verdicts.  The relation also asks that the inverse of 1 - qhat_inv T
    reproduce (1+T)^m.
    """
    binom = TruncSeries(ZZ, 0, order, binom_ints(m, order))
    qhi = _q_hat_inv(TruncSeries(ZZ, 0, order + 1, binom_ints(-m, order + 1)))
    one_minus = (TruncSeries.one(ZZ, order + 1) - qhi.shifted(1)).truncated(order)
    product_ok = (one_minus * binom).is_one_series()
    return product_ok and one_minus.inverse().agrees_with(binom, through=order), product_ok


def verify_prop2(order: int, defect: int | None = None) -> VerificationReport:
    """Both readings of (1 - q^-1 T)^-1 = (1+T)^beta.

    Coordinates: the geometric series has the all-ones sequence on q^-k and
    the binomial series the all-ones sequence on beta_k, matched under
    beta_k <-> q^-k.  Defining relation: substituting the solved q^-1 series
    into 1 - q^-1 T and inverting reproduces (1+T)^beta exactly in Q[beta][[T]].

    Both series identities are decided without Q[beta] arithmetic, in ZZ[[T]]
    at the integers beta = m of `prop2_points(order)`.  The T^k coefficient of
    each side is a polynomial in beta of degree at most k: binom(±beta, k) has
    degree k, and so has the T^k coefficient of 1 - qhat_inv T (it is
    -qhat_inv_{k-1}, and qhat_inv_{k-1} = -binom(-beta, k)) and, by induction
    on the inverse recurrence, that of its inverse; a product's T^k
    coefficient sums products of degrees i and k - i.  Evaluation at beta = m
    is a ring map Q[beta] -> Q that sends binom(±beta, k) to the integer
    binom(±m, k), and it commutes with the product and with the inverse, since
    the constant term is 1.  A polynomial of degree at most k <= order that
    vanishes at order+1 distinct points is zero, so each identity holds
    through T^order in Q[beta][[T]] exactly when it holds at every point
    (order+2 of them, one more than needed).
    """
    if order < 1:
        raise DomainError("order must be at least 1")
    ring_q = laurent_coeff_ring("q", integral=True)
    geo = geometric_series(ring_q, LaurentPoly("q", {-1: 1}), order)
    geo_coords = monomial_coords(geo, -1)
    bin_series = binomial_series(order)
    bin_coords = []
    for k in range(0, order + 1):
        c: NumericalPoly = bin_series.coeff(k)
        pure = set(c.coords) <= {k}
        bin_coords.append(c.coord(k) if pure else None)
    if defect is not None:  # an index in 0..order; `verify.run_suite` checks it
        geo_coords[defect] = (geo_coords[defect] or 0) + 1
    bad = next(
        (k for k in range(order + 1) if not (geo_coords[k] == bin_coords[k] == 1)), None
    )
    verdicts = [_prop2_at(m, order) for m in prop2_points(order)]
    checks = (
        Check(
            "all-ones coordinates under beta_k <-> q^-k",
            None if bad is None else f"T^{bad}: {geo_coords[bad]} vs {bin_coords[bad]}",
        ),
        Check(
            "(1 - qhat_inv T)^-1 == (1+T)^beta",
            None if all(r for r, _ in verdicts) else "defining relation fails",
        ),
        Check(
            "(1+T)^beta * (1+T)^-beta == 1",
            None if all(v for _, v in verdicts) else "binomial convolution does not telescope",
        ),
    )
    return VerificationReport("prop2", order, checks)


def q_series(order: int) -> TruncSeries:
    """q = T (1 - (1+T)^-beta)^-1 over Q[beta^±1], in closed form.

    With L = log(1+T), (1+T)^-beta = e^(-beta L), and x/(1 - e^-x) =
    sum_n B+_n x^n/n! with B+_n = (-1)^n B_n, so

        beta q = (T/L) * beta L/(1 - e^(-beta L)) = sum_n (B+_n/n!) beta^n T L^(n-1).

    L^m/m! = sum_j s(j, m) T^j/j!, with s the signed Stirling numbers of the
    first kind, so for 1 <= n <= k the beta^n T^k coefficient of beta q is
    B+_n s(k-1, n-1)/(n (k-1)!).  Its beta^0 part is the T^k coefficient of
    T/L = integral_0^1 (1+T)^x dx, the Gregory number
    G_k = (1/k!) sum_l s(k, l)/(l+1), summed in integers over lcm(1..k+1).
    Then q_k = (beta q)_k / beta, whose leading coefficient is beta^-1.  That
    is one Stirling table, the Bernoulli numbers through B_order (built once
    per process, then read from their cache) and O(order^2) rationals: 0.06 s
    at order 128, where the series inverse of `q_hat_inv_poly` takes 2.4 s.
    """
    if order < 0:
        raise DomainError("order must be non-negative")
    stirling = stirling1_rows(order)
    bernoulli_number(order)  # fills the cache through B_order, once per process
    b_over_n = [(-1) ** n * bernoulli_number(n) / n for n in range(1, order + 1)]  # B+_n/n
    coeffs, lcm_k, fact, prev_fact = [], 1, 1, 1  # lcm(1..k+1), k!, (k-1)!
    for k, (row, prev_row) in enumerate(zip(stirling, [[], *stirling])):
        lcm_k = lcm(lcm_k, k + 1)
        if k:
            prev_fact, fact = fact, fact * k
        gregory = sum(c * (lcm_k // (l + 1)) for l, c in enumerate(row))
        c_k = {-1: Fraction(gregory, lcm_k * fact)}
        # prev_row[n-1] = s(k-1, n-1) for n = 1..k
        for n, (b, st) in enumerate(zip(b_over_n, prev_row), start=1):
            if b and st:
                c_k[n - 1] = Fraction(b.numerator * st, b.denominator * prev_fact)
        coeffs.append(LaurentPoly("beta", c_k))
    return TruncSeries(laurent_coeff_ring("beta"), 0, order, coeffs)


class IntegralityEntry(NamedTuple):
    series: str                 # "q" or "beta*q"
    index: int                  # T-power
    value: str                  # rendered coefficient
    is_polynomial: bool
    binomial_coords: tuple[tuple[int, str], ...] | None  # None unless polynomial
    is_integral: bool | None    # None unless polynomial

    def to_json(self) -> dict:
        out = {
            "series": self.series,
            "k": self.index,
            "value": self.value,
            "polynomial": self.is_polynomial,
        }
        if self.is_polynomial:
            out["binomialCoords"] = [[k, v] for k, v in self.binomial_coords]
            out["integral"] = self.is_integral
        return out


class IntegralityReport(NamedTuple):
    """Descriptive evidence on integrality of the q-series coefficients.

    Never a pass/fail verdict: each coefficient of q and beta*q is classified
    as polynomial or not, and polynomial ones get binomial-basis coordinates.
    """

    order: int
    entries: tuple[IntegralityEntry, ...]

    def to_json(self) -> dict:
        return {"report": "q-integrality", "order": self.order,
                "entries": [e.to_json() for e in self.entries]}

    def __str__(self) -> str:
        lines = [f"q-series integrality survey to order {self.order}"]
        for e in self.entries:
            if e.is_polynomial:
                coords = ", ".join(f"c_{k}={v}" for k, v in e.binomial_coords) or "0"
                status = "integral binomial coordinates" if e.is_integral else "fractional coordinates"
                lines.append(f"  {e.series}[T^{e.index}] = {e.value}: polynomial; {status} ({coords})")
            else:
                lines.append(f"  {e.series}[T^{e.index}] = {e.value}: not a polynomial in beta")
        return "\n".join(lines)


def integrality_report(order: int) -> IntegralityReport:
    q = q_series(order).coeffs
    entries = []
    # beta*q_k is q_k with its exponents raised by one; built from q_k's own
    # Fraction view, which it keeps, so rendering it builds no Fraction
    beta_q = [LaurentPoly("beta", {e + 1: v for e, v in c.coeffs.items()}) for c in q]
    for label, coeffs in (("q", q), ("beta*q", beta_q)):
        for k, c in enumerate(coeffs):
            value = str(RationalFunction(c))
            if c.lo() >= 0:
                conv = to_binomial_basis(c)
                if isinstance(conv, NotIntegral):
                    coords = tuple((k2, str(v)) for k2, v in conv.coords)
                    integral = False
                else:
                    coords = tuple((k2, str(v)) for k2, v in sorted(conv.coords.items()))
                    integral = True
                entries.append(IntegralityEntry(label, k, value, True, coords, integral))
            else:
                entries.append(IntegralityEntry(label, k, value, False, None, None))
    return IntegralityReport(order=order, entries=tuple(entries))


def adams_on_laurent(k: int, x: LaurentPoly) -> LaurentPoly:
    """psi^k on characters: the exponent-dilation ring map q^n -> q^(kn)."""
    if k < 1:
        raise DomainError("Adams operations are indexed by positive integers")
    _check_q(x)
    return x.dilated(k)
