"""The H-side Tate ring of the circle: Z[c,c^-1], its splitting, and the
boundary operator to divided powers.

The split exact sequence 0 -> Z[c] -> Z[c,c^-1] -> c^-1 Z[c^-1] -> 0 is
realized by the projection pi_minus onto strictly negative powers of c; the
boundary sends c^-k to b_{k-1} and kills Z[c].  The degree bookkeeping
(deg c = 2, deg T = 2, deg b_k = -2k) makes a degree-0 series carry exactly
one integer coordinate per power of T, which GradedTSeries enforces by
storing a bare scalar sequence.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .basis import DividedPowerElem
from .errors import DomainError
from .laurent import LaurentPoly, render_terms
from .report import Check, VerificationReport
from .series import TruncSeries, bernoulli_minus, geometric_series, laurent_coeff_ring


def _check(x: LaurentPoly) -> None:
    if x.var != "c":
        raise DomainError(f"expected a Laurent polynomial in c, got variable {x.var!r}")
    if not x.is_integral():
        raise DomainError(f"{x} has non-integer coefficients; the Tate ring is over Z")


def pi_minus(x: LaurentPoly) -> LaurentPoly:
    """Projection onto the split image c^-1 Z[c^-1] (strictly negative exponents)."""
    _check(x)
    return LaurentPoly("c", {e: v for e, v in x.coeffs.items() if e < 0})


def boundary(x: LaurentPoly) -> DividedPowerElem:
    """The boundary c^-k -> b_{k-1} (k >= 1); Z[c] is the kernel."""
    _check(x)
    out: dict[int, int] = {}
    for e, v in x.coeffs.items():
        if e < 0:
            k = -e - 1
            out[k] = out.get(k, 0) + v
    return DividedPowerElem(out)


def rota_baxter_defect(x: LaurentPoly, y: LaurentPoly) -> LaurentPoly:
    """Weight -1 Rota-Baxter defect of pi_minus; identically zero by contract:

        P(x)P(y) + P(xy) - P(P(x)y) - P(xP(y))  with  P = pi_minus.
    """
    px, py = pi_minus(x), pi_minus(y)
    return px * py + pi_minus(x * y) - pi_minus(px * y) - pi_minus(x * py)


def kronecker_pair(x: LaurentPoly, y: DividedPowerElem) -> int:
    """Coordinate pairing (c^i, b_j) = delta_ij between Z[c] and Z[b_*]."""
    _check(x)
    if x.lo() < 0:
        raise DomainError("the Kronecker pairing is defined on Z[c] (no negative exponents)")
    total = 0
    for e, v in x.coeffs.items():
        total += v * y.coord(e)
    return total


class Grading(enum.Enum):
    """Which graded module a degree-0 T-series lives in."""

    TATE_H = "TateH"   # T^k coordinate scales c^-k
    COH_H = "CohH"     # same, but support restricted to k <= 0 (polynomial range)
    HOM_H = "HomH"     # T^k coordinate scales b_k (b_-1 := 0)


class _GradedFields(NamedTuple):
    # GradedTSeries validates these in `__new__`, which a NamedTuple body may not define
    tag: Grading
    low: int
    coords: tuple[int, ...]


class GradedTSeries(_GradedFields):
    """Degree-0 series: one integer scalar per power of T.

    The V((T))|0 degree constraint is structural: the T^k slot holds the
    single scalar multiplying the degree-matching basis element.
    """

    __slots__ = ()

    def __new__(cls, tag: Grading, low: int, coords: tuple[int, ...]):
        self = super().__new__(cls, tag, low, coords)
        if not coords:
            raise DomainError("a graded series stores at least one coordinate")
        if tag is Grading.COH_H:
            for k in range(low, self.order + 1):
                if k > 0 and self.coord(k) != 0:
                    raise DomainError("CohH series must be supported in degrees k <= 0")
        return self

    @property
    def order(self) -> int:
        return self.low + len(self.coords) - 1

    def coord(self, k: int) -> int:
        if k < self.low or k > self.order:
            return 0
        return self.coords[k - self.low]

    def __sub__(self, other: GradedTSeries) -> GradedTSeries:
        if self.tag is not other.tag:
            raise DomainError("cannot subtract series with different module tags")
        low = min(self.low, other.low)
        order = min(self.order, other.order)
        return GradedTSeries(
            self.tag, low, tuple(self.coord(k) - other.coord(k) for k in range(low, order + 1))
        )

    def with_coord(self, k: int, value: int) -> GradedTSeries:
        if k < self.low or k > self.order:
            raise DomainError(f"coordinate {k} outside stored range")
        coords = list(self.coords)
        coords[k - self.low] = value
        return GradedTSeries(self.tag, self.low, tuple(coords))

    def termwise_boundary(self) -> dict[int, DividedPowerElem]:
        """Apply the boundary to each T^k coefficient (TateH/CohH side only)."""
        if self.tag is Grading.HOM_H:
            raise DomainError("the boundary acts on the Tate side, not on homology")
        out = {}
        for k in range(self.low, self.order + 1):
            out[k] = boundary(LaurentPoly("c", {-k: self.coord(k)}))
        return out

    def __str__(self) -> str:
        """Each nonzero coordinate times its basis label and power of T."""
        def mono(k: int) -> str:
            if k == 0:
                return ""
            label = f"b_{k}" if self.tag is Grading.HOM_H else f"c^{-k}"
            return f"{label} {'T' if k == 1 else f'T^{k}'}"

        return render_terms([(k, v) for k, v in enumerate(self.coords, self.low) if v], mono)

    def to_json(self) -> dict:
        return {
            "module": self.tag.value,
            "low": self.low,
            "order": self.order,
            "coords": list(self.coords),
        }


def include_homology(s: GradedTSeries) -> GradedTSeries:
    """Coordinate relabeling b_k -> c^-k (a module map, not a ring map)."""
    if s.tag is not Grading.HOM_H:
        raise DomainError("only homology-side series are relabeled into the Tate side")
    return GradedTSeries(Grading.TATE_H, s.low, s.coords)


def _tate_coords(s: TruncSeries) -> tuple[int, ...]:
    """Extract the scalar of c^-k from each T^k coefficient, checking purity."""
    coords = []
    for k in range(s.low, s.order + 1):
        c: LaurentPoly = s.coeff(k)
        extra = {e: v for e, v in c.coeffs.items() if e != -k}
        if extra:
            raise DomainError(f"T^{k} coefficient {c} is not a pure multiple of c^{-k}")
        v = c.coeff(-k)
        if not isinstance(v, int):
            raise DomainError(f"non-integer coordinate {v} at T^{k}")
        coords.append(v)
    return tuple(coords)


def _hom_coords(s: TruncSeries) -> tuple[int, ...]:
    """Extract the b_k coordinate (k! times the b^k coefficient) per power of T."""
    coords = []
    for k in range(s.low, s.order + 1):
        c: LaurentPoly = s.coeff(k)
        extra = {e: v for e, v in c.coeffs.items() if e != k}
        if extra:
            raise DomainError(f"T^{k} coefficient {c} is not a pure multiple of b^{k}")
        v = Fraction(c.coeff(k)) * factorial(k)
        if v.denominator != 1:
            raise DomainError(f"non-integer divided-power coordinate {v} at T^{k}")
        coords.append(int(v))
    return tuple(coords)


def exp_bT(order: int) -> GradedTSeries:
    """exp(bT) as a homology-side graded series; coordinates are all ones."""
    ring = laurent_coeff_ring("b")
    if order == 0:
        series = TruncSeries.one(ring, 0)
    else:
        b = LaurentPoly("b", {1: 1})
        series = TruncSeries.from_coeffs(ring, 1, [b], order=order).exp()
    return GradedTSeries(Grading.HOM_H, series.low, _hom_coords(series))


def geom_cinv(order: int) -> GradedTSeries:
    """(1 - c^-1 T)^-1 as a Tate-side graded series; coordinates are all ones."""
    ring = laurent_coeff_ring("c", integral=True)
    series = geometric_series(ring, LaurentPoly("c", {-1: 1}), order)
    return GradedTSeries(Grading.TATE_H, series.low, _tate_coords(series))


def kernel_forces_zero(s: GradedTSeries) -> tuple[bool, int | None]:
    """A boundary-kernel series supported in k >= 1 must vanish: the boundary of
    v*c^-k is v*b_{k-1}, nonzero whenever v != 0 and k >= 1.  Returns (ok,
    first offending k)."""
    for k in range(max(s.low, 1), s.order + 1):
        if s.coord(k) != 0:
            return False, k
    return True, None


def verify_prop1(order: int, defect: int | None = None) -> VerificationReport:
    """Mechanical check that exp(bT) and (1 - c^-1 T)^-1 agree in the Tate ring.

    Reproduces the three steps: the difference epsilon has all-zero
    coordinates; the termwise boundary of both series is sum b_{k-1} T^k; and
    a boundary-kernel series supported in positive T-degrees vanishes.  The
    optional `defect` injects a bad coordinate at T^defect for fault testing.
    """
    if order < 1:
        raise DomainError("order must be at least 1")
    lhs = include_homology(exp_bT(order))
    rhs = geom_cinv(order)
    eps = lhs - rhs
    if defect is not None:
        eps = eps.with_coord(defect, eps.coord(defect) + 1)
    bad = next((k for k in range(eps.low, eps.order + 1) if eps.coord(k) != 0), None)
    b_lhs = lhs.termwise_boundary()
    b_rhs = rhs.termwise_boundary()
    expected = {
        k: (DividedPowerElem.zero() if k == 0 else DividedPowerElem.basis(k - 1))
        for k in range(0, order + 1)
    }
    bad_b = next(
        (k for k in range(0, order + 1) if not (b_lhs[k] == b_rhs[k] == expected[k])), None
    )
    ok, bad_k = kernel_forces_zero(eps)
    checks = (
        Check(
            "epsilon-vanishes",
            None if bad is None else f"T^{bad}: coordinate {eps.coord(bad)} != 0",
        ),
        Check(
            "termwise-boundary-agrees",
            None if bad_b is None else f"T^{bad_b}: {b_lhs[bad_b]} vs {b_rhs[bad_b]}",
            note="both boundaries equal sum_k b_(k-1) T^k",
        ),
        Check(
            "kernel-support-forces-zero",
            None if ok else f"T^{bad_k}: nonzero coordinate {eps.coord(bad_k)} with nonzero boundary b_{bad_k - 1}",
            note="ker(boundary) series live in degrees k <= 0; epsilon is supported in k >= 0 with zero constant term",
        ),
    )
    return VerificationReport("prop1", order, checks)


class BSeriesResult(NamedTuple):
    """b expressed through c^-1: the series -T^-1 log(1 - xT) with x = c^-1."""

    series: TruncSeries  # over Q[x^±1], supported on x^1, x^2, ...
    exp_check_ok: bool   # exp(series*T) * (1 - xT) == 1 to the reliable order


def b_series_from_c(order: int) -> BSeriesResult:
    ring = laurent_coeff_ring("x")
    x = LaurentPoly("x", {1: 1})
    one_minus_xt = TruncSeries.from_coeffs(ring, 0, [ring.one, -x], order=order + 1)
    b_hat = -(one_minus_xt.log().shifted(-1))
    b_hat = b_hat.truncated(order)
    exp_part = b_hat.shifted(1).exp()
    check = (exp_part * one_minus_xt).truncated(order).is_one_series()
    return BSeriesResult(series=b_hat, exp_check_ok=check)


class CSeriesResult(NamedTuple):
    """c expressed through b: the reciprocal of (1 - e^(-bT))/T, with the sign
    of the matching Bernoulli form b^-1 B(-bT)."""

    c_hat: TruncSeries       # over Q[b^±1]; starts at b^-1
    c_hat_inv: TruncSeries   # over Q[b^±1], supported on b^1, b^2, ...
    mismatch: tuple[int, int]  # first T^n where c_hat and +/- b^-1 B(-bT) differ, else order + 1
    round_trip_ok: bool      # -T^-1 log(1 - c_hat_inv T) == b

    def sign_through(self, n: int) -> int | None:
        """The unique sign s with c_hat = s * b^-1 * B(-bT) through T^n, else None."""
        matches = [s for s, first in zip((1, -1), self.mismatch) if first > n]
        return matches[0] if len(matches) == 1 else None

    @property
    def matching_sign(self) -> int | None:
        return self.sign_through(self.c_hat.order)


def c_series_from_b(order: int) -> CSeriesResult:
    ring = laurent_coeff_ring("b")
    b = LaurentPoly("b", {1: 1})

    minus_bt = TruncSeries.from_coeffs(ring, 1, [-b], order=order + 1)
    c_hat_inv = (TruncSeries.one(ring, order + 1) - minus_bt.exp()).shifted(-1)
    c_hat_inv = c_hat_inv.truncated(order)
    c_hat = c_hat_inv.inverse()

    # Bernoulli form: s * b^-1 * B(-bT); B(D) = sum (B_n/n!) D^n, so the T^n
    # coefficient is s * (-1)^n (B_n/n!) b^(n-1)
    bern = bernoulli_minus(order)
    form = [LaurentPoly("b", {n - 1: bern.coeff(n) * (-1) ** n}) for n in range(order + 1)]
    mismatch = tuple(next((n for n, f in enumerate(form) if c_hat.coeff(n) != f * s), order + 1)
                     for s in (1, -1))

    inner = TruncSeries.one(ring, order + 1) - c_hat_inv.shifted(1)
    round_trip = -(inner.log().shifted(-1))
    expected_b = TruncSeries.from_coeffs(ring, 0, [b], order=order)
    round_trip_ok = round_trip.agrees_with(expected_b, through=order)

    return CSeriesResult(
        c_hat=c_hat, c_hat_inv=c_hat_inv, mismatch=mismatch, round_trip_ok=round_trip_ok
    )


def verify_corollary(order: int) -> VerificationReport:
    """The change of generators b <-> c as two series identities plus the sign
    finding for the Bernoulli closed form; the sign at each order n is read
    from the prefix through T^n of the series computed once, at `order`."""
    if order < 1:
        raise DomainError("order must be at least 1")
    bres = b_series_from_c(order)
    cres = c_series_from_b(order)
    signs = [cres.sign_through(n) for n in range(4, order + 1)]
    stable = all(s == cres.matching_sign for s in signs)
    checks = (
        Check(
            "exp(b-series) inverts (1 - xT)",
            None if bres.exp_check_ok else "multiply-back is not 1",
        ),
        Check(
            "c-hat round trip recovers b",
            None if cres.round_trip_ok else "-T^-1 log(1 - c_hat_inv T) != b",
        ),
        Check(
            "unique Bernoulli-form sign",
            "no unique sign matched" if cres.matching_sign is None else None,
            note=(
                f"c_hat = {cres.matching_sign:+d} * b^-1 * B(-bT) with B(D) = D/(e^D - 1)"
                if cres.matching_sign is not None
                else None
            ),
        ),
        Check(
            "sign stable across orders",
            None if stable else f"signs per order 4..{order}: {signs}",
        ),
    )
    return VerificationReport("corollary", order, checks)
