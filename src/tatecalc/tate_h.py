"""The H-side Tate ring of the circle: Z[c,c^-1], its splitting, and the
boundary operator to divided powers.

The split exact sequence 0 -> Z[c] -> Z[c,c^-1] -> c^-1 Z[c^-1] -> 0 is
realized by the projection pi_minus onto strictly negative powers of c; the
boundary sends c^-k to b_{k-1} and kills Z[c].  The degree bookkeeping
(deg c = 2, deg T = 2, deg b_k = -2k) makes a degree-0 series carry exactly
one integer coordinate per power of T; Proposition 1 is checked on these
coordinates, read by `series.monomial_coords`, and GradedTSeries prints them.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple

from .basis import DividedPowerElem
from .errors import DomainError
from .laurent import LaurentPoly, render_terms, var_power
from .report import Check, VerificationReport
from .series import (
    TruncSeries, bernoulli_minus, geometric_series, laurent_coeff_ring, monomial_coords,
)


def _check(x: LaurentPoly) -> None:
    if x.var != "c":
        raise DomainError(f"expected a Laurent polynomial in c, got variable {x.var!r}")
    if not x.is_integral():
        raise DomainError(f"{x} has non-integer coefficients; the Tate ring is over Z")


def pi_minus(x: LaurentPoly) -> LaurentPoly:
    """Projection onto the split image c^-1 Z[c^-1] (strictly negative exponents)."""
    _check(x)
    return LaurentPoly._from_numerators("c", {e: v for e, v in x.nums.items() if e < 0})


def boundary(x: LaurentPoly) -> DividedPowerElem:
    """The boundary c^-k -> b_{k-1} (k >= 1); Z[c] is the kernel."""
    _check(x)
    out: dict[int, int] = {}
    for e, v in x.nums.items():
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
    for e, v in x.nums.items():
        total += v * y.coord(e)
    return total


class Grading(enum.Enum):
    """Which graded module a degree-0 T-series lives in."""

    TATE_H = "TateH"   # T^k coordinate scales c^-k
    HOM_H = "HomH"     # T^k coordinate scales b_k (b_-1 := 0)

    def label(self, k: int) -> str:
        """The basis element of degree 0 with T^k: b_k or c^-k."""
        return f"b_{k}" if self is Grading.HOM_H else f"c^{-k}"


class GradedTSeries(NamedTuple):
    """A degree-0 series as `eval` prints it: one integer per power of T,
    scaling the basis element `tag.label(k)` of the matching degree."""

    tag: Grading
    low: int
    coords: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.low + len(self.coords) - 1

    def __str__(self) -> str:
        """Each nonzero coordinate times its basis label and power of T."""
        def mono(k: int) -> str:
            if k == 0:
                return ""
            return f"{self.tag.label(k)} {var_power('T', k)}"

        return render_terms([(k, v) for k, v in enumerate(self.coords, self.low) if v], mono)

    def to_json(self) -> dict:
        return {
            "module": self.tag.value,
            "low": self.low,
            "order": self.order,
            "coords": list(self.coords),
        }


def _exp_bT_coords(order: int) -> list[int | None]:
    """The b_k coordinate of exp(bT), k! times its b^k coefficient, for T^0..T^order."""
    ring = laurent_coeff_ring("b")
    bT = TruncSeries.from_coeffs(ring, 0, [ring.zero, LaurentPoly("b", {1: 1})], order=order)
    return monomial_coords(bT.exp(), 1, divided=True)


def _geom_cinv_coords(order: int) -> list[int | None]:
    """The c^-k coordinate of (1 - c^-1 T)^-1 for T^0..T^order."""
    ring = laurent_coeff_ring("c", integral=True)
    return monomial_coords(geometric_series(ring, LaurentPoly("c", {-1: 1}), order), -1)


def _not_a_multiple(tag: Grading, k: int) -> str:
    return f"T^{k}: coefficient is not an integer multiple of {tag.label(k)}"


def _graded(tag: Grading, coords: list[int | None]) -> GradedTSeries:
    bad = next((k for k, v in enumerate(coords) if v is None), None)
    if bad is not None:
        raise DomainError(_not_a_multiple(tag, bad))
    return GradedTSeries(tag, 0, tuple(coords))


def exp_bT(order: int) -> GradedTSeries:
    """exp(bT) as a homology-side graded series; coordinates are all ones."""
    return _graded(Grading.HOM_H, _exp_bT_coords(order))


def geom_cinv(order: int) -> GradedTSeries:
    """(1 - c^-1 T)^-1 as a Tate-side graded series; coordinates are all ones."""
    return _graded(Grading.TATE_H, _geom_cinv_coords(order))


def verify_prop1(order: int, defect: int | None = None) -> VerificationReport:
    """Mechanical check that exp(bT) and (1 - c^-1 T)^-1 agree in the Tate ring.

    Reproduces the three steps on the coordinates of both series, b_k read as
    c^-k: the difference epsilon has all-zero coordinates; the termwise
    boundary of both series is sum b_{k-1} T^k; and a boundary-kernel series
    supported in positive T-degrees vanishes.  A coefficient that is not an
    integer multiple of its basis element is the first defect of each check
    that reaches its power of T.  The optional `defect` injects a bad
    coordinate at T^defect into epsilon for fault testing.
    """
    if order < 1:
        raise DomainError("order must be at least 1")
    b, c = _exp_bT_coords(order), _geom_cinv_coords(order)

    def first_defect(start: int, found: Callable[[int, int], str | None]) -> str | None:
        """The first defect at T^start..T^order; `found(k, epsilon_k)` names one."""
        for k in range(start, order + 1):
            if b[k] is None:
                return _not_a_multiple(Grading.HOM_H, k)
            if c[k] is None:
                return _not_a_multiple(Grading.TATE_H, k)
            defect_k = found(k, b[k] - c[k] + (k == defect))
            if defect_k is not None:
                return defect_k
        return None

    def boundary_defect(k: int, eps: int) -> str | None:
        lhs, rhs = (boundary(LaurentPoly("c", {-k: v})) for v in (b[k], c[k]))
        expected = DividedPowerElem.basis(k - 1) if k else DividedPowerElem.zero()
        return None if lhs == rhs == expected else f"T^{k}: {lhs} vs {rhs}"

    checks = (
        Check(
            "epsilon-vanishes",
            first_defect(0, lambda k, eps: f"T^{k}: coordinate {eps} != 0" if eps else None),
        ),
        Check(
            "termwise-boundary-agrees",
            first_defect(0, boundary_defect),
            note="both boundaries equal sum_k b_(k-1) T^k",
        ),
        Check(
            "kernel-support-forces-zero",
            first_defect(1, lambda k, eps: f"T^{k}: nonzero coordinate {eps} with nonzero "
                                           f"boundary b_{k - 1}" if eps else None),
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
