"""Change-of-scale ratio series over Q[x,y], with x standing for c^-1 and y
for q^-1.

All three ratios are normalized so the constant term is 1: each log is scaled
by its own variable before dividing, which fixes the comparison ring as
Q[x,y][[T]].  The consistency identity then reads

    b_over_beta * beta_over_qinv = b_over_cinv

with no stray scale factors, and the diagonal y := x collapses b_over_beta to
T^-1 log(1+T).

The series run over Q[x^±1] by Kronecker substitution (von zur Gathen &
Gerhard, Modern Computer Algebra, ch. 8): at order n, y is x^K, K = n + 3.
x^i y^j -> x^(i+Kj) is a ring map into a domain, so it keeps exact quotients,
and it is injective on polynomials of x-degree below K.  Every coefficient
built at order n has x- and y-degree at most n + 2 < K, so each series is the
image of its Q[x,y] counterpart and every check has the same verdict.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import LaurentPoly
from .report import Check, VerificationReport
from .series import TruncSeries, laurent_coeff_ring

RING = laurent_coeff_ring("x")
X = LaurentPoly("x", {1: 1})


def _y(order: int) -> LaurentPoly:
    return LaurentPoly("x", {order + 3: 1})


def _log_one_minus(scale: LaurentPoly, order: int) -> TruncSeries:
    """log(1 - scale*T), reliable through `order`, computed by the engine."""
    s = TruncSeries.from_coeffs(RING, 0, [RING.one, -scale], order=order)
    return s.log()


def _log_one_plus_t(order: int) -> TruncSeries:
    one_plus = TruncSeries.from_coeffs(RING, 0, [RING.one, RING.one], order=order)
    return one_plus.log()


def _xt(order: int) -> TruncSeries:
    """The divisor xT, reliable through `order`."""
    return TruncSeries.from_coeffs(RING, 1, [X], order=order)


def _b_over_cinv(log_x: TruncSeries, xt: TruncSeries) -> TruncSeries:
    return (-log_x).div_exact(xt)


def _beta_over_qinv(log_y: TruncSeries, y_log_t: TruncSeries) -> TruncSeries:
    return (-log_y).div_exact(y_log_t)


def _b_over_beta(order: int, y: LaurentPoly, log_x: TruncSeries, log_y: TruncSeries,
                 log_t: TruncSeries) -> TruncSeries:
    num = log_x.div_exact(TruncSeries.constant(RING, X, order + 1))
    den = log_y.div_exact(TruncSeries.constant(RING, y, order + 1))
    prefactor = log_t.shifted(-1).trimmed()
    return (prefactor * num.div_exact(den)).truncated(order)


def b_over_cinv(order: int) -> TruncSeries:
    """-log(1 - xT) / (xT); the T^k coefficient is x^k/(k+1)."""
    return _b_over_cinv(_log_one_minus(X, order + 1), _xt(order + 1))


def beta_over_qinv(order: int) -> TruncSeries:
    """-log(1 - yT) / (y log(1+T)) as an exact series quotient."""
    y = _y(order)
    return _beta_over_qinv(_log_one_minus(y, order + 1),
                           _log_one_plus_t(order + 1).scalar_mul(y))


def b_over_beta(order: int) -> TruncSeries:
    """T^-1 log(1+T) times the scale-normalized quotient of the two logs,

        (x^-1 log(1 - xT)) / (y^-1 log(1 - yT)),

    which is what makes the constant term 1 and keeps coefficients in Q[x,y]."""
    y = _y(order)
    return _b_over_beta(order, y, _log_one_minus(X, order + 1),
                        _log_one_minus(y, order + 1), _log_one_plus_t(order + 1))


def specialize_diagonal(s: TruncSeries) -> TruncSeries:
    """Substitute y := x in a series built at order s.order, landing in Q[x]:
    x^(i+Kj) with 0 <= i < K = s.order + 3 decodes to x^(i+j).  Each
    coefficient is summed as integer numerators over its denominator and
    divided through by their gcd once."""
    k = s.order + 3

    def diagonal(p: LaurentPoly) -> LaurentPoly:
        nums: dict[int, int] = {}
        for e, v in p.nums.items():
            e = e % k + e // k
            nums[e] = nums.get(e, 0) + v
        return LaurentPoly._from_numerators("x", {e: n for e, n in nums.items() if n}, p.den)

    return s.map_coeffs(diagonal)


def t_inv_log_one_plus(order: int) -> TruncSeries:
    """T^-1 log(1+T) = 1 - T/2 + T^2/3 - ... over Q[x] (diagonal reference)."""
    coeffs = [LaurentPoly("x", {0: Fraction((-1) ** k, k + 1)}) for k in range(order + 1)]
    return TruncSeries(RING, 0, order, coeffs)


def verify_renorm(order: int) -> VerificationReport:
    """Division contracts by multiply-back, the diagonal collapse, and the
    three-ratio consistency identity."""
    y = _y(order)
    # each series and divisor is built once and shared by the ratios and checks
    log_x = _log_one_minus(X, order + 1)
    log_y = _log_one_minus(y, order + 1)
    log_t = _log_one_plus_t(order + 1)
    xt = _xt(order + 1)
    y_log_t = log_t.scalar_mul(y)

    bc = _b_over_cinv(log_x, xt)
    bc_ok = (bc * xt).agrees_with(-log_x)

    bq = _beta_over_qinv(log_y, y_log_t)
    bq_ok = (bq * y_log_t.trimmed()).agrees_with(-log_y)

    bb = _b_over_beta(order, y, log_x, log_y, log_t)
    diag_ok = specialize_diagonal(bb).agrees_with(t_inv_log_one_plus(order))
    checks = (
        Check("b/cinv multiply-back", None if bc_ok else "bc * xT != -log(1-xT)"),
        Check("beta/qinv multiply-back", None if bq_ok else "bq * (y log(1+T)) != -log(1-yT)"),
        Check(
            "diagonal y := x collapses to T^-1 log(1+T)",
            None if diag_ok else "diagonal specialization mismatch",
        ),
        Check(
            "b/beta * beta/qinv == b/cinv",
            None if (bb * bq).agrees_with(bc, through=order) else "three-ratio consistency fails",
            note="scale-normalized form; equivalent to the multiply-back identity",
        ),
        Check(
            "b/beta == b/cinv * (beta/qinv)^-1",
            None if (bc * bq.inverse()).agrees_with(bb, through=order) else "inverse form fails",
        ),
    )
    return VerificationReport("renorm", order, checks)
