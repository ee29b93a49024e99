"""Change-of-scale ratio series over Q[x,y], with x standing for c^-1 and y
for q^-1.

All three ratios are normalized so the constant term is 1: each log is scaled
by its own variable before dividing, which fixes the comparison ring as
Q[x,y][[T]].  The consistency identity then reads

    b_over_beta * beta_over_qinv = b_over_cinv

with no stray scale factors, and the diagonal y := x collapses b_over_beta to
T^-1 log(1+T).
"""

from __future__ import annotations

from fractions import Fraction

from .multipoly import MultiPoly
from .report import Check, VerificationReport
from .series import Ring, TruncSeries, poly_ring

GENS = ("x", "y")
RING = poly_ring(*GENS)
X = MultiPoly.var(GENS, "x")
Y = MultiPoly.var(GENS, "y")


def _log_one_minus(scale: MultiPoly, order: int) -> TruncSeries:
    """log(1 - scale*T), reliable through `order`, computed by the engine."""
    s = TruncSeries.from_coeffs(RING, 0, [RING.one, -scale], order=order)
    return s.log()


def _log_one_plus_t(order: int) -> TruncSeries:
    one_plus = TruncSeries.from_coeffs(RING, 0, [RING.one, RING.one], order=order)
    return one_plus.log()


def b_over_cinv(order: int) -> TruncSeries:
    """-log(1 - xT) / (xT); the T^k coefficient is x^k/(k+1)."""
    num = -_log_one_minus(X, order + 1)
    xt = TruncSeries.from_coeffs(RING, 1, [X], order=order + 1)
    return num.div_exact(xt)


def beta_over_qinv(order: int) -> TruncSeries:
    """-log(1 - yT) / (y log(1+T)) as an exact series quotient."""
    num = -_log_one_minus(Y, order + 1)
    den = _log_one_plus_t(order + 1).scalar_mul(Y)
    return num.div_exact(den)


def b_over_beta(order: int) -> TruncSeries:
    """T^-1 log(1+T) times the scale-normalized quotient of the two logs,

        (x^-1 log(1 - xT)) / (y^-1 log(1 - yT)),

    which is what makes the constant term 1 and keeps coefficients in Q[x,y]."""
    num = _log_one_minus(X, order + 1).div_exact(
        TruncSeries.constant(RING, X, order + 1)
    )
    den = _log_one_minus(Y, order + 1).div_exact(
        TruncSeries.constant(RING, Y, order + 1)
    )
    ratio = num.div_exact(den)
    prefactor = _log_one_plus_t(order + 1).shifted(-1).trimmed()
    return (prefactor * ratio).truncated(order)


def specialize_diagonal(s: TruncSeries, target: Ring | None = None) -> TruncSeries:
    """Substitute y := x, landing in Q[x]."""
    ring = target or poly_ring("x")
    return s.map_coeffs(lambda p: p.collapse("y", "x"), ring)


def t_inv_log_one_plus(order: int) -> TruncSeries:
    """T^-1 log(1+T) = 1 - T/2 + T^2/3 - ... over Q[x] (diagonal reference)."""
    ring = poly_ring("x")
    coeffs = [MultiPoly.const(("x",), Fraction((-1) ** k, k + 1)) for k in range(order + 1)]
    return TruncSeries(ring, 0, order, coeffs)


def verify_renorm(order: int) -> VerificationReport:
    """Division contracts by multiply-back, the diagonal collapse, and the
    three-ratio consistency identity."""
    bc = b_over_cinv(order)
    xt = TruncSeries.from_coeffs(RING, 1, [X], order=order + 1)
    bc_ok = (bc * xt).agrees_with(-_log_one_minus(X, order + 1))

    bq = beta_over_qinv(order)
    den = _log_one_plus_t(order + 1).scalar_mul(Y).trimmed()
    bq_ok = (bq * den).agrees_with(-_log_one_minus(Y, order + 1))

    bb = b_over_beta(order)
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
