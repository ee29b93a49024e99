"""Laurent-series expansions of Z[q^±1, (1-q)^-1] at the three punctures of
the projective line, plus Adams operations on the series targets.

Local coordinates: q at the origin, u = 1-q at one, s = (1-q)^-1 at infinity.
Each expansion is the ring homomorphism determined by the images of q, q^-1
and (1-q)^-1; at the s-puncture the image of q^-1 carries the sign forced by
(1 - s^-1) * (-sum_{k>=1} s^k) = 1.

In closed form, with q = 1-u at one and q = 1-s^-1 = -s^-1 (1-s) at infinity,
each numerator term of x = sum_e c_e q^e / (1-q)^k maps to a monomial times a
binomial series in the local coordinate t:

    at 0:   c_e q^e (1-q)^-k
    at 1:   c_e u^-k (1-u)^e
    at inf: c_e (-1)^e s^(k-e) (1-s)^e

with (1-t)^b = sum_i (-1)^i C(b, i) t^i for every integer b (the negative
binomials C(i-b-1, i) when b < 0).
"""

from __future__ import annotations

import enum

from .errors import DomainError, PrecisionError
from .series import TruncSeries, ZZ
from .tate_k import TateKElem


class Puncture(enum.Enum):
    ZERO = "0"
    ONE = "1"
    INFINITY = "inf"

    @property
    def variable(self) -> str:
        return {"0": "q", "1": "u", "inf": "s"}[self.value]


def expand(x: TateKElem, puncture: Puncture, order: int) -> TruncSeries:
    """Apply the puncture's expansion homomorphism, exact through `order`.

    Sums the closed forms of the module docstring term by term, the binomial
    coefficients by their running recurrence; the result starts at its first
    nonzero coefficient (the zero series starts at 0).
    """
    if order < 0:
        raise DomainError("order must be non-negative")
    k, out = x.denom_pow, {}
    for e, c in x.num.coeffs.items():
        # c q^e (1-q)^-k = c t^a (1-t)^b, with c negated at infinity for odd e
        if puncture is Puncture.ZERO:
            a, b = e, -k
        elif puncture is Puncture.ONE:
            a, b = -k, e
        else:
            a, b, c = k - e, e, -c if e % 2 else c
        for i in range(order - a + 1):
            out[a + i] = out.get(a + i, 0) + c  # c = c_e (-1)^i C(b, i)
            c = c * (i - b) // (i + 1)
    low = min([0, *out])
    coeffs = [out.get(n, 0) for n in range(low, order + 1)]
    return TruncSeries(ZZ, low, order, coeffs, puncture.variable).trimmed()


def expand_at_zero(x: TateKElem, order: int) -> TruncSeries:
    """q -> q, (1-q)^-1 -> sum q^k: the Laurent expansion at the origin."""
    return expand(x, Puncture.ZERO, order)


def expand_at_one(x: TateKElem, order: int) -> TruncSeries:
    """q -> 1-u, q^-1 -> sum u^k, (1-q)^-1 -> u^-1: expansion at q = 1."""
    return expand(x, Puncture.ONE, order)


def expand_at_s(x: TateKElem, order: int) -> TruncSeries:
    """(1-q)^-1 -> s, q -> 1 - s^-1, hence q^-1 -> -sum_{k>=1} s^k."""
    return expand(x, Puncture.INFINITY, order)


def adams_on_series(k: int, x: TruncSeries, order: int) -> TruncSeries:
    """Exponent dilation n -> k*n on an integer Laurent series.

    Reliable through `order` provided the input covers order//k; the dilated
    series is known up to k*(input order) + k - 1 since skipped slots vanish.
    """
    if k < 1:
        raise DomainError("Adams operations are indexed by positive integers")
    if x.ring.name != ZZ.name:
        raise DomainError("Adams dilation acts on integer Laurent series")
    natural = k * x.order + k - 1
    if natural < order:
        raise PrecisionError(
            f"input reliable to {x.order} only supports dilated order {natural}, need {order}"
        )
    low = k * x.low
    if low > order:
        return TruncSeries.zero(ZZ, order, x.var)
    coeffs = []
    for n in range(low, order + 1):
        coeffs.append(x.coeff(n // k) if n % k == 0 else 0)
    return TruncSeries(ZZ, low, order, coeffs, x.var)
