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
from .tate_k import TateKElem, _binomial_row


# An expansion is stored densely from its lowest exponent, and at infinity q^e
# brings every binomial C(e, i), i <= e: in a fresh process (CPython 3.11,
# 2-vCPU VM) `expand "q^4096" --at inf` took 0.5 s and printed 3.7 MB, q^8192
# took 1.8 s and `expand "q^-300000" --at 0 --order 0` 0.22 s and 38 MB to
# print t^-300000.  `verify all` and the benchmark's interactive stream start
# no expansion below t^-8, so one that would start below t^-MAX_DEPTH is
# refused with a DomainError before any coefficient is computed.
MAX_DEPTH = 4096

# The result is dense up to `order`, and each numerator term loops up to it:
# `expand "1 - q" --at 0` took 0.41 s and 38 MB at order 2^18 and 3.7 s and
# 358 MB at 4000000 on the same VM.  `verify all` and the interactive stream
# expand to order 32 at most, so an order above MAX_ORDER (2^18) is refused.
MAX_ORDER = 1 << 18


class Puncture(enum.Enum):
    ZERO = "0"
    ONE = "1"
    INFINITY = "inf"

    @property
    def variable(self) -> str:
        return {"0": "q", "1": "u", "inf": "s"}[self.value]


def expand(x: TateKElem, puncture: Puncture, order: int) -> TruncSeries:
    """Apply the puncture's expansion homomorphism, exact through `order`.

    Sums the closed forms of the module docstring term by term into one dense
    list, each row of binomial coefficients by the running ratio started at
    c_e.  The result starts at its first nonzero coefficient (the zero series
    starts at 0).  One that would start below t^-MAX_DEPTH, or run above order
    MAX_ORDER, is refused.
    """
    if order < 0:
        raise DomainError("order must be non-negative")
    if order > MAX_ORDER:
        raise DomainError(f"order {order} is above the expansion bound {MAX_ORDER}")
    k = x.denom_pow
    # each term below starts at t^a, a >= the least a over the numerator
    if puncture is Puncture.ZERO:
        low = min(0, x.num.lo())
    elif puncture is Puncture.ONE:
        low = min(0, -k)
    else:
        low = min(0, k - x.num.hi())
    if low < -MAX_DEPTH:
        raise DomainError(
            f"the expansion would start at {puncture.variable}^{low}, "
            f"below the bound {puncture.variable}^-{MAX_DEPTH}"
        )
    coeffs = [0] * (order - low + 1)
    for e, c in x.num.nums.items():
        # c q^e (1-q)^-k = c t^a (1-t)^b, with c negated at infinity for odd e
        if puncture is Puncture.ZERO:
            a, b = e, -k
        elif puncture is Puncture.ONE:
            a, b = -k, e
        else:
            a, b, c = k - e, e, -c if e % 2 else c
        # the row (-1)^i C(b, i) for i <= order - a, scaled by c
        for i, v in enumerate(_binomial_row(b, order - a + 1, c), a - low):
            coeffs[i] += v
    return TruncSeries(ZZ, low, order, coeffs, puncture.variable).trimmed()


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
