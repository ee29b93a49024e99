"""Square-and-multiply, shared by every `__pow__` of the coefficient types and
the series engine."""

from __future__ import annotations


def power(base, n: int):
    """base**n for n >= 1 by square-and-multiply.

    The product starts from `base`, not from a one: no identity element is
    needed, and a Laurent-tailed series does not lose reliable order to a
    product with one.  Zero and negative exponents are each caller's rule.
    """
    result = None
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base
