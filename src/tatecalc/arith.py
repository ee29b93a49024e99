"""Generic arithmetic shared by the coefficient types and the series engine."""

from __future__ import annotations

from math import lcm


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


class DenseAccumulator:
    """A sum of products x*y of one-variable polynomials, fraction-free.

    The sum is one dense list of integer numerators over one common
    denominator.  `form(x)` gives x as ((exponent, integer numerator) pairs,
    nonzero and sorted by exponent, denominator); `build(key, lo, nums,
    den)`, with nums[i] the numerator at exponent lo + i, turns the sum back into an
    element, so each sum is normalised once, however many products went into
    it.  A product's denominator joins the common one by lcm only when it
    does not divide it already.
    """

    __slots__ = ("form", "build", "key", "lo", "nums", "den")

    def __init__(self, form, build, key):
        self.form = form
        self.build = build
        self.key = key
        self.lo = 0
        self.nums: list[int] = []
        self.den = 1

    def add(self, x, y) -> None:
        xs, dx = self.form(x)
        ys, dy = self.form(y)
        if not xs or not ys:
            return
        d = dx * dy
        den = self.den
        if den % d:
            common = lcm(den, d)
            scale = common // den
            self.nums = [c * scale for c in self.nums]
            self.den = den = common
        f = den // d
        lo = xs[0][0] + ys[0][0]
        size = xs[-1][0] + ys[-1][0] - lo + 1
        nums = self.nums
        if not nums:
            self.lo = lo
            nums = self.nums = [0] * size
        else:
            if lo < self.lo:
                nums[:0] = [0] * (self.lo - lo)
                self.lo = lo
            size += lo - self.lo
            if size > len(nums):
                nums.extend([0] * (size - len(nums)))
        if len(xs) > len(ys):
            xs, ys = ys, xs
        base = -self.lo
        for i, c in xs:
            c *= f
            i += base
            for j, v in ys:
                nums[i + j] += c * v

    def value(self):
        return self.build(self.key, self.lo, self.nums, self.den)
