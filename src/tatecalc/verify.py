"""Seeded verification suites behind the `verify` CLI subcommand.

Each suite turns module-level identities into Check records, one per
identity, holding the first defect its search found (a check passes when
there is none); `all` aggregates every suite.  Suites are deterministic in
(order, seed): random elements come from a fresh Random(seed) per suite, so a
suite reports identically whether run alone or inside `all`.

A suite with superlinear cost runs at a capped order.  `_CAPS` holds each
such suite's floor, cap and report note, and `run_suite` alone applies them:
corollary runs at 4..32, cartier at bi-order up to (12,12), expansions at
4..24, adams' series composition at 8..16 and renorm at 4..24.  Each cap
sits at or above every order the acceptance criteria pin.  prop2 runs at the
requested order, so orders above PROP2_MAX_ORDER (256, a few seconds) are
refused with a typed error before any suite runs.  The CLI refuses `report
q-integrality` above Q_INTEGRALITY_MAX_ORDER (192) the same way.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import accumulate, repeat
from math import factorial
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from . import expansions, renorm, tate_h, tate_k
from .basis import DividedPowerElem
from .errors import TateCalcError
from .laurent import LaurentPoly
from .report import Check, VerificationReport
from .series import TruncSeries, ZZ, bernoulli_minus
from .tate_k import TateKElem

_T = TypeVar("_T")

# -- random generators ---------------------------------------------------------


def rand_laurent(rng: random.Random, var: str, window: tuple[int, int],
                 max_terms: int = 5, coeff_bound: int = 9) -> LaurentPoly:
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        e = rng.randint(*window)
        coeffs[e] = rng.randint(-coeff_bound, coeff_bound)
    return LaurentPoly(var, coeffs)


def rand_tatek(rng: random.Random, window: tuple[int, int] = (-6, 6),
               max_pole: int = 6) -> TateKElem:
    return TateKElem(rand_laurent(rng, "q", window), rng.randint(0, max_pole))


# -- first-defect search ----------------------------------------------------------


def _first_defect(defects: Iterable[str | None]) -> str | None:
    """The first defect of a search, or None when every trial holds.

    `defects` gives one entry per trial, None where the trial holds, and is
    consumed lazily: the search stops at the first defect and draws no
    random element past it.
    """
    return next((d for d in defects if d is not None), None)


def _draws(n: int, draw: Callable[[], _T]) -> Iterator[tuple[int, _T]]:
    """(i, draw()) for i < n, each drawn only when the search asks for it."""
    return enumerate(draw() for _ in range(n))


# -- individual suites ------------------------------------------------------------


def _suite_prop1(order: int, rng: random.Random, defect: int | None) -> Sequence[Check]:
    return tate_h.verify_prop1(order, defect=defect).checks


def _suite_corollary(order: int, rng: random.Random, defect: int | None) -> Sequence[Check]:
    s = bernoulli_minus(order)
    odd = _first_defect(
        f"coefficient of D^{n} is {s.coeff(n)}" for n in range(3, order + 1, 2) if s.coeff(n) != 0
    )
    return [*tate_h.verify_corollary(order).checks,
            Check("odd Bernoulli coefficients vanish beyond D^1", odd)]


def _suite_prop2(order: int, rng: random.Random, defect: int | None) -> Sequence[Check]:
    return tate_k.verify_prop2(order, defect=defect).checks


def _suite_cartier(order: int, rng: random.Random, defect: int | None) -> Sequence[Check]:
    return tate_k.cartier_check(order, order).checks


def _suite_rota_baxter(order: int, rng: random.Random, defect: int | None) -> Sequence[Check]:
    draw = partial(rand_laurent, rng, "c", (-8, 8))
    p = tate_h.pi_minus
    weight = _first_defect(
        f"pair #{i}: x={x}, y={y}" for i, (x, y) in _draws(200, lambda: (draw(), draw()))
        if not tate_h.rota_baxter_defect(x, y).is_zero()
    )
    projection = _first_defect(
        f"pair #{i}: x={x}, y={y}" for i, (x, y) in _draws(50, lambda: (draw(), draw()))
        if p(p(x)) != p(x) or p(x + y) != p(x) + p(y)
    )
    return [Check("weight -1 defect vanishes on 200 random pairs", weight),
            Check("pi_minus is an idempotent linear projection", projection)]


def _suite_exactness_h(order: int, rng: random.Random, defect: int | None) -> Sequence[Check]:
    b = DividedPowerElem.basis
    kernel = _first_defect(
        f"element #{i}: {x}" for i, x in _draws(200, partial(rand_laurent, rng, "c", (-10, 10)))
        if tate_h.boundary(x).is_zero() == any(e < 0 for e in x.coeffs)
    )
    included = _first_defect(
        f"element #{i}: {x}" for i, x in _draws(100, partial(rand_laurent, rng, "c", (0, 10)))
        if not tate_h.boundary(x).is_zero()
    )
    pairings = ((i, j, tate_h.kronecker_pair(LaurentPoly("c", {i: 1}), b(j)))
                for i in range(17) for j in range(17))
    kronecker = _first_defect(
        f"(c^{i}, b_{j}) = {got}" for i, j, got in pairings if got != int(i == j)
    )
    powers = enumerate(accumulate(repeat(b(1), 12), mul), start=1)
    divided = _first_defect(
        f"b_1^{k} != {k}! * b_{k}" for k, power in powers if power != b(k) * factorial(k)
    )
    return [Check("boundary kernel is exactly Z[c] (200 random elements)", kernel),
            Check("boundary vanishes on included Z[c]", included),
            Check("Kronecker pairing (c^i, b_j) = delta_ij for i,j <= 16", kronecker),
            Check("divided powers: b_1^k = k! b_k for k <= 12", divided)]


def _suite_exactness_k(order: int, rng: random.Random, defect: int | None) -> Sequence[Check]:
    quotient = tate_k.quotient_to_betas

    def partial_fraction_defect(i: int, x: TateKElem) -> str | None:
        pf = tate_k.partial_fractions(x)
        if pf.reconstruct() != x:
            return f"element #{i}: {x}"
        if any(not isinstance(a, int) for a in pf.pole_coeffs):
            return f"element #{i}: non-integer pole coefficients {pf.pole_coeffs}"
        return None

    fractions = _first_defect(
        partial_fraction_defect(i, x) for i, x in _draws(200, partial(rand_tatek, rng))
    )
    kernel = _first_defect(
        f"element #{i}: {x}" for i, x in _draws(200, partial(rand_tatek, rng))
        if quotient(x).is_zero() != (x.denom_pow == 0)
    )
    draw = partial(rand_tatek, rng, max_pole=4)
    additive = _first_defect(
        f"pair #{i}: {x}, {y}" for i, (x, y) in _draws(100, lambda: (draw(), draw()))
        if quotient(x + y) != quotient(x) + quotient(y)
    )
    return [Check("partial fractions reconstruct exactly, integer poles (200 random)", fractions),
            Check("quotient kernel is exactly Z[q^±1] (200 random elements)", kernel),
            Check("quotient map is additive (100 random pairs)", additive)]


def _suite_expansions(order: int, rng: random.Random, defect: int | None) -> Sequence[Check]:
    expand = expansions.expand
    draw = partial(rand_tatek, rng, window=(-4, 4), max_pole=3)

    def homomorphism_defect(puncture: expansions.Puncture, i: int, x: TateKElem,
                            y: TateKElem) -> str | None:
        ex, ey = expand(x, puncture, order + 8), expand(y, puncture, order + 8)
        if not expand(x + y, puncture, order).agrees_with(ex + ey, through=order):
            return f"additivity, pair #{i}"
        prod = ex * ey
        if not expand(x * y, puncture, order).agrees_with(prod, through=min(order, prod.order)):
            return f"multiplicativity, pair #{i}"
        return None

    checks = [
        Check(
            f"expansion at {puncture.value} is a ring homomorphism (100 random pairs)",
            _first_defect(homomorphism_defect(puncture, i, x, y)
                          for i, (x, y) in _draws(100, lambda: (draw(), draw()))),
        )
        for puncture in expansions.Puncture
    ]

    def is_unit_pair(a: TateKElem, b: TateKElem, puncture: expansions.Puncture) -> bool:
        prod = expand(a, puncture, order + 4) * expand(b, puncture, order + 4)
        return prod.truncated(order).is_one_series()

    q = TateKElem(LaurentPoly("q", {1: 1}))
    qinv = TateKElem(LaurentPoly("q", {-1: 1}))
    one_minus_q = TateKElem(tate_k.ONE_MINUS_Q)
    pole = TateKElem(LaurentPoly.one("q"), 1)
    units = _first_defect(
        f"puncture {p.value}" for p in expansions.Puncture
        if not (is_unit_pair(q, qinv, p) and is_unit_pair(one_minus_q, pole, p))
    )
    checks.append(Check("phi(q)phi(q^-1) = phi(1-q)phi((1-q)^-1) = 1 at each puncture", units))

    def embeds(x: LaurentPoly) -> bool:
        s = expansions.expand_at_zero(TateKElem(x), order)
        return all(s.coeff(k) == x.coeff(k) for k in range(min(s.low, x.lo()), order + 1))

    embedding = _first_defect(
        f"element #{i}: {x}" for i, x in _draws(50, partial(rand_laurent, rng, "q", (-4, 4)))
        if not embeds(x)
    )
    checks.append(Check("expansion at 0 embeds Z[q^±1] identically", embedding))

    sgn = expansions.expand_at_s(qinv, 4)
    positive_sum = TruncSeries.from_coeffs(ZZ, 1, [1, 1, 1, 1], "s")
    checks.append(
        Check(
            "q^-1 at the s-puncture is -(s + s^2 + ...)",
            None if sgn.agrees_with(-positive_sum) else f"got {sgn}",
            note=(
                "sign forced by the homomorphism axioms: (1 - s^-1)(-sum s^k) = 1; "
                "the positive sum sum_{k>=1} s^k expands q^-1 * (-1), not q^-1"
            ),
        )
    )
    return checks


def _suite_adams(order: int, rng: random.Random, defect: int | None) -> Sequence[Check]:
    psi = tate_k.adams_on_laurent

    def homomorphism_defect(i: int) -> str | None:
        k = rng.randint(1, 5)
        x = rand_laurent(rng, "q", (-6, 6))
        y = rand_laurent(rng, "q", (-6, 6))
        if psi(k, x * y) != psi(k, x) * psi(k, y):
            return f"psi^{k} multiplicativity, pair #{i}"
        if psi(k, x + y) != psi(k, x) + psi(k, y):
            return f"psi^{k} additivity, pair #{i}"
        return None

    def composition_defect(k: int, l: int) -> str | None:
        x = rand_laurent(rng, "q", (-5, 5))
        if psi(k, psi(l, x)) == psi(k * l, x):
            return None
        return f"psi^{k} o psi^{l} != psi^{k*l} on {x}"

    def series_defect(k: int, l: int) -> str | None:
        base = expansions.expand_at_zero(rand_tatek(rng, window=(-3, 3), max_pole=2),
                                         order * k * l + 2)
        psi_l = expansions.adams_on_series(l, base, order * k)
        two_step = expansions.adams_on_series(k, psi_l, order)
        if two_step.agrees_with(expansions.adams_on_series(k * l, base, order), through=order):
            return None
        return f"series psi^{k} o psi^{l} on a random expansion"

    homomorphism = _first_defect(homomorphism_defect(i) for i in range(100))
    composition = _first_defect(composition_defect(k, l) for k in range(1, 6) for l in range(1, 6))
    series = _first_defect(series_defect(k, l) for k in range(1, 5) for l in range(1, 5))
    return [Check("psi^k is a ring homomorphism on Z[q^±1] (100 random pairs)", homomorphism),
            Check("psi^k o psi^l = psi^(kl) for k,l <= 5", composition),
            Check("psi composition law holds on expansion targets", series)]


def _suite_renorm(order: int, rng: random.Random, defect: int | None) -> Sequence[Check]:
    return renorm.verify_renorm(order).checks


_SUITES = {
    "prop1": _suite_prop1,
    "corollary": _suite_corollary,
    "prop2": _suite_prop2,
    "cartier": _suite_cartier,
    "rota-baxter": _suite_rota_baxter,
    "exactness-h": _suite_exactness_h,
    "exactness-k": _suite_exactness_k,
    "expansions": _suite_expansions,
    "adams": _suite_adams,
    "renorm": _suite_renorm,
}

SUITE_NAMES = (*_SUITES, "all")

# suite -> (floor, cap, note): run_suite hands a suite listed here the order
# min(max(order, floor), cap) and prints the note; every other suite gets the
# requested order.  Each cap sits at or above every order the acceptance
# criteria pin.
_CAPS = {
    "corollary": (4, 32, "series orders capped at 32 (sign scan starts at 4)"),
    "cartier": (1, 12, "bi-order capped at (12,12)"),
    "expansions": (4, 24, "homomorphism checks capped at order 24"),
    "adams": (8, 16, "series composition checks capped at order 16"),
    "renorm": (4, 24, "order capped at 24"),
}

# prop2 has superlinear cost but no row in `_CAPS`: its checks are exact at
# the requested order.  It evaluates beta at order+2 integers, so its cost grows about as
# order^3.  `verify prop2` took 0.25 s at order 64, 0.5 s at 128, 1.3 s at 192
# and 2.7 s at 256 in a fresh process (CPython 3.11, 2-vCPU VM), so above 256
# `prop2` and `all` exit 2 instead of running for ever longer.
PROP2_MAX_ORDER = 256

# `report q-integrality` builds the q-series in closed form (O(order^2)
# rationals whose size grows with the order), converts every beta*q
# coefficient to the binomial basis, and prints about 12 MB at order 192.  It
# took 0.5 s at order 128, 1.7 s at 192 and 2.5 s at 224 in a fresh process
# (CPython 3.11, 2-vCPU VM), so above 192 it exits 2.
Q_INTEGRALITY_MAX_ORDER = 192


def run_suite(name: str, order: int, seed: int, defect: int | None = None) -> VerificationReport:
    if order < 1:
        raise TateCalcError("order must be at least 1")
    if name in ("prop2", "all") and order > PROP2_MAX_ORDER:
        raise TateCalcError(f"order {order} is above the prop2 bound {PROP2_MAX_ORDER}")
    if name == "all":
        checks: list[Check] = []
        notes: list[str] = []
        for sub in _SUITES:
            rep = run_suite(sub, order, seed, defect=defect if sub == "prop1" else None)
            checks.extend(c._replace(identity=f"{sub}/{c.identity}") for c in rep.checks)
            notes.extend(f"{sub}: {n}" for n in rep.notes)
        return VerificationReport("all", order, tuple(checks), seed, tuple(notes))
    if name not in _SUITES:
        raise TateCalcError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    effective, notes = order, ()
    if name in _CAPS:
        floor, cap, note = _CAPS[name]
        effective, notes = min(max(order, floor), cap), (note,)
    checks = _SUITES[name](effective, random.Random(seed), defect)
    return VerificationReport(name, order, tuple(checks), seed, notes)
