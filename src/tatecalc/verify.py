"""Seeded verification suites behind the `verify` CLI subcommand.

Each suite turns module-level identities into Check records; `all` aggregates
every suite.  Suites are deterministic in (order, seed): random elements come
from a fresh Random(seed) per suite, so a suite reports identically whether
run alone or inside `all`.

Orders with superlinear cost are capped per suite (the cap is recorded in the
report note); caps sit at or above every order the acceptance criteria pin.
prop2 runs at the requested order, so orders above PROP2_MAX_ORDER (256, a
few seconds) are refused with a typed error before any suite runs.  The CLI
refuses `report q-integrality` above Q_INTEGRALITY_MAX_ORDER (128) the same way.
"""

from __future__ import annotations

import random

from . import expansions, renorm, tate_h, tate_k
from .basis import DividedPowerElem
from .errors import TateCalcError
from .laurent import LaurentPoly
from .report import Check, VerificationReport
from .series import TruncSeries, ZZ
from .tate_k import TateKElem

SUITE_NAMES = (
    "prop1",
    "corollary",
    "prop2",
    "cartier",
    "rota-baxter",
    "exactness-h",
    "exactness-k",
    "expansions",
    "adams",
    "renorm",
    "all",
)


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


# -- individual suites ------------------------------------------------------------


def _suite_prop1(order: int, rng: random.Random, defect: int | None) -> list[Check]:
    return list(tate_h.verify_prop1(order, defect=defect).checks)


def _suite_corollary(order: int, rng: random.Random, defect: int | None) -> list[Check]:
    eff = min(max(order, 4), 32)
    rep = tate_h.verify_corollary(eff)
    checks = list(rep.checks)
    bern = [c for c in _bernoulli_checks(min(max(order, 4), 24))]
    return checks + bern


def _bernoulli_checks(order: int) -> list[Check]:
    from .series import bernoulli_minus

    s = bernoulli_minus(order)
    bad_odd = next(
        (n for n in range(3, order + 1, 2) if s.coeff(n) != 0), None
    )
    return [
        Check(
            "odd Bernoulli coefficients vanish beyond D^1",
            bad_odd is None,
            None if bad_odd is None else f"coefficient of D^{bad_odd} is {s.coeff(bad_odd)}",
        )
    ]


def _suite_prop2(order: int, rng: random.Random, defect: int | None) -> list[Check]:
    return list(tate_k.verify_prop2(order, defect=defect).checks)


def _suite_cartier(order: int, rng: random.Random, defect: int | None) -> list[Check]:
    n = max(1, min(order, 12))
    rep = tate_k.cartier_check(n, n)
    return list(rep.checks)


def _suite_rota_baxter(order: int, rng: random.Random, defect: int | None) -> list[Check]:
    window = (-8, 8)
    bad = None
    for i in range(200):
        x = rand_laurent(rng, "c", window)
        y = rand_laurent(rng, "c", window)
        if not tate_h.rota_baxter_defect(x, y).is_zero():
            bad = f"pair #{i}: x={x}, y={y}"
            break
    checks = [Check("weight -1 defect vanishes on 200 random pairs", bad is None, bad)]

    bad = None
    for i in range(50):
        x = rand_laurent(rng, "c", window)
        y = rand_laurent(rng, "c", window)
        p = tate_h.pi_minus
        if p(p(x)) != p(x) or p(x + y) != p(x) + p(y):
            bad = f"pair #{i}: x={x}, y={y}"
            break
    checks.append(Check("pi_minus is an idempotent linear projection", bad is None, bad))
    return checks


def _suite_exactness_h(order: int, rng: random.Random, defect: int | None) -> list[Check]:
    checks = []
    window = (-10, 10)
    bad = None
    for i in range(200):
        x = rand_laurent(rng, "c", window)
        has_neg = any(e < 0 for e in x.coeffs)
        if tate_h.boundary(x).is_zero() == has_neg:
            bad = f"element #{i}: {x}"
            break
    checks.append(
        Check("boundary kernel is exactly Z[c] (200 random elements)", bad is None, bad)
    )

    bad = None
    for i in range(100):
        x = rand_laurent(rng, "c", (0, 10))
        if not tate_h.boundary(x).is_zero():
            bad = f"element #{i}: {x}"
            break
    checks.append(Check("boundary vanishes on included Z[c]", bad is None, bad))

    bad = None
    for i in range(17):
        for j in range(17):
            got = tate_h.kronecker_pair(
                LaurentPoly("c", {i: 1}), DividedPowerElem.basis(j)
            )
            if got != (1 if i == j else 0):
                bad = f"(c^{i}, b_{j}) = {got}"
                break
        if bad:
            break
    checks.append(Check("Kronecker pairing (c^i, b_j) = delta_ij for i,j <= 16", bad is None, bad))

    from math import factorial

    bad = None
    b1 = DividedPowerElem.basis(1)
    power = DividedPowerElem.one()
    for k in range(1, 13):
        power = power * b1
        if power != DividedPowerElem.basis(k) * factorial(k):
            bad = f"b_1^{k} != {k}! * b_{k}"
            break
    checks.append(Check("divided powers: b_1^k = k! b_k for k <= 12", bad is None, bad))
    return checks


def _suite_exactness_k(order: int, rng: random.Random, defect: int | None) -> list[Check]:
    checks = []
    bad = None
    for i in range(200):
        x = rand_tatek(rng)
        pf = tate_k.partial_fractions(x)
        if pf.reconstruct() != x:
            bad = f"element #{i}: {x}"
            break
        if any(not isinstance(a, int) for a in pf.pole_coeffs):
            bad = f"element #{i}: non-integer pole coefficients {pf.pole_coeffs}"
            break
    checks.append(
        Check("partial fractions reconstruct exactly, integer poles (200 random)", bad is None, bad)
    )

    bad = None
    for i in range(200):
        x = rand_tatek(rng)
        if tate_k.quotient_to_betas(x).is_zero() != (x.denom_pow == 0):
            bad = f"element #{i}: {x}"
            break
    checks.append(
        Check("quotient kernel is exactly Z[q^±1] (200 random elements)", bad is None, bad)
    )

    bad = None
    for i in range(100):
        x, y = rand_tatek(rng, max_pole=4), rand_tatek(rng, max_pole=4)
        if tate_k.quotient_to_betas(x + y) != tate_k.quotient_to_betas(x) + tate_k.quotient_to_betas(y):
            bad = f"pair #{i}: {x}, {y}"
            break
    checks.append(Check("quotient map is additive (100 random pairs)", bad is None, bad))
    return checks


def _suite_expansions(order: int, rng: random.Random, defect: int | None) -> list[Check]:
    checks = []
    n = min(max(order, 4), 24)
    for puncture in expansions.Puncture:
        bad = None
        for i in range(100):
            x = rand_tatek(rng, window=(-4, 4), max_pole=3)
            y = rand_tatek(rng, window=(-4, 4), max_pole=3)
            s = expansions.expand(x + y, puncture, n)
            if not s.agrees_with(
                expansions.expand(x, puncture, n) + expansions.expand(y, puncture, n)
            ):
                bad = f"additivity, pair #{i}"
                break
            p = expansions.expand(x * y, puncture, n)
            prod = expansions.expand(x, puncture, n + 8) * expansions.expand(y, puncture, n + 8)
            if not p.agrees_with(prod, through=min(n, prod.order)):
                bad = f"multiplicativity, pair #{i}"
                break
        checks.append(
            Check(
                f"expansion at {puncture.value} is a ring homomorphism (100 random pairs)",
                bad is None,
                bad,
            )
        )

    q = TateKElem(LaurentPoly("q", {1: 1}))
    qinv = TateKElem(LaurentPoly("q", {-1: 1}))
    one_minus_q = TateKElem(tate_k.ONE_MINUS_Q)
    pole = TateKElem(LaurentPoly.one("q"), 1)
    bad = None
    for puncture in expansions.Puncture:
        u1 = expansions.expand(q, puncture, n + 4) * expansions.expand(qinv, puncture, n + 4)
        u2 = expansions.expand(one_minus_q, puncture, n + 4) * expansions.expand(pole, puncture, n + 4)
        if not u1.truncated(n).is_one_series() or not u2.truncated(n).is_one_series():
            bad = f"puncture {puncture.value}"
            break
    checks.append(Check("phi(q)phi(q^-1) = phi(1-q)phi((1-q)^-1) = 1 at each puncture",
                        bad is None, bad))

    bad = None
    for i in range(50):
        x = rand_laurent(rng, "q", (-4, 4))
        s = expansions.expand_at_zero(TateKElem(x), n)
        ok = all(s.coeff(k) == x.coeff(k) for k in range(min(s.low, x.lo()), n + 1))
        if not ok:
            bad = f"element #{i}: {x}"
            break
    checks.append(Check("expansion at 0 embeds Z[q^±1] identically", bad is None, bad))

    sgn = expansions.expand_at_s(qinv, 4)
    positive_sum = TruncSeries.from_coeffs(ZZ, 1, [1, 1, 1, 1], "s")
    is_neg = sgn.agrees_with(-positive_sum)
    checks.append(
        Check(
            "q^-1 at the s-puncture is -(s + s^2 + ...)",
            is_neg,
            None if is_neg else f"got {sgn}",
            note=(
                "sign forced by the homomorphism axioms: (1 - s^-1)(-sum s^k) = 1; "
                "the positive sum sum_{k>=1} s^k expands q^-1 * (-1), not q^-1"
            ),
        )
    )
    return checks


def _suite_adams(order: int, rng: random.Random, defect: int | None) -> list[Check]:
    checks = []
    bad = None
    for i in range(100):
        k = rng.randint(1, 5)
        x = rand_laurent(rng, "q", (-6, 6))
        y = rand_laurent(rng, "q", (-6, 6))
        if tate_k.adams_on_laurent(k, x * y) != tate_k.adams_on_laurent(k, x) * tate_k.adams_on_laurent(k, y):
            bad = f"psi^{k} multiplicativity, pair #{i}"
            break
        if tate_k.adams_on_laurent(k, x + y) != tate_k.adams_on_laurent(k, x) + tate_k.adams_on_laurent(k, y):
            bad = f"psi^{k} additivity, pair #{i}"
            break
    checks.append(Check("psi^k is a ring homomorphism on Z[q^±1] (100 random pairs)", bad is None, bad))

    bad = None
    for k in range(1, 6):
        for l in range(1, 6):
            x = rand_laurent(rng, "q", (-5, 5))
            if tate_k.adams_on_laurent(k, tate_k.adams_on_laurent(l, x)) != tate_k.adams_on_laurent(k * l, x):
                bad = f"psi^{k} o psi^{l} != psi^{k*l} on {x}"
                break
        if bad:
            break
    checks.append(Check("psi^k o psi^l = psi^(kl) for k,l <= 5", bad is None, bad))

    n = min(max(order, 8), 16)
    bad = None
    for k in range(1, 5):
        for l in range(1, 5):
            base = expansions.expand_at_zero(rand_tatek(rng, window=(-3, 3), max_pole=2),
                                             n * k * l + 2)
            two_step = expansions.adams_on_series(k, expansions.adams_on_series(l, base, n * k), n)
            one_step = expansions.adams_on_series(k * l, base, n)
            if not two_step.agrees_with(one_step, through=n):
                bad = f"series psi^{k} o psi^{l} on a random expansion"
                break
        if bad:
            break
    checks.append(Check("psi composition law holds on expansion targets", bad is None, bad))
    return checks


def _suite_renorm(order: int, rng: random.Random, defect: int | None) -> list[Check]:
    eff = min(max(order, 4), 24)
    return list(renorm.verify_renorm(eff).checks)


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

_CAP_NOTES = {
    "corollary": "series orders capped at 32 (sign scan starts at 4)",
    "cartier": "bi-order capped at (12,12)",
    "expansions": "homomorphism checks capped at order 24",
    "adams": "series composition checks capped at order 16",
    "renorm": "order capped at 24",
}

# prop2 is the one suite without a cap: its checks are exact at the requested
# order.  It evaluates beta at order+2 integers, so its cost grows about as
# order^3.  `verify prop2` took 0.25 s at order 64, 0.5 s at 128, 1.3 s at 192
# and 2.7 s at 256 in a fresh process (CPython 3.11, 2-vCPU VM), so above 256
# `prop2` and `all` exit 2 instead of running for ever longer.
PROP2_MAX_ORDER = 256

# `report q-integrality` inverts the q^-1 series over Q[beta^±1], whose
# coefficients grow with the order, and converts every coefficient to the
# binomial basis.  It took 0.4 s at order 64, 3.5 s at 128 and 25 s at 200 in
# a fresh process (CPython 3.11, 2-vCPU VM), so above 128 it exits 2.
Q_INTEGRALITY_MAX_ORDER = 128


def run_suite(name: str, order: int, seed: int, defect: int | None = None) -> VerificationReport:
    if order < 1:
        raise TateCalcError("order must be at least 1")
    if name in ("prop2", "all") and order > PROP2_MAX_ORDER:
        raise TateCalcError(f"order {order} is above the prop2 bound {PROP2_MAX_ORDER}")
    if name == "all":
        checks: list[Check] = []
        notes: list[str] = []
        for sub in SUITE_NAMES[:-1]:
            rep = run_suite(sub, order, seed, defect=defect if sub == "prop1" else None)
            checks.extend(
                Check(f"{sub}/{c.identity}", c.passed, c.first_defect, c.note) for c in rep.checks
            )
            notes.extend(f"{sub}: {n}" for n in rep.notes)
        return VerificationReport("all", order, tuple(checks), seed, tuple(notes))
    if name not in _SUITES:
        raise TateCalcError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    rng = random.Random(seed)
    checks = _SUITES[name](order, rng, defect)
    notes = []
    if name in _CAP_NOTES:
        notes.append(_CAP_NOTES[name])
    return VerificationReport(name, order, tuple(checks), seed, tuple(notes))
