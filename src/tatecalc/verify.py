"""Seeded verification suites behind the `verify` CLI subcommand.

Each suite turns module-level identities into Check records, one per
identity, holding the first defect its search found (a check passes when
there is none); `all` aggregates every suite.  Suites are deterministic in
(order, seed): random elements come from a fresh Random(seed) per suite, so a
suite reports identically whether run alone or inside `all`.

A process runs each suite once per (suite, effective order, seed, defect):
`run_suite` takes the checks from the bounded memo `_checks` (256 entries,
each a tuple of immutable `Check` records of a few hundred bytes), so a
long-lived caller of `cli.main` gets a repeated verdict without running the
suite again.  The key holds the order after the cap (`_CAPS`, below), which
is the only order a suite reads, so `verify cartier --order 14` reuses the
checks of `--order 12`; the report itself is built on every call and says
`order=14`.  An input refused, or a suite that raises, stores nothing.  `all`
fills the memo through the suites this process runs itself; the reports its
forked workers send back are not stored.

`all` spreads its suites over the CPUs the process may run on
(`os.sched_getaffinity`): it forks one worker per further CPU, up to one per
suite beyond the first, and this process and every worker pull suites from
one queue.  The queue holds the long suites first (`_PULL_ORDER`), so no
process starts a long suite while the others are nearly done.  A report
depends only on (suite, order, seed), the workers send back each report's
checks and notes as JSON, and `all` assembles the reports in suite order, so
its output cannot depend on which process ran which suite.
With one CPU allowed, no `os.fork`, or another thread alive, `all` runs its
suites one after another in this process.

A suite with superlinear cost runs at a capped order.  `_CAPS` holds each
such suite's floor, cap and report note, and `run_suite` alone applies them:
corollary runs at 4..32, cartier at bi-order up to (12,12), expansions at
4..24, adams' series composition at 8..16 and renorm at 4..24.  Each cap
sits at or above every order the acceptance criteria pin.  prop2 runs at the
requested order, so orders above PROP2_MAX_ORDER (256, a few seconds) are
refused with a typed error before any suite runs.  The CLI refuses `report
q-integrality` above Q_INTEGRALITY_MAX_ORDER (192) and `report corollary-sign`
above COROLLARY_SIGN_MAX_ORDER (512) the same way.
"""

from __future__ import annotations

import json
import os
import random
from functools import lru_cache, partial
from itertools import accumulate, repeat
from math import factorial
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from . import expansions, renorm, tate_h, tate_k
from .basis import DividedPowerElem
from .errors import DomainError, TateCalcError
from .laurent import LaurentPoly
from .report import Check, VerificationReport
from .series import TruncSeries, ZZ, bernoulli_minus
from .tate_k import TateKElem

_T = TypeVar("_T")

# -- random generators ---------------------------------------------------------


def _below(rng: random.Random, n: int) -> int:
    """A draw from range(n), n >= 1, by the rule `Random.randrange` applies:
    getrandbits(n.bit_length()) until the value is below n.  So
    `a + _below(rng, b - a + 1)` takes the same draws as `rng.randint(a, b)`."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def rand_laurent(rng: random.Random, var: str, window: tuple[int, int]) -> LaurentPoly:
    """1 to 5 terms, exponents in the closed `window`, coefficients in -9..9.

    The draws are `randint`'s (see `_below`), inlined: 5 term counts take 3
    bits, 19 coefficients 5, and the exponent span its own bit length."""
    bits = rng.getrandbits
    lo, span = window[0], window[1] - window[0] + 1
    k = span.bit_length()
    n = bits(3)
    while n >= 5:
        n = bits(3)
    coeffs = {}
    for _ in range(n + 1):
        e = bits(k)
        while e >= span:
            e = bits(k)
        c = bits(5)
        while c >= 19:
            c = bits(5)
        coeffs[lo + e] = c - 9
    return LaurentPoly._from_numerators(var, {e: c for e, c in coeffs.items() if c})


def rand_tatek(rng: random.Random, window: tuple[int, int] = (-6, 6),
               max_pole: int = 6) -> TateKElem:
    return TateKElem(rand_laurent(rng, "q", window), _below(rng, max_pole + 1))


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
        if tate_h.boundary(x).is_zero() == any(e < 0 for e in x.nums)
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
        # the pole test comes first: reconstructing from a non-integer pole raises
        pf = tate_k.partial_fractions(x)
        if any(not isinstance(a, int) for a in pf.pole_coeffs):
            return f"element #{i}: non-integer pole coefficients {pf.pole_coeffs}"
        if pf.reconstruct() != x:
            return f"element #{i}: {x}"
        return None

    def quotient_search(defects: Iterable[str | None]) -> str | None:
        """The first defect of a search through the quotient map, where the map
        raising (as on a non-integer pole, which it cannot take as a
        coordinate) is the defect, so that it cannot hide the checks above."""
        try:
            return _first_defect(defects)
        except DomainError as exc:
            return f"the quotient map raised: {exc}"

    fractions = _first_defect(
        partial_fraction_defect(i, x) for i, x in _draws(200, partial(rand_tatek, rng))
    )
    kernel = quotient_search(
        f"element #{i}: {x}" for i, x in _draws(200, partial(rand_tatek, rng))
        if quotient(x).is_zero() != (x.denom_pow == 0)
    )
    draw = partial(rand_tatek, rng, max_pole=4)
    additive = quotient_search(
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
        s = expansions.expand(TateKElem(x), expansions.Puncture.ZERO, order)
        return all(s.coeff(k) == x.coeff(k) for k in range(min(s.low, x.lo()), order + 1))

    embedding = _first_defect(
        f"element #{i}: {x}" for i, x in _draws(50, partial(rand_laurent, rng, "q", (-4, 4)))
        if not embeds(x)
    )
    checks.append(Check("expansion at 0 embeds Z[q^±1] identically", embedding))

    sgn = expansions.expand(qinv, expansions.Puncture.INFINITY, 4)
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
        k = 1 + _below(rng, 5)
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
        base = expansions.expand(rand_tatek(rng, window=(-3, 3), max_pole=2),
                                 expansions.Puncture.ZERO, order * k * l + 2)
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

# The order the fan-out of `all` queues its suites in: longest first (Graham's
# LPT rule, SIAM J. Appl. Math. 1969) down to exactness-k, then the rest in
# suite order, so that no process is left running a long suite after the
# others are done.  Median time of each suite inside the fan-out of a fresh
# `verify all --order 64` (CPython 3.11, 2-vCPU VM): expansions 60-70 ms,
# renorm 40-45, prop2 about 30, exactness-k 25-30, corollary and rota-baxter
# 8-12, adams 4-6, and 2-4 each for prop1, cartier and exactness-h.  Queued in
# suite order, expansions came eighth: the two processes' last suites ended a
# median 9-16 ms apart, against 1-5 ms in this order, and the fan-out took
# 5-12 ms longer.  This process usually pulls first, so it runs expansions
# and a worker runs renorm; with renorm here, its peak RSS rose by 0.8 MB.
_PULL_ORDER = ("expansions", "renorm", "prop2", "exactness-k",
               "prop1", "corollary", "cartier", "rota-baxter", "exactness-h", "adams")

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

# `report corollary-sign` inverts and takes the log of a series over Q[b^±1]
# whose T^n coefficient carries n! in its denominator, so its cost grows about
# as order^3: 0.46 s at order 256, 1.3 s at 384, 3.1 s at 512 and 6.3 s at 640
# in a fresh process (CPython 3.11, 2-vCPU VM), so above 512 it exits 2.
COROLLARY_SIGN_MAX_ORDER = 512


def _spare_cpus() -> int:
    """How many workers `all` forks: one per allowed CPU beyond this
    process's own, and fewer than there are suites.  Zero where fork or the
    affinity calls are missing, or where another thread is alive: a child
    forked then could inherit a lock that thread holds."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")):
        return 0
    try:
        if len(os.listdir("/proc/self/task")) > 1:
            return 0
    except OSError:
        return 0
    return min(len(os.sched_getaffinity(0)), len(_SUITES)) - 1


def _reports(order: int, seed: int, defect: int | None, workers: int) -> list[VerificationReport]:
    """Each suite's report at (order, seed), in `_SUITES` order, computed by
    this process and `workers` forked children.

    Every process pulls suite indices from one pipe, a byte each, long suites
    first (`_PULL_ORDER`), so the load balances itself, and is pinned to its
    own allowed CPU meanwhile.  A child sends each report's checks and notes
    back as one JSON line and ends with os._exit.  A suite that raised, or
    whose child died before reporting, is run again here afterwards in suite
    order, so it raises as in a loop."""
    names = list(_SUITES)

    def run(i: int) -> VerificationReport:
        return run_suite(names[i], order, seed, defect=defect if names[i] == "prop1" else None)

    if not workers:
        return [run(i) for i in range(len(names))]
    reports: list[VerificationReport | None] = [None] * len(names)
    mask = os.sched_getaffinity(0)
    cpus = sorted(mask)
    todo, feed = os.pipe()
    os.write(feed, bytes(names.index(name) for name in _PULL_ORDER))
    os.close(feed)
    children: list[tuple[int, int]] = []
    try:
        for k in range(1, workers + 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the processes forked take its share
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                try:
                    os.sched_setaffinity(0, {cpus[k % len(cpus)]})
                    with open(w, "w") as out:
                        while byte := os.read(todo, 1):
                            rep = run(byte[0])
                            out.write(json.dumps([byte[0], rep.checks, rep.notes]) + "\n")
                            out.flush()
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        os.sched_setaffinity(0, {cpus[0]})
        while byte := os.read(todo, 1):
            try:
                reports[byte[0]] = run(byte[0])
            except Exception:  # raised again below, once every child has reported
                break
        for _, r in children:
            with open(r, closefd=False) as results:
                for line in results:
                    if line.endswith("\n"):  # a child that died mid-line reported nothing
                        j, checks, notes = json.loads(line)
                        reports[j] = VerificationReport(
                            names[j], order, tuple(Check(*c) for c in checks), seed, tuple(notes))
    finally:
        os.close(todo)
        for pid, r in children:
            os.close(r)
            os.waitpid(pid, 0)
        os.sched_setaffinity(0, mask)
    return [run(i) if rep is None else rep for i, rep in enumerate(reports)]


def run_suite(name: str, order: int, seed: int, defect: int | None = None) -> VerificationReport:
    """The report of suite `name` at (order, seed); `defect` injects a bad
    coordinate at T^defect in prop1 or prop2 (prop1 within `all`).  Every
    input is checked before any suite runs.  `all` prefixes each suite's identities and notes with
    its name, in suite order, whichever process of its fan-out (`_reports`)
    ran the suite, so it prints what the suites run alone print.

    A suite's checks come from `_checks`, keyed by the order the suite runs
    at after its cap rather than the order asked for: that is all a suite
    reads, so orders that cap alike share one entry, and a suite that starts
    reading the order needs no change here.  The report, with the requested
    order and the cap's note, is built anew on every call."""
    if order < 1:
        raise TateCalcError("order must be at least 1")
    if name in ("prop2", "all") and order > PROP2_MAX_ORDER:
        raise TateCalcError(f"order {order} is above the prop2 bound {PROP2_MAX_ORDER}")
    if defect is not None and name not in ("prop1", "prop2", "all"):
        raise TateCalcError(f"a defect is injected only in prop1, prop2 and all, not {name}")
    if defect is not None and not 0 <= defect <= order:
        raise TateCalcError(f"defect index {defect} is outside 0..{order}")
    if name == "all":
        checks: list[Check] = []
        notes: list[str] = []
        for sub, rep in zip(_SUITES, _reports(order, seed, defect, _spare_cpus())):
            checks.extend(c._replace(identity=f"{sub}/{c.identity}") for c in rep.checks)
            notes.extend(f"{sub}: {n}" for n in rep.notes)
        return VerificationReport("all", order, tuple(checks), seed, tuple(notes))
    if name not in _SUITES:
        raise TateCalcError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    effective, notes = order, ()
    if name in _CAPS:
        floor, cap, note = _CAPS[name]
        effective, notes = min(max(order, floor), cap), (note,)
    return VerificationReport(name, order, _checks(name, effective, seed, defect), seed, notes)


@lru_cache(maxsize=256)
def _checks(name: str, order: int, seed: int, defect: int | None) -> tuple[Check, ...]:
    """The checks of suite `name` run at `order` (already capped), a fresh
    Random(seed) and `defect`, computed once per process: a suite is a pure
    function of these four, and its `Check` records are immutable, so every
    caller may share them.  A suite that raises stores nothing."""
    return tuple(_SUITES[name](order, random.Random(seed), defect))
