"""The verdict record, the order each verification suite runs at, and `all`
spread over forked workers."""

import functools
import os
import random
import threading

import pytest

from tatecalc import verify
from tatecalc.cli import main
from tatecalc.errors import DomainError, TateCalcError
from tatecalc.laurent import LaurentPoly
from tatecalc.report import Check, VerificationReport

# suite -> (floor, cap), as the report notes state them
CAPS = {"corollary": (4, 32), "cartier": (1, 12), "expansions": (4, 24), "adams": (8, 16),
        "renorm": (4, 24)}


def test_check_verdict_is_its_first_defect():
    assert Check("x", "d").passed is False
    assert Check("x").passed is True
    with pytest.raises(TypeError):
        Check("x", passed=True)


def test_every_capped_suite_is_in_the_table():
    assert {name: caps[:2] for name, caps in verify._CAPS.items()} == CAPS


def record_orders(monkeypatch, name):
    seen = []
    monkeypatch.setitem(verify._SUITES, name, lambda order, rng, defect: seen.append(order) or [])
    return seen


@pytest.mark.parametrize("name", sorted(CAPS))
def test_run_suite_hands_a_capped_suite_its_clamped_order(name, monkeypatch):
    seen = record_orders(monkeypatch, name)
    floor, cap = CAPS[name]
    for order in (1, cap, 256):
        report = verify.run_suite(name, order, seed=1)
        assert seen[-1] == min(max(order, floor), cap)
        assert report.order == order
        assert report.notes == (verify._CAPS[name][2],)


@pytest.mark.parametrize("name", sorted(set(verify._SUITES) - set(CAPS)))
def test_run_suite_hands_an_uncapped_suite_the_requested_order(name, monkeypatch):
    seen = record_orders(monkeypatch, name)
    for order in (1, 256):
        report = verify.run_suite(name, order, seed=1)
        assert seen[-1] == order
        assert report.notes == ()


def rand_laurent_by_randint(rng, var, window):
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        e = rng.randint(*window)
        coeffs[e] = rng.randint(-9, 9)
    return LaurentPoly(var, coeffs)


# every (variable, window) the suites draw from: rota-baxter, exactness-h (two),
# exactness-k and adams (rand_tatek's default), expansions, adams' composition
# and adams' series composition
SUITE_WINDOWS = [("c", (-8, 8)), ("c", (-10, 10)), ("c", (0, 10)), ("q", (-6, 6)),
                 ("q", (-4, 4)), ("q", (-5, 5)), ("q", (-3, 3))]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_draws_follow_the_randint_stream(seed):
    mine, ref = random.Random(seed), random.Random(seed)
    for var, window in SUITE_WINDOWS:
        for _ in range(40):
            got = verify.rand_laurent(mine, var, window)
            want = rand_laurent_by_randint(ref, var, window)
            assert (got.var, got.coeffs) == (want.var, want.coeffs)
            assert list(got.coeffs) == list(want.coeffs)
        assert mine.getstate() == ref.getstate()


# -- `all` across forked workers ---------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"),
                                reason="the fan-out needs fork and CPU affinity")


@pytest.fixture
def no_child_left():
    """After the test, no child is left to reap and the CPU mask is as before."""
    mask = os.sched_getaffinity(0)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.sched_getaffinity(0) == mask


def set_workers(monkeypatch, n):
    monkeypatch.setattr(verify, "_spare_cpus", lambda: n)


@functools.cache
def suites_run_alone(order, seed):
    """The `all` report assembled from each suite run alone, in suite order."""
    checks, notes = [], []
    for sub in verify._SUITES:
        rep = verify.run_suite(sub, order, seed)
        checks += [c._replace(identity=f"{sub}/{c.identity}") for c in rep.checks]
        notes += [f"{sub}: {n}" for n in rep.notes]
    return VerificationReport("all", order, tuple(checks), seed, tuple(notes))


def assert_same_report(got, want):
    assert got.checks == want.checks and got.notes == want.notes
    assert str(got) == str(want)
    assert got.to_json() == want.to_json()


@needs_fork
@pytest.mark.parametrize("workers", [0, 1, 3])
def test_all_equals_its_suites_run_alone(workers, monkeypatch, no_child_left):
    set_workers(monkeypatch, workers)
    for order in (8, 24):
        for seed in (1, 2, 3):
            assert_same_report(verify.run_suite("all", order, seed), suites_run_alone(order, seed))


def test_the_pull_order_lists_every_suite_exactly_once():
    assert sorted(verify._PULL_ORDER) == sorted(verify._SUITES)


@needs_fork
def test_the_fan_out_pulls_its_suites_in_the_pull_order(monkeypatch, no_child_left):
    # with the one fork failing, this process pulls the whole queue itself
    want = suites_run_alone(8, 1)
    pulled = []

    def logged(name, suite):
        def run(order, rng, defect):
            pulled.append(name)
            return suite(order, rng, defect)
        return run

    for name, suite in list(verify._SUITES.items()):
        monkeypatch.setitem(verify._SUITES, name, logged(name, suite))

    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    set_workers(monkeypatch, 1)
    assert_same_report(verify.run_suite("all", 8, 1), want)
    assert pulled == list(verify._PULL_ORDER)


@needs_fork
def test_all_forks_a_worker_per_spare_cpu_and_none_beside_a_thread(no_child_left):
    mask = os.sched_getaffinity(0)
    assert verify._spare_cpus() == min(len(mask), len(verify._SUITES)) - 1
    os.sched_setaffinity(0, {min(mask)})
    try:
        assert verify._spare_cpus() == 0
    finally:
        os.sched_setaffinity(0, mask)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert verify._spare_cpus() == 0
    finally:
        stop.set()
        thread.join()


def break_every_suite(monkeypatch, log):
    """Each suite raises a DomainError naming it, after logging its process id."""
    def broken(name):
        def suite(order, rng, defect):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise DomainError(f"{name} is broken")
        return suite
    for name in verify._SUITES:
        monkeypatch.setitem(verify._SUITES, name, broken(name))


@needs_fork
@pytest.mark.parametrize("workers", [1, 3])
def test_a_suite_raising_in_a_worker_raises_as_in_process(workers, monkeypatch, capsys,
                                                          tmp_path, no_child_left):
    log = tmp_path / "pids"
    break_every_suite(monkeypatch, log)
    set_workers(monkeypatch, 0)
    with pytest.raises(DomainError) as want:
        verify.run_suite("all", 8, 1)
    assert main(["verify", "all", "--order", "8"]) == 2
    want_err = capsys.readouterr().err
    assert want_err == "error: prop1 is broken\n"

    set_workers(monkeypatch, workers)
    log.unlink()
    with pytest.raises(DomainError) as got:
        verify.run_suite("all", 8, 1)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    assert {int(pid) for pid in log.read_text().split()} - {os.getpid()}  # a worker raised too
    assert main(["verify", "all", "--order", "8"]) == 2
    assert capsys.readouterr().err == want_err


@needs_fork
@pytest.mark.parametrize("lost", ["prop2", "renorm", None])
def test_a_worker_lost_before_reporting_leaves_the_report_whole(lost, monkeypatch, no_child_left):
    parent = os.getpid()

    def dies_in_a_worker(suite):
        def run(order, rng, defect):
            if os.getpid() != parent:
                os._exit(1)
            return suite(order, rng, defect)
        return run

    for name, suite in list(verify._SUITES.items()):
        if lost in (name, None):  # None: every worker dies at its first suite
            monkeypatch.setitem(verify._SUITES, name, dies_in_a_worker(suite))
    set_workers(monkeypatch, 3)
    assert_same_report(verify.run_suite("all", 24, 2), suites_run_alone(24, 2))


@needs_fork
def test_a_fork_that_fails_leaves_its_share_to_the_processes_forked(monkeypatch, no_child_left):
    fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(os.getpid())
        if len(forks) > 1:
            raise BlockingIOError("no process to spare")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    set_workers(monkeypatch, 3)
    assert_same_report(verify.run_suite("all", 24, 3), suites_run_alone(24, 3))
    assert len(forks) == 2


def test_run_suite_names_the_suites_for_an_unknown_one():
    with pytest.raises(TateCalcError, match="^unknown suite 'nosuch'; choose from prop1, .*, all$"):
        verify.run_suite("nosuch", 8, 1)


def test_no_worker_without_the_affinity_calls(monkeypatch):
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    assert verify._spare_cpus() == 0


def test_no_worker_when_the_thread_list_cannot_be_read(monkeypatch):
    def unreadable(path):
        raise PermissionError(path)

    monkeypatch.setattr(os, "listdir", unreadable)
    assert verify._spare_cpus() == 0
