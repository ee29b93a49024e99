"""End-to-end CLI: example outputs, exit-code contract, JSON determinism,
fault injection."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tatecalc
from tatecalc import cli
from tatecalc.basis import DividedPowerElem
from tatecalc.cli import main
from tatecalc.evaluator import EvalError, _EvalSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_boundary(capsys):
    code, out, _ = run(capsys, "eval", "boundary(cinv^2)")
    assert code == 0
    assert out.strip() == "b_1"


def test_eval_geometric_series(capsys):
    code, out, _ = run(capsys, "eval", "geom(cinv)", "--order", "3")
    assert code == 0
    assert out.strip() == "1 + c^-1 T + c^-2 T^2 + c^-3 T^3"


def test_eval_adams(capsys):
    code, out, _ = run(capsys, "eval", "adams(2, q + q^-1)")
    assert code == 0
    assert out.strip() == "q^-2 + q^2"


def test_eval_unit_cancellation(capsys):
    code, out, _ = run(capsys, "eval", "(1-q)^-1 * (1-q)")
    assert code == 0
    assert out.strip() == "1"


def test_eval_ring_override(capsys):
    # in the H ring, exp is a typed error -> usage exit code
    code, _, err = run(capsys, "eval", "exp_bT()", "--ring", "tate_k")
    assert code == 2
    assert "error" in err


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "boundary(cinv^2)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ring"] == "tate_h"
    assert payload["text"] == "b_1"
    assert payload["value"]["kind"] == "divided-power"


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "exp(")
    assert code == 2
    assert "offset 4" in err


def test_unknown_symbol_exit_2(capsys):
    code, _, err = run(capsys, "eval", "zeta + 1")
    assert code == 2
    assert "unknown symbol" in err


@pytest.mark.parametrize("argv", [
    ["eval", "T/0"],
    ["eval", "c/0"],
    ["eval", "b/0"],
    ["eval", "c/(c-c)", "--ring", "tate_h"],
    ["eval", "b*T/(b-b)"],
], ids=["series", "laurent", "divided-power", "zero-polynomial", "zero-series"])
def test_division_by_zero_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: division by ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("expr,message", [
    ("b_1^-1", "divided-power elements have no negative powers"),
    ("beta_1^-1", "numerical polynomials have no negative powers"),
])
def test_basis_negative_power_exit_2(capsys, expr, message):
    code, out, err = run(capsys, "eval", expr)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("expr", [
    "+".join(["1"] * 3000),
    "*".join(["q"] * 3000),
    "(" * 400 + "1" + ")" * 400,
], ids=["long-sum", "long-product", "nested-parentheses"])
def test_deep_expression_exit_2(capsys, expr):
    code, out, err = run(capsys, "eval", expr)
    assert (code, out, err) == (2, "", "error: expression is nested too deeply\n")


TOO_LONG = "error: the result has an integer of more than 4300 digits, too long to print\n"


@pytest.mark.parametrize("argv,err", [
    (["eval", "b_1^3000"], TOO_LONG),  # 3000! b_3000
    (["eval", "beta_20000*beta_20000"], TOO_LONG),
    (["eval", "b_1^3000", "--json"], TOO_LONG),
    (["eval", "7" * 5000],
     "error: integer of 5000 digits is over the limit of 4300 digits at offset 0\n"),
    (["eval", "b_" + "1" * 5000],
     "error: integer of 5000 digits is over the limit of 4300 digits at offset 2\n"),
    (["eval", "q^-" + "9" * 4301],
     "error: integer of 4301 digits is over the limit of 4300 digits at offset 3\n"),
], ids=["b1-power", "beta-product", "b1-power-json", "literal", "index", "exponent"])
def test_integer_over_4300_digits_exit_2(capsys, argv, err):
    # CPython converts at most sys.get_int_max_str_digits() digits (4300 by
    # default) between str and int; the limit stays, and each input ends in
    # one typed error line instead of a traceback
    assert run(capsys, *argv) == (2, "", err)


def over_bound(noun, work):
    return (f"error: the product of {noun} would take about {work} digit operations, "
            "above the bound of 2e+09\n")


@pytest.mark.parametrize("expr,err", [
    ("beta_3000^3", over_bound("numerical polynomials", "4.9e+10")),
    ("beta_100000*beta_100000", over_bound("numerical polynomials", "7.7e+09")),
    ("b_200000*b_200000", over_bound("divided-power elements", "3.6e+09")),
], ids=["beta-cube", "beta-product", "b-product"])
def test_basis_product_over_the_work_bound_exit_2(capsys, expr, err):
    # refused from the estimate, before the product is computed
    assert run(capsys, "eval", expr) == (2, "", err)


def test_value_error_while_computing_is_not_masked(capsys, monkeypatch):
    def fail(*args):
        raise ValueError("integer string conversion inside the engine")

    monkeypatch.setattr(cli, "evaluate", fail)
    with pytest.raises(ValueError):
        main(["eval", "1"])


def test_non_ascii_digit_is_a_lex_error(capsys):
    code, out, err = run(capsys, "eval", "2\u00b2")
    assert (code, out, err) == (2, "", "error: unexpected character '\u00b2' at offset 1\n")


def test_long_sum_within_the_limit_evaluates(capsys):
    code, out, err = run(capsys, "eval", "+".join(["1"] * 200))
    assert (code, out, err) == (0, "200\n", "")


def test_usage_error_exit_2(capsys):
    assert main(["verify", "not-a-suite"]) == 2
    capsys.readouterr()


def test_verify_pass_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "prop1", "--order", "8", "--seed", "1")
    assert code == 0
    assert "pass" in out


def test_verify_defect_injection_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "prop1", "--order", "8", "--seed", "1", "--defect", "2")
    assert code == 1
    assert "T^2" in out


def test_verify_json_deterministic(capsys):
    args = ["verify", "exactness-h", "--order", "8", "--seed", "3", "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["suite"] == "exactness-h"
    assert payload["seed"] == 3
    assert payload["pass"] is True
    assert all(c["status"] == "pass" for c in payload["checks"])


def test_verify_seed_changes_are_still_green(capsys):
    code, _, _ = run(capsys, "verify", "rota-baxter", "--order", "4", "--seed", "99")
    assert code == 0


@pytest.mark.parametrize("suite", ["prop2", "all"])
def test_verify_refuses_prop2_above_its_bound(capsys, suite):
    # refused before any suite runs, so this returns at once
    code, out, err = run(capsys, "verify", suite, "--order", "1000")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: order 1000 is above the prop2 bound 256"


@pytest.mark.parametrize("expr,text", [
    # an int minus an integer-basis element
    ("1 - b_1", "1 - b_1"),
    ("2 - beta_1", "2 - binom(beta,1)"),
    ("1 - boundary(cinv^3)", "1 - b_2"),
    ("1 - boundary(cinv)", "0"),
    # an int factor lifts through the series' own ring, here Z[beta_*]
    ("2*binomial_series()", "2 + 2*binom(beta,1) T + 2*binom(beta,2) T^2 + 2*binom(beta,3) T^3"),
    ("binomial_series()*2", "2 + 2*binom(beta,1) T + 2*binom(beta,2) T^2 + 2*binom(beta,3) T^3"),
    ("bernoulli(12)", "-691/2730"),
])
def test_eval_values_that_once_raised_type_errors(capsys, expr, text):
    assert run(capsys, "eval", expr, "--order", "3") == (0, text + "\n", "")


@pytest.mark.parametrize("expr,err", [
    # function results are final values in the Tate contexts
    ("(-exp_bT())", "cannot apply '-' to GradedTSeries in tate_h"),
    ("geom_cinv()^4", "cannot apply '^' to GradedTSeries and int in tate_h"),
    ("(-partial_fractions(4))", "cannot apply '-' to PartialFractionForm in tate_k"),
    ("partial_fractions(4)^-2", "cannot apply '^' to PartialFractionForm and int in tate_k"),
    ("(-expand(q, 0))", "cannot apply '-' to TruncSeries in tate_k"),
    ("exp_bT() + 1", "cannot apply '+' to GradedTSeries and int in tate_h"),
    # a non-int coefficient of a series over another ring
    ("binomial_series()*(1/2)", "cannot combine series over Z[beta_*] and QQ"),
    ("binomial_series()*beta", "cannot combine series over Z[beta_*] and QQ[beta]"),
    # refused before any work
    ("bernoulli(625)", "index 625 is above the bernoulli bound 512"),
    # a dense product over a billion exponents, about 8 GB
    ("(1+q^1000000000)*(1+q)", "a product over q^0..q^1000000001 spans more than 4194304 exponents"),
    ("adams(1000000000, 1+q)*q", "a product over q^1..q^1000000001 spans more than 4194304 exponents"),
    # an expansion a million terms below its order
    ("expand(adams(1000000, qinv), 0)", "the expansion would start at q^-1000000, below the bound q^-4096"),
])
def test_eval_typed_errors_where_type_errors_or_long_runs_were(capsys, expr, err):
    for extra in ((), ("--json",)):
        assert run(capsys, "eval", expr, *extra) == (2, "", f"error: {err}\n")


def test_eval_order_zero_drops_the_higher_given_terms(capsys):
    # 1 - q T is built with order 0 before inverting, so its T term is dropped
    code, out, err = run(capsys, "eval", "geom(q)", "--order", "0")
    assert (code, out.strip(), err) == (0, "1", "")
    code, out, err = run(capsys, "eval", "T", "--order", "0")
    assert (code, out) == (2, "")
    assert err.strip() == "error: order 0 below lowest exponent 1"


@pytest.mark.parametrize("expr", ["geom(T)", "geom(exp(T))"])
def test_a_series_where_a_coefficient_is_expected_names_the_operation(capsys, expr):
    for extra in ((), ("--json",)):
        assert run(capsys, "eval", expr, *extra) == (
            2, "", "error: geom needs a coefficient, not a series in T\n")


def test_scalar_multiplication_and_division_name_themselves_on_a_non_coefficient():
    ev = _EvalSeries(4, {"T"})
    t, b = ev.symbol("T"), DividedPowerElem.basis(1)
    for call, what in ((lambda: ev.binary("*", t, b), "scalar multiplication"),
                       (lambda: ev.binary("*", b, t), "scalar multiplication"),
                       (lambda: ev.div(t, b), "division")):
        with pytest.raises(EvalError) as info:
            call()
        assert str(info.value) == f"{what} needs a coefficient, not DividedPowerElem"


@pytest.mark.parametrize("expr,text", [
    ("1+T", "1"),
    ("exp(cinv*T)", "1"),
    ("(T+T^2)/T", "1"),
    ("log(1+T)", "0"),
])
def test_eval_order_zero_keeps_the_constant_term_of_an_expression_in_t(capsys, expr, text):
    # T needs order >= 1: the expression is built at order 1, then truncated
    assert run(capsys, "eval", expr, "--order", "0") == (0, text + "\n", "")
    code, out, err = run(capsys, "eval", expr, "--order", "0", "--json")
    payload = json.loads(out)
    assert (code, err, payload["order"], payload["value"]["order"]) == (0, "", 0, 0)


def test_closed_pipe_exits_1_without_traceback():
    # the JSON is far larger than a pipe's buffer, so writing it must meet the
    # closed reader whatever the timing
    src = Path(tatecalc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tatecalc.cli", "report", "q-integrality", "--order", "40", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err


def test_expand_text(capsys):
    code, out, _ = run(capsys, "expand", "(1-q)^-1", "--at", "0", "--order", "5")
    assert code == 0
    assert out.strip() == "1 + q + q^2 + q^3 + q^4 + q^5"


def test_expand_json_schema(capsys):
    code, out, _ = run(capsys, "expand", "qinv", "--at", "inf", "--order", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "puncture": "inf",
        "variable": "s",
        "low": 1,
        "order": 4,
        "coeffs": [-1, -1, -1, -1],
    }


def test_expand_at_one(capsys):
    code, out, _ = run(capsys, "expand", "q^-1", "--at", "1", "--order", "4")
    assert code == 0
    assert out.strip() == "1 + u + u^2 + u^3 + u^4"


def test_report_q_integrality(capsys):
    code, out, _ = run(capsys, "report", "q-integrality", "--order", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"] == "q-integrality"
    k1 = next(e for e in payload["entries"] if e["series"] == "beta*q" and e["k"] == 1)
    assert k1["polynomial"] is True and k1["integral"] is False


def test_report_q_integrality_rejects_negative_order(capsys):
    code, out, err = run(capsys, "report", "q-integrality", "--order", "-1")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: order must be non-negative"


def test_report_q_integrality_refuses_orders_above_its_bound(capsys):
    # refused before the q-series is built, so this returns at once
    code, out, err = run(capsys, "report", "q-integrality", "--order", "193")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: order 193 is above the q-integrality bound 192"
    assert run(capsys, "report", "q-integrality", "--order", "1000", "--json")[:2] == (2, "")


@pytest.mark.parametrize("elem,at,low", [
    ("q^-300000", "0", "q^-300000"),
    ("(1-q)^-5000", "1", "u^-5000"),
    ("q^16384", "inf", "s^-16384"),
])
def test_expand_refuses_a_start_far_below_t0(capsys, elem, at, low):
    # refused before any coefficient is computed: q^-300000 at 0 took 0.2 s and
    # 38 MB to print one term, q^16384 at infinity 1.3 s and 55 MB before the
    # 4300-digit print limit refused it
    for extra in ((), ("--json",)):
        assert run(capsys, "expand", elem, "--at", at, "--order", "0", *extra) == (
            2, "", f"error: the expansion would start at {low}, below the bound {low[0]}^-4096\n")


def test_report_signs(capsys):
    code, out, _ = run(capsys, "report", "corollary-sign", "--order", "8")
    assert code == 0
    assert "+1" in out
    code, out, _ = run(capsys, "report", "expansion-sign", "--order", "6")
    assert code == 0
    assert "-(s + s^2" in out


def test_verify_all_small_order(capsys):
    code, out, _ = run(capsys, "verify", "all", "--order", "4", "--seed", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    suites = {c["identity"].split("/")[0] for c in payload["checks"]}
    assert suites == {
        "prop1", "corollary", "prop2", "cartier", "rota-baxter",
        "exactness-h", "exactness-k", "expansions", "adams", "renorm",
    }


# -- one parser per process ----------------------------------------------------

SESSION = [
    ["eval", "boundary(cinv^2)", "--json"],
    ["eval", "boundary(cinv^2)"],
    ["verify", "prop1", "--order", "8", "--defect", "2"],
    ["verify", "prop1", "--order", "8"],  # no --defect left over from the call before
    ["verify", "nosuch"],  # an argparse usage error, exit 2
    ["eval", "geom(cinv)", "--order", "3"],
    ["expand", "(1-q)^-1", "--at", "0", "--order", "5"],
    ["report", "corollary-sign", "--order", "8"],
    ["eval", "exp("],
]


def test_one_session_answers_as_fresh_processes(capsys, monkeypatch):
    # the reused parser keeps no state from one call to the next: each answer,
    # usage errors included, is the one a fresh process gives
    src = Path(tatecalc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    fresh = []
    for argv in SESSION:
        proc = subprocess.run([sys.executable, "-m", "tatecalc.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 2, 0, 0, 0, 2]
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    for _ in range(2):
        assert [run(capsys, *argv) for argv in SESSION] == fresh


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []

    def spy():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", spy)
    try:
        for i in range(50):
            main(list(SESSION[i % len(SESSION)]))
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert build_parser() is not build_parser()  # the public function still builds anew
