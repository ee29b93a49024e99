"""End-to-end CLI: example outputs, exit-code contract, JSON determinism,
fault injection."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tatecalc
from tatecalc import basis, cli, evaluator, expansions, laurent, series, tate_k, verify
from tatecalc.basis import DividedPowerElem, NumericalPoly
from tatecalc.cli import main
from tatecalc.evaluator import EvalError, _EvalSeries
from tatecalc.parser import Num
from tatecalc.series import TruncSeries


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
    ["eval", "1/0"],
    ["eval", "beta/0"],
    ["eval", "b/(b-b)", "--ring", "series"],
], ids=["series", "laurent", "divided-power", "zero-polynomial", "zero-series", "scalar",
        "numerical", "zero-coefficient"])
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


def test_forty_rising_bernoulli_indices_cost_one_table_and_no_inversion(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("bernoulli(n) inverted a series")

    monkeypatch.setattr(TruncSeries, "inverse", refuse)
    results = []
    for indices in (range(473, 513), range(512, 472, -1)):
        monkeypatch.setattr(series, "_bernoulli", series._bernoulli[:2])  # as in a fresh process
        results.append(run(capsys, "eval", "+".join(f"bernoulli({n})" for n in indices)))
    assert results[0][0] == 0
    assert results[0] == results[1]


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


@pytest.mark.parametrize("argv,err", [
    (["corollary", "--defect", "3"], "a defect is injected only in prop1, prop2 and all, not corollary"),
    (["cartier", "--defect", "2"], "a defect is injected only in prop1, prop2 and all, not cartier"),
    (["prop2", "--order", "8", "--defect", "99"], "defect index 99 is outside 0..8"),
    (["prop1", "--order", "8", "--defect", "9"], "defect index 9 is outside 0..8"),
    (["all", "--order", "8", "--defect", "-1"], "defect index -1 is outside 0..8"),
])
def test_a_defect_no_suite_injects_exits_2(capsys, argv, err):
    for extra in ((), ("--json",)):
        assert run(capsys, "verify", *argv, *extra) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("suite,order,defect", [
    ("prop1", 8, 0), ("prop1", 8, 8), ("prop2", 8, 0), ("prop2", 8, 8), ("all", 8, 8),
    ("all", 64, 3),  # the benchmark's defect run
])
def test_a_defect_at_either_end_of_the_range_fails_its_suite(capsys, suite, order, defect):
    code, out, err = run(capsys, "verify", suite, "--order", str(order), "--defect", str(defect))
    assert (code, err) == (1, "")
    assert f"T^{defect}" in out


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


def test_verify_cartier_runs_at_bi_order_one(capsys):
    code, out, err = run(capsys, "verify", "cartier", "--order", "1", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["checks"][0]["note"] == "all bi-orders up to (1,1)"


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
    # each coefficient takes an int factor through its own *, here in Z[beta_*]
    ("2*binomial_series()", "2 + 2*binom(beta,1) T + 2*binom(beta,2) T^2 + 2*binom(beta,3) T^3"),
    ("binomial_series()*2", "2 + 2*binom(beta,1) T + 2*binom(beta,2) T^2 + 2*binom(beta,3) T^3"),
    ("bernoulli(12)", "-691/2730"),
    # a rational Laurent value is a LaurentPoly to the operator rule, and
    # divides by an int with no integrality to keep
    ("((2*c)^-1 + 1) * (c+1) + 1", "1/2*c^-1 + 5/2 + c"),
    ("((2*c)^-1 + 1)/3", "1/6*c^-1 + 1/3"),
])
def test_eval_values_that_once_raised_type_errors(capsys, expr, text):
    assert run(capsys, "eval", expr, "--order", "3") == (0, text + "\n", "")


@pytest.mark.parametrize("argv,text", [
    # tate_k: a pole prints as a factor, and division is by units
    (["q/(1-q)"], "q * (1-q)^-1"),
    (["1/q"], "q^-1"),
    (["q^2*(1-q)^-1 + 3"], "(3 - 3*q + q^2) * (1-q)^-1"),
    (["q^0"], "1"),
    (["beta"], "binom(beta,1)"),
    # a basis element over an int divides its coordinates, in either context
    (["(2*beta_3)/2"], "binom(beta,3)"),
    (["(2*b_3)/2"], "b_3"),
    # scalar powers
    (["2^3"], "8"),
    (["2^-3"], "1/8"),
    # tate_h: an int argument is lifted to Z[c,c^-1]
    (["pi_minus(c+cinv)"], "c^-1"),
    (["boundary(3)"], "0"),
    # series mode
    (["b^2*T", "--ring", "series"], "b^2 T"),
    (["2/T"], "2*T^-1"),
    (["(b*c)/c", "--ring", "series"], "b"),
    # an expression that starts with '-' follows '--', in each context
    (["--", "-c"], "-c"),
    (["--", "-T"], "-T"),
])
def test_eval_values(capsys, argv, text):
    assert run(capsys, "eval", *argv) == (0, text + "\n", "")


@pytest.mark.parametrize("argv,value", [
    (["1/2"], {"kind": "rational", "value": ["1", "2"]}),
    (["c+1"], {"kind": "laurent", "var": "c", "terms": [[0, "1", "1"], [1, "1", "1"]]}),
    (["b*c", "--ring", "series"], {"kind": "poly", "gens": ["b", "c"], "terms": [[[1, 1], "1", "1"]]}),
    (["(1-q)^-1"], {"kind": "tate-k", "num": [[0, "1", "1"]], "denomPow": 1}),
    (["q^2*(1-q)^-1 + 3"],
     {"kind": "tate-k", "num": [[0, "3", "1"], [1, "-3", "1"], [2, "1", "1"]], "denomPow": 1}),
], ids=["rational", "laurent", "poly", "tate-k", "tate-k-numerator"])
def test_eval_json_of_each_value_kind(capsys, argv, value):
    code, out, err = run(capsys, "eval", *argv, "--json")
    assert (code, err, json.loads(out)["value"]) == (0, "", value)


@pytest.mark.parametrize("expr,err", [
    # function results are final values in the Tate contexts
    ("(-exp_bT())", "cannot apply '-' to GradedTSeries in tate_h"),
    ("geom_cinv()^4", "cannot apply '^' to GradedTSeries and int in tate_h"),
    ("(-partial_fractions(4))", "cannot apply '-' to PartialFractionForm in tate_k"),
    ("partial_fractions(4)^-2", "cannot apply '^' to PartialFractionForm and int in tate_k"),
    ("(-expand(q, 0))", "cannot apply '-' to TruncSeries in tate_k"),
    ("exp_bT() + 1", "cannot apply '+' to GradedTSeries and int in tate_h"),
    ("((2*c)^-1 + 1) * (c+1) * exp_bT()",
     "cannot apply '*' to LaurentPoly and GradedTSeries in tate_h"),
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
    # a dense quotient by 1-q over four million exponents, 7.7 s and 912 MB
    ("(q^4000000 - 1)*(1-q)^-1",
     "the quotient by 1-q over q^0..q^3999999 spans more than 262144 exponents"),
])
def test_eval_typed_errors_where_type_errors_or_long_runs_were(capsys, expr, err):
    for extra in ((), ("--json",)):
        assert run(capsys, "eval", expr, *extra) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("argv,err", [
    (["eval", "0^-1"], "zero has no negative powers"),
    (["eval", "1/(q-q)"], "zero is not invertible"),
    (["eval", "c+q"], "expression mixes H-side (c, b) and K-side (q, beta) symbols; pass --ring"),
    (["eval", "boundary(b)"], "boundary expects an element of Z[c,c^-1]"),
    (["eval", "c/b"], "division in tate_h needs exact Laurent or integer divisors"),
    (["eval", "c/(c+2)"], "2 + c does not divide c"),
    (["eval", "(c^2+1)/(c+1)"], "1 + c does not divide 1 + c^2"),
    (["eval", "(3*b_2)/2"], "coordinate 3 of b_2 is not divisible by 2"),
    (["eval", "beta_2/2"], "coordinate 1 of binom(beta,2) is not divisible by 2"),
    (["eval", "beta/q"], "division in tate_k requires unit divisors"),
    (["eval", "quotient(c)", "--ring", "tate_h"],
     "function 'quotient' is not available in the tate_h ring"),
    (["eval", "q", "--ring", "tate_h"], "symbol 'q' is not available in the tate_h ring"),
    (["eval", "c", "--ring", "tate_k"], "symbol 'c' is not available in the tate_k ring"),
    (["eval", "boundary(c)", "--ring", "series"],
     "function 'boundary' is not available in series mode"),
    (["eval", "b_2", "--ring", "series"], "symbol 'b_2' is not available in series mode"),
    (["eval", "b^-1*T"], "polynomial generators have no negative powers in series mode"),
    (["eval", "adams(0, q)"], "adams expects a positive integer index"),
    (["eval", "adams(2, (1-q)^-1)"],
     "adams acts on Z[q^±1] here: psi^k((1-q)^-1) leaves the ring "
     "(use `expand` and apply adams on the series target)"),
    (["eval", "expand(q, 2)"],
     "expand puncture must be 0, 1, or a local coordinate q/u/s (s = infinity)"),
    (["eval", "bernoulli(-1)"], "bernoulli expects a non-negative integer index"),
    (["eval", "b/c", "--ring", "series"], "polynomial division leaves a remainder"),
    (["eval", "binomial_series()^-1"], "ring Z[beta_*] has no inverses"),
    (["eval", "binomial_series()/binomial_series()"], "ring Z[beta_*] has no exact division"),
    (["expand", "q", "--at", "0", "--order", "-1"], "order must be non-negative"),
    (["expand", "beta_2", "--at", "0"], "expand needs an element of Z[q^±1, (1-q)^-1]"),
    (["verify", "prop1", "--order", "0"], "order must be at least 1"),
])
def test_typed_errors_exit_2_with_one_line(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


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


def test_evaluator_guards_behind_the_cli():
    # argparse `choices`, the parser's node types and the value kinds each
    # evaluator path returns keep these out of the CLI's reach
    with pytest.raises(EvalError, match="unknown ring hint 'tate'"):
        evaluator.evaluate(Num(1), "tate")
    with pytest.raises(EvalError, match="cannot evaluate node 'q'"):
        evaluator.evaluate("q", "tate_k")
    with pytest.raises(EvalError, match="no JSON rendering for object"):
        evaluator.value_json(object())


def test_print_reraises_a_value_error_that_is_not_the_digit_limit():
    def render():
        raise ValueError("math domain error")

    with pytest.raises(ValueError, match="math domain error"):
        cli._print(render)


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


def fresh_cli(*argv):
    """`python -m tatecalc.cli *argv` in a new process, which ends by `entry`:
    its exit code, and its stdout and stderr read from pipes to EOF.  Its
    stdout is block-buffered, as for any reader of a pipe."""
    src = Path(tatecalc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-m", "tatecalc.cli", *argv],
                          capture_output=True, env=env, timeout=120)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def test_a_fresh_process_writes_all_that_main_prints(capsys):
    # the JSON runs to megabytes, so skipping finalization must not cut it short
    argv = ["report", "q-integrality", "--order", "128", "--json"]
    code, out, err = fresh_cli(*argv)
    assert (code, out, err) == run(capsys, *argv)
    assert code == 0 and len(out) > 2**20 and out.endswith("}\n")


@pytest.mark.parametrize("argv,want_code", [
    (["verify", "all", "--order", "8"], 0),
    (["verify", "all", "--order", "8", "--defect", "3"], 1),
    (["eval", "1 +"], 2),
    (["verify", "nosuch"], 2),
    (["--help"], 0),
], ids=["pass", "fail", "parse-error", "usage-error", "help"])
def test_entry_exits_with_the_code_and_output_of_main(capsys, monkeypatch, argv, want_code):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps usage and help to
    want = run(capsys, *argv)
    assert want[0] == want_code and fresh_cli(*argv) == want
    code, out, err = want
    if code == 2:
        assert out == "" and [line for line in err.splitlines() if "error:" in line] == [
            err.splitlines()[-1]]
    if argv == ["--help"]:
        assert out.startswith("usage: tatecalc ") and "{eval,verify,expand,report}" in out
        assert out.endswith("\n") and err == ""


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


@pytest.mark.parametrize("name", ["corollary-sign", "expansion-sign"])
def test_the_sign_reports_refuse_negative_orders_and_raise_low_ones_to_4(capsys, name):
    for extra in ((), ("--json",)):
        assert run(capsys, "report", name, "--order", "-5", *extra) == (
            2, "", "error: order must be non-negative\n")
    for order in ("0", "3"):
        code, out, err = run(capsys, "report", name, "--order", order, "--json")
        assert (code, err, json.loads(out)["order"]) == (0, "", 4)


def test_report_corollary_sign_refuses_orders_above_its_bound(capsys):
    # refused before the series is built, so this returns at once
    for extra in ((), ("--json",)):
        assert run(capsys, "report", "corollary-sign", "--order", "513", *extra) == (
            2, "", "error: order 513 is above the corollary-sign bound 512\n")


def test_a_report_with_an_integer_too_long_to_print_exit_2(capsys):
    # c_hat's T^n coefficient has about n! in its denominator: 697 digits at n = 330
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for extra in ((), ("--json",)):
            assert run(capsys, "report", "corollary-sign", "--order", "330", *extra) == (
                2, "", TOO_LONG.replace("4300", "640"))
    finally:
        sys.set_int_max_str_digits(limit)


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


def test_expand_refuses_an_order_above_its_bound(capsys):
    # refused before the loop: at order 4000000 this took 3.7 s and 358 MB to print 1 - q
    for extra in ((), ("--json",)):
        assert run(capsys, "expand", "1 - q", "--at", "0", "--order", "4000000", *extra) == (
            2, "", "error: order 4000000 is above the expansion bound 262144\n")


def test_eval_refuses_an_order_above_the_series_bound(capsys):
    # refused before any series is built: `1+T` at order 4000000 took 12-17 s
    # and 383 MB to print 1 + T
    for expr in ("1+T", "exp(b*T)*geom(cinv)", "exp_bT()", "c + 1"):
        for extra in ((), ("--json",)):
            assert run(capsys, "eval", expr, "--order", "513", *extra) == (
                2, "", "error: order 513 is above the series bound 512\n")
    # tate_k values carry no order, and expansions keep their own bound
    assert run(capsys, "expand", "1 - q", "--at", "0", "--order", "513")[:2] == (0, "1 - q\n")


def test_eval_bounds_a_series_order_by_its_number_of_generators(capsys):
    # in all eight generators order 16 took 12 s and 338 MB; the bound is 12
    expr = "exp(b*T+beta*T+c*T+cinv*T+q*T+qinv*T+u*T+s*T)"
    for extra in ((), ("--json",)):
        assert run(capsys, "eval", expr, "--order", "24", *extra) == (
            2, "", "error: order 24 is above the series bound 12 for 8 generators\n")
    assert run(capsys, "eval", "exp(b*T+c*T+q*T)", "--order", "91") == (
        2, "", "error: order 91 is above the series bound 90 for 3 generators\n")


@pytest.mark.parametrize("expr", ["exp(T)", "2*binomial_series()", "geom(cinv)", "boundary(c)"])
def test_eval_refuses_a_negative_order(capsys, expr):
    # refused as expand and the reports refuse it, not by a series' window
    # check ("order -1 below lowest exponent 1"), nor run at all as boundary(c) was
    for extra in ((), ("--json",)):
        assert run(capsys, "eval", expr, "--order", "-1", *extra) == (
            2, "", "error: order must be non-negative\n")
    # tate_k values carry no order, as for the upper bound
    assert run(capsys, "eval", "(1-q)^-1 * (1-q)", "--order", "-1") == (0, "1\n", "")


def test_eval_runs_at_the_series_bound(capsys, monkeypatch):
    monkeypatch.setattr(evaluator, "MAX_ORDER", 5)
    assert run(capsys, "eval", "geom(cinv)", "--order", "5")[0] == 0
    assert run(capsys, "eval", "exp_bT()", "--order", "5")[0] == 0
    assert run(capsys, "eval", "geom(cinv)", "--order", "6") == (
        2, "", "error: order 6 is above the series bound 5\n")
    assert run(capsys, "eval", "expand(qinv, 0)", "--order", "6")[0] == 0


def test_report_expansion_sign_json(capsys):
    code, out, err = run(capsys, "report", "expansion-sign", "--order", "4", "--json")
    payload = json.loads(out)
    assert (code, err, payload["report"], payload["order"]) == (0, "", "expansion-sign", 4)
    assert payload["qInvAtS"] == {"ring": "ZZ", "var": "s", "low": 1, "order": 4,
                                  "coeffs": [["-1", "1"]] * 4}


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


# -- every bound of the README's table ------------------------------------------

_BETA_20_SQUARED = NumericalPoly.basis(20)._work(NumericalPoly.basis(20))

# bound -> (where it is read, the value it is lowered to or None to keep it,
# an argv at the bound, an argv just above it).  A bound is lowered where
# input at the real one takes tenths of a second or more.  A key is the bound
# the case lowers, optionally followed by words naming the case.
BOUNDS = {
    "verify.PROP2_MAX_ORDER": (
        verify, 8, ["verify", "prop2", "--order", "8"], ["verify", "prop2", "--order", "9"]),
    # cli reads the two report bounds through its own import of them
    "verify.Q_INTEGRALITY_MAX_ORDER": (
        cli, 4, ["report", "q-integrality", "--order", "4"],
        ["report", "q-integrality", "--order", "5"]),
    "verify.COROLLARY_SIGN_MAX_ORDER": (
        cli, 8, ["report", "corollary-sign", "--order", "8"],
        ["report", "corollary-sign", "--order", "9"]),
    "evaluator.BERNOULLI_MAX_INDEX": (
        evaluator, 20, ["eval", "bernoulli(20)"], ["eval", "bernoulli(21)"]),
    "evaluator.MAX_ORDER": (
        evaluator, None, ["eval", "1+T", "--order", "512"], ["eval", "1+T", "--order", "513"]),
    # with MAX_ORDER 8, comb(order + 3, 3) <= comb(10, 2) = 45 up to order 4
    "evaluator.MAX_ORDER in three generators": (
        evaluator, 8, ["eval", "exp(b*T+c*T+q*T)", "--order", "4"],
        ["eval", "exp(b*T+c*T+q*T)", "--order", "5"]),
    "basis.BASIS_MAX_WORK": (
        basis, _BETA_20_SQUARED, ["eval", "beta_20*beta_20"], ["eval", "beta_20*beta_21"]),
    # a product over q^0..q^63 spans 64 exponents
    "laurent.MAX_SPAN": (
        laurent, 64, ["eval", "(1+q^62)*(1+q)"], ["eval", "(1+q^63)*(1+q)"]),
    "expansions.MAX_DEPTH": (
        expansions, None, ["expand", "q^-4096", "--at", "0", "--order", "0"],
        ["expand", "q^-4097", "--at", "0", "--order", "0"]),
    "expansions.MAX_ORDER": (
        expansions, 16, ["expand", "1 - q", "--at", "0", "--order", "16"],
        ["expand", "1 - q", "--at", "0", "--order", "17"]),
    # the quotient of q^64 - 1 by 1-q spans q^0..q^63, split over q^0..q^64
    "tate_k.MAX_SPLIT_SPAN": (
        tate_k, 64, ["eval", "(q^64 - 1)*(1-q)^-1"], ["eval", "(q^65 - 1)*(1-q)^-1"]),
}


@pytest.mark.parametrize("side", ["at", "above"])
@pytest.mark.parametrize("bound", list(BOUNDS))
def test_each_bound_runs_at_itself_and_refuses_just_above(capsys, monkeypatch, bound, side):
    module, lowered, at, above = BOUNDS[bound]
    if lowered is not None:
        monkeypatch.setattr(module, bound.split(".")[1].split()[0], lowered)
    if side == "at":
        code, _, err = run(capsys, *at)
        assert (code, err) == (0, "")
    else:
        code, out, err = run(capsys, *above)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


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


def test_a_session_of_well_formed_argv_builds_no_parser(capsys, monkeypatch):
    # every argv of SESSION but its usage error is read from the grammar table;
    # `eval "exp("` is well formed, and its parse error is the expression's
    session = [argv for argv in SESSION if argv != ["verify", "nosuch"]]
    assert len(session) == len(SESSION) - 1
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("a parser was built"))
    try:
        for argv in session:
            main(list(argv))
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
