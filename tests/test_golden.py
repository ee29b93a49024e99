"""Byte-exact CLI snapshots.

Each case runs the CLI in process, checks its exit code and compares stdout
with a file under `tests/golden/`.  The cases reach every series kernel
(multiply, inverse, exp, log, exact division) and every report, so a
refactor of the engine that changes any printed coefficient, order or verdict
fails here.
"""

import hashlib
from pathlib import Path

import pytest

from tatecalc.cli import main

GOLDEN = Path(__file__).parent / "golden"

# negative, zero and positive exponents over a triple pole
MIXED = "(q^-3 + 2*q^4 - 5)*(1-q)^-3"

CASES = [
    ("verify_all_o24.txt", ["verify", "all", "--order", "24", "--seed", "1"], 0),
    ("verify_all_o24.json", ["verify", "all", "--order", "24", "--seed", "1", "--json"], 0),
    ("verify_all_o64.json", ["verify", "all", "--order", "64", "--seed", "1", "--json"], 0),
    # every capped suite at its cap: corollary at 32, renorm at 24
    ("verify_all_o64_seed7.txt", ["verify", "all", "--order", "64", "--seed", "7"], 0),
    ("q_integrality_o16.txt", ["report", "q-integrality", "--order", "16"], 0),
    ("q_integrality_o16.json", ["report", "q-integrality", "--order", "16", "--json"], 0),
    ("corollary_sign_o12.json", ["report", "corollary-sign", "--order", "12", "--json"], 0),
    ("expansion_sign_o8.txt", ["report", "expansion-sign", "--order", "8"], 0),
    ("eval_exp_bT_geom.txt", ["eval", "exp(b*T)*geom(cinv)", "--order", "24"], 0),
    ("eval_log_poly.json", ["eval", "log(1+b*T+c*T^2)", "--order", "6", "--json"], 0),
    ("eval_laurent_div.txt", ["eval", "T^-2*exp(T)/(1+T)", "--order", "5"], 0),
    # one generator: series over a univariate MultiPoly
    ("eval_exp_cinvT.txt", ["eval", "exp(cinv*T)", "--order", "12"], 0),
    ("eval_log_qinvT.json", ["eval", "log(1+qinv*T)", "--order", "8", "--json"], 0),
    # the two integer bases: divided powers b_k and numerical polynomials binom(beta,k)
    ("eval_dp_product.txt", ["eval", "b_2*b_3 - 3*b_1"], 0),
    ("eval_numerical_product.json", ["eval", "beta_3*beta_5", "--json"], 0),
    ("eval_quotient_betas.txt", ["eval", "quotient((q^2 - 3)*(1-q)^-4)"], 0),
    ("eval_boundary_cube.json", ["eval", "boundary((cinv + 2*c)^3)", "--json"], 0),
    # graded series and partial fractions print through their own renderers
    ("eval_exp_bT_o6.txt", ["eval", "exp_bT()", "--order", "6"], 0),
    ("eval_geom_cinv_o6.txt", ["eval", "geom_cinv()", "--order", "6"], 0),
    ("eval_exp_bT_o6.json", ["eval", "exp_bT()", "--order", "6", "--json"], 0),
    ("eval_geom_cinv_o6.json", ["eval", "geom_cinv()", "--order", "6", "--json"], 0),
    ("eval_partial_fractions.txt", ["eval", "partial_fractions((q^-2 - 3*q + 5)*(1-q)^-3)"], 0),
    ("eval_partial_fractions.json",
     ["eval", "partial_fractions((q^-2 - 3*q + 5)*(1-q)^-3)", "--json"], 0),
    # one-term powers (q^-5, (1-q)^-7, (-2*c)^-3, c^5) and a 78-term integer sum
    ("eval_beta_product.txt", ["eval", "beta_77*beta_93"], 0),
    ("eval_unit_powers.txt", ["eval", "(3 - 8*q^-5 + q^2 + 9*q^6)*(1-q)^-7"], 0),
    ("eval_partial_fractions_powers.json",
     ["eval", "partial_fractions((3 - 8*q^-5 + q^2 + 9*q^6)*(1-q)^-7)", "--json"], 0),
    ("eval_c_powers.txt", ["eval", "(-2*c)^-3 + c^5"], 0),
    ("expand_pole2_at1.txt", ["expand", "(1-q)^-2", "--at", "1", "--order", "8"], 0),
    ("expand_qinv_atinf.json", ["expand", "q^-1", "--at", "inf", "--order", "6", "--json"], 0),
    ("expand_mixed_at0.txt", ["expand", MIXED, "--at", "0", "--order", "12"], 0),
    ("expand_mixed_at1.txt", ["expand", MIXED, "--at", "1", "--order", "12"], 0),
    ("expand_mixed_at1.json", ["expand", MIXED, "--at", "1", "--order", "12", "--json"], 0),
    ("expand_mixed_atinf.txt", ["expand", MIXED, "--at", "inf", "--order", "12"], 0),
    ("expand_mixed_atinf.json", ["expand", MIXED, "--at", "inf", "--order", "12", "--json"], 0),
    ("expand_q10_at0_o4.txt", ["expand", "q^10", "--at", "0", "--order", "4"], 0),
    ("expand_q10_at0_o4.json", ["expand", "q^10", "--at", "0", "--order", "4", "--json"], 0),
    # injected defects: a failing verdict is pinned byte for byte too, with exit 1
    ("verify_prop1_o8_defect2.txt", ["verify", "prop1", "--order", "8", "--defect", "2"], 1),
    ("verify_prop2_o8_defect3.json",
     ["verify", "prop2", "--order", "8", "--defect", "3", "--json"], 1),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[name for name, _, _ in CASES])
def test_cli_output_matches_golden(capsys, name, argv, code):
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(name for name, _, _ in CASES)


# sha256 of `report q-integrality` output too large to keep as a file (0.1 MB
# at order 40, 0.7-3.5 MB at orders 80 and 128), recorded from the q-series
# built as the inverse of the q^-1 series over Q[beta^±1], before the closed
# form replaced it; order 40 with --json is the benchmark's op
Q_INTEGRALITY_SHA256 = {
    ("40", False): "6fc11069bea51aed645b05497d6922a2f487a3172c7ae8d96bc4fdaecbe4eb5e",
    ("40", True): "d4c6d26098fc71e977f065d0adcff9f72aca4b802a15c01aa2c7921e2f498853",
    ("80", False): "61520b4367e303a3d2371a6095735339a2f8351e43b8a53d8ba096fc3546c625",
    ("80", True): "ff875fee77bad3aa0fa67161cd617def5ade726d43e15a4148dc0be31ff42857",
    ("128", False): "9add54e3697e1305e2b12ca13ebe366b0f67b49fa5659a49b9d83e9c3b174e90",
    ("128", True): "851169049d39e0d20a982707f723258a69ca70e7c2cb39b651b9f6b29341c92c",
}


@pytest.mark.parametrize("order,as_json", Q_INTEGRALITY_SHA256,
                         ids=[f"o{o}{'-json' if j else ''}" for o, j in Q_INTEGRALITY_SHA256])
def test_q_integrality_output_digest(capsys, order, as_json):
    assert main(["report", "q-integrality", "--order", order, *(["--json"] if as_json else [])]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == Q_INTEGRALITY_SHA256[(order, as_json)]
