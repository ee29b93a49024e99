"""Start-up weight and the record types' semantics.

Every CLI call is a fresh process, so what `tatecalc.cli` imports is paid on
each one.  The records are NamedTuples; these tests pin the frozen-record
behaviour callers rely on.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tatecalc
from tatecalc.parser import Bin, Num, Sym, Token
from tatecalc.report import Check, VerificationReport
from tatecalc.series import QQ, Ring
from tatecalc.tate_h import Grading, GradedTSeries

# each of these costs milliseconds to import; the CLI needs none of them
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis")

_CHILD = f"""
import json, sys
from tatecalc import cli
cli.build_parser()
before = set(sys.modules)
codes = [cli.main(["report", "q-integrality", "--order", "4", "--json"]),
         cli.main(["verify", "all", "--order", "8"])]
print(json.dumps({{"codes": codes,
                  "loaded": [m for m in {HEAVY_MODULES!r} if m in sys.modules],
                  "added": sorted(set(sys.modules) - before)}}))
"""


def test_a_fresh_cli_process_imports_no_heavy_stdlib_module():
    # -S keeps site-packages hooks out, so only tatecalc's own imports count
    src = Path(tatecalc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-S", "-c", _CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # `verify all` forks its workers without importing a module for it
    assert result == {"codes": [0, 0], "loaded": [], "added": []}


def _records():
    """One record of each checked type, with the name of its first field."""
    return [
        (Check("x", "defect"), "identity"),
        (VerificationReport("s", 4, (Check("x"),)), "suite"),
        (Token("NUMBER", "1", 0), "kind"),
        (Bin("+", Num(1), Sym("c")), "op"),
        (Ring("R", 0, 1, inv=QQ.inv), "name"),
        (GradedTSeries(Grading.TATE_H, 0, (1, 1)), "tag"),
    ]


@pytest.mark.parametrize("record,field", _records(),
                         ids=[type(r).__name__ for r, _ in _records()])
def test_record_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_records_of_one_type_compare_and_hash_by_value():
    for (a, _), (b, _) in zip(_records(), _records()):
        assert a is not b
        assert a == b and hash(a) == hash(b)
    assert Check("x") != Check("y")
    assert Bin("+", Num(1), Num(2)) != Bin("-", Num(1), Num(2))
    assert len({Token("OP", "+", 3), Token("OP", "+", 3), Token("OP", "+", 4)}) == 2
    assert Ring("R", 0, 1, inv=QQ.inv) != Ring("R", 0, 1, inv=QQ.inv, rational=False)


def test_check_repr_names_every_field():
    assert repr(Check("x")) == "Check(identity='x', first_defect=None, note=None)"
