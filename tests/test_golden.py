"""Golden outputs: every byte that ``consensim run`` writes for a fixed set
of scenarios, compared by sha256 with the table that
``scripts/golden_digests.py`` writes. A change that moves an output on
purpose regenerates the table and says why."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden_digests",
                                               ROOT / "scripts" / "golden_digests.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

TABLE = json.loads(golden.TABLE.read_text())


def test_table_covers_every_case():
    assert sorted(TABLE["cases"]) == sorted(golden.cases())


@pytest.mark.parametrize("name", sorted(golden.cases()))
def test_run_outputs_match_golden_digests(name, tmp_path):
    got = golden.run_case(name, tmp_path)
    want = TABLE["cases"][name]
    assert got == want, (
        f"outputs of {name!r} moved. The table was written with {TABLE['scope']}; "
        f"this run has {golden.scope()}. Outside that scope a moved digest may be the "
        f"platform's; inside it, the program's results changed")


def test_blow_up_exit_code_and_message_are_pinned():
    case = TABLE["cases"]["blow_up"]
    assert case["exit"] == 2
    assert case["stderr"] == (
        "integration failed: state became non-finite between t=0.1 and t=0.2, "
        "first at agent 1 position, coordinate 1 (last good t=0.1)\n")



def test_check_names_exactly_the_case_and_file_that_differ(tmp_path, monkeypatch, capsys):
    single = golden.cases()["single"]
    monkeypatch.setattr(golden, "cases", lambda: {"single": single})
    table = tmp_path / "golden_digests.json"
    monkeypatch.setattr(golden, "TABLE", table)
    altered = copy.deepcopy(TABLE)
    altered["cases"]["single"]["report.json"] = "0" * 64
    table.write_text(json.dumps(altered))
    assert golden.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines()[:-1] == ["single report.json"]
    assert json.loads(table.read_text()) == altered
    table.write_text(json.dumps(TABLE))
    assert golden.main(["--check"]) == 0
    assert capsys.readouterr().out.splitlines()[:-1] == []
