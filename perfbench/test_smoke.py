"""Smoke test of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

Covers the output checks (a corrupted output or a wrong expected value is a
failed run), the generators (same seed, same bytes; every scenario valid),
the traced run (three validations per ``run`` at the time of writing), and
the refusal to run without the program's sources.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from consensim.cli import main as consensim_main  # noqa: E402


def _digests(out: Path) -> dict:
    return {f"{kind}_sha256": hashlib.sha256((out / name).read_bytes()).hexdigest()
            for kind, name in (("csv", "trajectory.csv"), ("report", "report.json"))}


@pytest.fixture(scope="module")
def bundled_pass(tmp_path_factory):
    """One real pass over the bundled workload, outputs kept on disk."""
    work = tmp_path_factory.mktemp("bundled")
    paths = workloads.generate("bundled", 0, ROOT, work / "scenarios")
    runs = []
    for k, path in enumerate(paths):
        out = work / "pass000" / f"{k:03d}"
        code = consensim_main(["run", str(path), "--out", str(out), "--no-plots"])
        runs.append({"exit": code, "error": None, **_digests(out)})
    facts = [checks.scenario_facts(p) for p in paths]
    return work, facts, {"runs": runs}


def _failures(work, facts, passes):
    attempted, failed, _ = checks.failed_runs(passes, work / "pass000", facts, "bundled")
    return attempted, failed


def test_clean_pass_has_no_failures(bundled_pass):
    work, facts, first = bundled_pass
    assert _failures(work, facts, [first, first]) == (8, 0)


def test_repeat_with_other_bytes_fails(bundled_pass):
    work, facts, first = bundled_pass
    repeat = json.loads(json.dumps(first))
    repeat["runs"][2]["csv_sha256"] = "0" * 64
    assert _failures(work, facts, [first, repeat]) == (8, 1)


def test_nonzero_exit_fails(bundled_pass):
    work, facts, first = bundled_pass
    repeat = json.loads(json.dumps(first))
    repeat["runs"][0]["exit"] = 2
    assert _failures(work, facts, [first, repeat]) == (8, 1)


def test_tampered_csv_row_fails(bundled_pass, tmp_path):
    work, facts, first = bundled_pass
    shutil.copytree(work / "pass000", tmp_path / "pass000")
    k = next(i for i, f in enumerate(facts) if f["name"] == "fig2b")
    csv = tmp_path / "pass000" / f"{k:03d}" / "trajectory.csv"
    lines = csv.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[1] = repr(float(fields[1]) + 1e-6)
    csv.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    attempted, failed, reasons = checks.failed_runs([first], tmp_path / "pass000", facts,
                                                    "bundled")
    assert (attempted, failed) == (4, 1)
    assert "fig2b" in reasons[0]


def test_wrong_expected_value_fails(bundled_pass, monkeypatch):
    work, facts, first = bundled_pass
    monkeypatch.setattr(checks, "FIG2A_VALUE", checks.FIG2A_VALUE + 2 * checks.FIG2A_TOL)
    assert _failures(work, facts, [first]) == (4, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_and_valid(workload, tmp_path):
    first = workloads.generate(workload, 7, ROOT, tmp_path / "a")
    again = workloads.generate(workload, 7, ROOT, tmp_path / "b")
    other = workloads.generate(workload, 8, ROOT, tmp_path / "c")
    assert [p.name for p in first] == [p.name for p in again]
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    differ = [p.read_bytes() for p in first] != [p.read_bytes() for p in other]
    assert differ == (workload != "bundled")  # bundled files do not depend on the seed
    for path in first:
        assert consensim_main(["validate", str(path)]) == 0


def test_layer_metrics_use_self_times_and_mark_missing_functions_absent():
    def span(i, name, start, end, parent, counts=None):
        record = {"id": i, "name": name, "start": start, "end": end, "parent": parent,
                  "scenario": 0}
        return {**record, "counts": counts} if counts else record

    spans = [span(0, "cli.cmd_run", 0.0, 10.0, None),
             span(1, "dynamics.simulate", 1.0, 6.0, 0,
                  {"steps": 10, "agent_steps": 50, "samples": 3}),
             span(2, "dynamics.validate_scenario", 1.5, 2.0, 1)]
    metrics = run.layer_metrics({"spans": spans, "missing": ["analysis.predict_consensus"]})
    assert metrics["cli.run_other_s"] == 5.0
    assert metrics["dynamics.integrate_s"] == 4.5
    assert metrics["dynamics.validate_s"] == 0.5
    assert metrics["dynamics.validate_calls_per_run"] == 1
    assert metrics["dynamics.step_us"] == 4.5 / 10 * 1e6
    assert metrics["dynamics.rhs_evals"] == 40
    assert metrics["analysis.detect_s"] == 0
    assert metrics["analysis.predict_s"] is None


def test_traced_bundled_run_counts_three_validations_per_run():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "bundled",
                           "--seed", "0", "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}
    assert all(m["value"] is not None for m in metrics.values())
    assert metrics["dynamics.validate_calls_per_run"]["value"] == 3
    assert metrics["dynamics.rhs_evals"]["value"] == 4 * metrics["dynamics.steps"]["value"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bundled",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
