"""Checks on the outputs of ``consensim run`` that decide failed runs.

Every run must exit 0. Within one benchmark run, every repeat of a scenario
must write the same bytes as its first repeat (the determinism contract; no
golden hash is kept across commits, because a faster kernel may change the
last bits). The first repeat's outputs are read and checked against the
scenario file and against the outcomes the workload is known to reach.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Outcomes of the shipped scenarios listed in the README table.
FIG2A_VALUE = 1.2713
FIG3B_LEADER_LIMIT = 1.5
PREDICTION_TOL = 1e-9
FIG2A_TOL = 1e-3
DRIFT_TOL = 1e-12


def scenario_facts(path: Path) -> dict:
    """What the checks need to know about one generated scenario file."""
    data = json.loads(Path(path).read_text())
    integ = data["integrator"]
    steps = round(integ["t_end"] / integ["dt"])
    protocol = data["protocol"]
    conserving = (data["mode"] == "leaderless" and protocol["velocity"]["kind"] == "linear"
                  and all(g["kind"] == "constant" for g in protocol["gains"]))
    return {"name": Path(path).stem, "n_agents": data["n_agents"], "n_dims": data["n_dims"],
            "steps": steps, "agent_steps": steps * data["n_agents"],
            "samples": steps // integ["record_every"] + 1,
            "sample_dt": integ["dt"] * integ["record_every"], "conserving": conserving}


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def check_csv(text: str, facts: dict, report: dict) -> list[str]:
    """Shape of trajectory.csv, its time grid, and its last row against the
    observed consensus value in report.json."""
    lines = text.splitlines()
    if len(lines) != facts["samples"] + 1:
        return [f"trajectory.csv has {len(lines) - 1} samples, expected {facts['samples']}"]
    header = lines[0].split(",")
    rows = []
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        if len(fields) != len(header):
            return [f"trajectory.csv row {k + 1} has {len(fields)} fields, header {len(header)}"]
        try:
            row = [float(v) for v in fields]
        except ValueError:
            return [f"trajectory.csv row {k + 1} is not numeric"]
        if not all(math.isfinite(v) for v in row):
            return [f"trajectory.csv row {k + 1} is not finite"]
        if not _close(row[0], k * facts["sample_dt"], 1e-9):
            return [f"trajectory.csv row {k + 1} has t={row[0]}"]
        rows.append(row)
    problems = []
    dims = facts["n_dims"]
    observed = report["consensus"]["observed_value"]
    observed = observed if isinstance(observed, list) else [observed]
    for l in range(dims):
        suffix = "" if dims == 1 else f"_{l + 1}"
        cols = [header.index(f"p_{i + 1}{suffix}") for i in range(facts["n_agents"])]
        mean = math.fsum(rows[-1][c] for c in cols) / len(cols)
        if not _close(mean, observed[l], 1e-12):
            problems.append(f"last row mean position {mean!r} != observed {observed[l]!r}")
    return problems


def check_report(report: dict, facts: dict, workload: str) -> list[str]:
    """Outcomes the workload's scenarios are known to reach."""
    problems = []
    consensus = report["consensus"]
    if workload == "bundled":
        if not consensus["achieved"]:
            problems.append(f"{facts['name']}: consensus not achieved")
        observed = consensus["observed_value"][0]
        error = consensus["prediction_abs_error"]
        if facts["name"] == "fig2b" and not (error is not None and error <= PREDICTION_TOL):
            problems.append(f"fig2b prediction error {error!r}")
        if facts["name"] == "fig3b" and abs(observed - FIG3B_LEADER_LIMIT) > consensus["pos_tol"]:
            problems.append(f"fig3b observed {observed!r}, leader limit {FIG3B_LEADER_LIMIT}")
        if facts["name"] == "fig2a" and abs(observed - FIG2A_VALUE) > FIG2A_TOL:
            problems.append(f"fig2a observed {observed!r}, expected {FIG2A_VALUE}")
    if facts["conserving"]:
        conservation, lyapunov = report["conservation"], report["lyapunov"]
        drift = conservation["max_relative_drift"]
        if not conservation["applicable"] or drift is None or drift > DRIFT_TOL:
            problems.append(f"conservation drift {drift!r} exceeds {DRIFT_TOL}")
        if not (lyapunov["available"] and lyapunov["nonincreasing"]):
            problems.append("energy is not nonincreasing")
    return problems


def check_outputs(out_dir: Path, facts: dict, workload: str) -> list[str]:
    """All content checks on one scenario's outputs."""
    try:
        report = json.loads((out_dir / "report.json").read_text())
        text = (out_dir / "trajectory.csv").read_text()
    except (OSError, ValueError) as exc:
        return [f"unreadable outputs: {exc}"]
    try:
        return check_csv(text, facts, report) + check_report(report, facts, workload)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed outputs: {type(exc).__name__}: {exc}"]


def failed_runs(passes: list[dict], first_out: Path, facts: list[dict],
                workload: str) -> tuple[int, int, list[str]]:
    """Count (attempted, failed) scenario runs over all passes and say why
    each failure happened. ``first_out`` holds the first pass's outputs."""
    attempted = failed = 0
    reasons: list[str] = []
    content = [check_outputs(first_out / f"{k:03d}", f, workload) for k, f in enumerate(facts)]
    first = passes[0]["runs"]
    for p, result in enumerate(passes):
        for k, run in enumerate(result["runs"]):
            attempted += 1
            why = []
            if run["exit"] != 0:
                why.append(f"exit {run['exit']} {run['error'] or ''}".strip())
            if (run["csv_sha256"], run["report_sha256"]) != (first[k]["csv_sha256"],
                                                             first[k]["report_sha256"]):
                why.append("outputs differ from the first repeat")
            why += content[k]
            if why:
                failed += 1
                reasons.append(f"pass {p} {facts[k]['name']}: {'; '.join(why)}")
    return attempted, failed, reasons
