"""End-to-end command-line behavior: exit codes, output files, determinism."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import consensim.analysis
import consensim.cli
import consensim.dynamics
import consensim.graph
import consensim.protocols
import consensim.scenario_io
from consensim import (bundled_scenario_path, parse_scenario, parse_scenario_dict,
                       scenario_fingerprint, simulate, validate_scenario)
from consensim.cli import main

SVG_NS = "{http://www.w3.org/2000/svg}"


def write_pair_scenario(path, t_end=20.0, coupling="linear", velocity=None,
                        p0=(0.0, 1.0), masses=(1.0, 1.0), weight=2.0, dt=1e-2):
    data = {
        "mode": "leaderless",
        "n_agents": 2,
        "n_dims": 1,
        "masses": list(masses),
        "topology": {"edges": [[1, 2, weight]]},
        "protocol": {
            "velocity": velocity or {"kind": "linear"},
            "coupling": {"kind": coupling},
            "gains": [{"kind": "constant", "b0": 1.0}] * 2,
        },
        "initial": {"p": list(p0), "q": [0.0, 0.0]},
        "integrator": {"dt": dt, "t_end": t_end, "record_every": 10},
    }
    path.write_text(json.dumps(data))
    return path


def test_run_writes_outputs_and_reaches_consensus(tmp_path, capsys):
    scenario = write_pair_scenario(tmp_path / "pair.json")
    out = tmp_path / "out"
    code = main(["run", str(scenario), "--out", str(out), "--no-plots",
                 "--require-consensus"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "consensus achieved" in stdout
    assert "predicted value: 0.500000" in stdout

    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,p_1,p_2,q_1,q_2,V,alpha_1"
    report = json.loads((out / "report.json").read_text())
    assert report["consensus"]["achieved"] is True
    assert report["consensus"]["predicted_value"] == [0.5]
    assert report["lyapunov"]["nonincreasing"] is True
    assert report["conservation"]["max_relative_drift"] < 1e-9
    assert report["scenario"]["fingerprint"] == scenario_fingerprint(
        parse_scenario(scenario))


def test_run_exit_three_when_consensus_required_but_unmet(tmp_path):
    scenario = write_pair_scenario(tmp_path / "pair.json", t_end=2.0)
    code = main(["run", str(scenario), "--out", str(tmp_path / "out"),
                 "--no-plots", "--require-consensus"])
    assert code == 3
    # Without the flag the same run exits cleanly.
    assert main(["run", str(scenario), "--out", str(tmp_path / "out2"),
                 "--no-plots"]) == 0


def test_run_exit_two_on_blow_up(tmp_path, capsys):
    scenario = write_pair_scenario(tmp_path / "boom.json", coupling="linear_plus_cubic",
                                   p0=(-500.0, 500.0), masses=(1e-3, 1e-3),
                                   weight=50.0, dt=0.1, t_end=10.0)
    code = main(["run", str(scenario), "--out", str(tmp_path / "out"), "--no-plots"])
    assert code == 2
    assert "integration failed" in capsys.readouterr().err


def test_exit_one_on_parse_and_validation_failures(tmp_path, capsys):
    assert main(["predict", str(tmp_path / "missing.json")]) == 1
    assert "no scenario file" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "leaderless"}')
    assert main(["validate", str(bad)]) == 1
    assert "missing required key" in capsys.readouterr().err


@pytest.mark.parametrize("grid,message", [
    (["--t-end", "1e9"],
     "recording buffer must fit in 2 GiB, got 894 GiB (10000000001 samples of 12 floats)"),
    (["--dt", "1e-300", "--t-end", "1e300"],
     "step count t_end/dt must be finite, got t_end=1e+300 dt=1e-300"),
])
def test_run_refuses_a_step_grid_it_cannot_record_before_allocating(tmp_path, capsys, grid,
                                                                    message):
    tracemalloc.start()
    try:
        code = main(["run", "fig2b", "--out", str(tmp_path / "out"), "--no-plots", *grid])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert message in capsys.readouterr().err
    assert peak < 2**20


def write_fig2a_grid(path, t_end, record_every):
    data = json.loads(bundled_scenario_path("fig2a").read_text())
    data["integrator"] = {"dt": 0.001, "t_end": t_end, "record_every": record_every}
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("command, t_end, record_every, options, steps", [
    ("validate", 1e12, 10**15, [], 10**15),
    ("run", 1e12, 10**15, [], 10**15),
    # The file's own grid fits the budget; the override's grid is refused.
    ("run", 1e3, 10**6, ["--t-end", "1e9"], 10**12),
], ids=["validate", "run", "run_t_end_override"])
def test_work_budget_refuses_an_endless_run_before_allocating(tmp_path, capsys, command, t_end,
                                                             record_every, options, steps):
    path = write_fig2a_grid(tmp_path / "grid.json", t_end, record_every)
    if options:
        assert validate_scenario(parse_scenario(path, validate=False)).ok
    out = ["--out", str(tmp_path / "out"), "--no-plots"] if command == "run" else []
    tracemalloc.start()
    try:
        code = main([command, str(path), *out, *options])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    captured = capsys.readouterr()
    assert (f"run must fit in 1e+09 component-steps, got {steps} steps of 11 components"
            in captured.out + captured.err)
    assert peak < 2**20
    assert not (tmp_path / "out").exists()


def test_validate_reports_blocking_rules(tmp_path, capsys):
    scenario = write_pair_scenario(tmp_path / "pair.json")
    data = json.loads(scenario.read_text())
    data["topology"]["edges"] = []
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    assert main(["validate", str(broken)]) == 1
    stdout = capsys.readouterr().out
    assert "graph not connected" in stdout
    assert "invalid" in stdout

    assert main(["validate", str(scenario)]) == 0
    stdout = capsys.readouterr().out
    assert "valid" in stdout
    assert "gain bounds: [1, 1]" in stdout


def test_validate_pins_assumption_messages_and_their_order(tmp_path, capsys):
    # Gains 1 and 3 dip below zero (blocking); omega = 5 pushes the velocity
    # sector below zero, which fails the advisory sign and sector checks.
    scenario = write_pair_scenario(tmp_path / "pair.json",
                                   velocity={"kind": "sine_perturbed", "omega": 5.0})
    data = json.loads(scenario.read_text())
    data.update(n_agents=3, masses=[1.0] * 3, initial={"p": [0.0, 1.0, 2.0], "q": [0.0] * 3})
    data["topology"]["edges"] = [[1, 2, 2.0], [2, 3, 1.0]]
    data["protocol"]["gains"] = [{"kind": "cosine", "b0": 0.2, "amplitude": 0.3},
                                 {"kind": "constant", "b0": 1.0},
                                 {"kind": "cosine", "b0": 0.1, "amplitude": -0.4}]
    scenario.write_text(json.dumps(data))
    errors = ["assumption check failed: gain_1_positive_floor (envelope [-0.1, 0.5])",
              "assumption check failed: gain_3_positive_floor (envelope [-0.3, 0.5])"]
    warnings = ["advisory assumption check failed: velocity_sign (z*value(z) <= 0 at z=4.49341)",
                "advisory assumption check failed: velocity_sector_positive "
                "(sector [-0.0861681, 6])"]
    result = validate_scenario(parse_scenario(scenario, validate=False))
    assert list(result.errors) == errors
    assert list(result.warnings) == warnings

    assert main(["validate", str(scenario)]) == 1
    assert capsys.readouterr().out.splitlines() == (
        [f"error: {m}" for m in errors] + [f"warning: {m}" for m in warnings]
        + ["sector: [-0.0861681, 6]", "gain bounds: [-0.3, 1]", "invalid"])


def test_predict_bundled_value_and_inapplicable(capsys):
    assert main(["predict", "fig2b"]) == 0
    assert capsys.readouterr().out.strip() == "1.516667"

    assert main(["predict", "fig2a"]) == 4
    assert "no closed-form consensus value" in capsys.readouterr().err


def test_trajectory_outputs_are_byte_identical(tmp_path):
    scenario = write_pair_scenario(tmp_path / "pair.json", t_end=5.0)
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(scenario), "--out", str(first), "--no-plots"]) == 0
    assert main(["run", str(scenario), "--out", str(second), "--no-plots"]) == 0
    assert (first / "trajectory.csv").read_bytes() == (second / "trajectory.csv").read_bytes()
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()


def test_run_after_an_override_run_gets_its_own_defaults(tmp_path, capsys):
    # The parser is built once per process; a run with overrides must leave
    # nothing behind for the next run.
    scenario = write_pair_scenario(tmp_path / "pair.json", t_end=5.0)

    def run(name, *options):
        out = tmp_path / name
        code = main(["run", str(scenario), "--out", str(out), "--no-plots", *options])
        stdout = capsys.readouterr().out.replace(str(out), "<out>")
        return code, stdout, [(out / f).read_bytes() for f in ("trajectory.csv", "report.json")]

    consensim.cli.build_parser.cache_clear()
    fresh = run("fresh")
    assert fresh[0] == 0
    overridden = run("overridden", "--dt", "0.005", "--t-end", "0.2", "--require-consensus")
    assert overridden[0] == 3 and overridden[2] != fresh[2]
    assert run("plain") == fresh


@pytest.mark.parametrize("scenario", ["fig3b", "strong_sine"])
def test_report_checks_are_the_assumption_checks_as_dicts(tmp_path, scenario):
    # omega = 5 pushes the velocity sector below zero: the sector and sign
    # checks fail, and they are advisory, so the run goes on.
    ref = "fig3b" if scenario == "fig3b" else str(write_pair_scenario(
        tmp_path / "sine.json", t_end=1.0, velocity={"kind": "sine_perturbed", "omega": 5.0}))
    out = tmp_path / "out"
    assert main(["run", ref, "--out", str(out), "--no-plots", "--t-end", "1.0"]) == 0
    a = validate_scenario(parse_scenario(consensim.cli.resolve_scenario_path(ref),
                                         validate=False)).assumptions
    checks = list(zip(a.names, a.passed, a.blocking, a.details))
    report = json.loads((out / "report.json").read_text())
    assert report["validation"]["assumptions"]["checks"] == [
        {"name": n, "passed": p, "blocking": b, "detail": d} for n, p, b, d in checks]
    failed_advisory = [n for n, p, b, _ in checks if not p and not b]
    assert failed_advisory == ([] if scenario == "fig3b"
                               else ["velocity_sign", "velocity_sector_positive"])


def test_dt_and_t_end_overrides_change_the_grid(tmp_path):
    scenario = write_pair_scenario(tmp_path / "pair.json")
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out), "--no-plots",
                 "--dt", "0.005", "--t-end", "1.0"]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    times = [float(r.split(",")[0]) for r in rows[1:]]
    assert times[-1] == 1.0
    assert times[1] == pytest.approx(0.05)
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"]["integrator"]["dt"] == 0.005


def test_override_violating_grid_rules_is_a_validation_error(tmp_path, capsys):
    scenario = write_pair_scenario(tmp_path / "pair.json")
    assert main(["run", str(scenario), "--out", str(tmp_path / "out"), "--no-plots",
                 "--t-end", "0.35"]) == 1
    assert "whole number" in capsys.readouterr().err


def test_override_can_mend_a_grid_rule_the_file_breaks(tmp_path, capsys):
    # 0.35 is 35 steps of 0.01, not a whole number of 10-step recording
    # intervals; the scenario that runs is the one with the overrides applied.
    scenario = write_pair_scenario(tmp_path / "pair.json", t_end=0.35)
    assert main(["run", str(scenario), "--out", str(tmp_path / "a"), "--no-plots"]) == 1
    assert "whole number" in capsys.readouterr().err
    assert main(["run", str(scenario), "--out", str(tmp_path / "b"), "--no-plots",
                 "--t-end", "0.3"]) == 0


def count_calls(monkeypatch, names):
    """Wrap each named function wherever a consensim module refers to it."""
    counts = dict.fromkeys(names, 0)
    modules = (consensim.analysis, consensim.cli, consensim.dynamics, consensim.scenario_io)
    for name in names:
        original = next(getattr(m, name) for m in modules if hasattr(m, name))

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("scenario", ["pair", "fig3b"])
def test_run_validates_once_and_computes_each_series_once(tmp_path, monkeypatch, scenario):
    # With plots on: the plots draw the report's predicted value.
    names = ("validate_scenario", "lyapunov_series", "conserved_series",
             "default_tracking_weight", "predict_consensus")
    ref = "fig3b" if scenario == "fig3b" else str(write_pair_scenario(tmp_path / "pair.json"))
    counts = count_calls(monkeypatch, names)
    assert main(["run", ref, "--out", str(tmp_path / "out"), "--t-end", "1.0"]) == 0
    assert (tmp_path / "out" / "positions.svg").is_file()
    assert counts["validate_scenario"] == 1
    assert counts["lyapunov_series"] == 1
    assert counts["conserved_series"] == 1
    assert counts["default_tracking_weight"] == (1 if scenario == "fig3b" else 0)
    assert counts["predict_consensus"] == 1


def test_leader_run_computes_the_envelopes_once(tmp_path, monkeypatch):
    # Validation, the tracking weight and the tracking energy all read the
    # gain and sector envelopes of the same protocol.
    counts = dict.fromkeys(("_gain_bounds", "_sector_envelope"), 0)
    for name in counts:
        original = getattr(consensim.protocols, name)

        def counted(spec, _name=name, _fn=original):
            counts[_name] += 1
            return _fn(spec)
        monkeypatch.setattr(consensim.protocols, name, counted)
    assert main(["run", "fig3b", "--out", str(tmp_path / "out"), "--no-plots",
                 "--t-end", "1.0"]) == 0
    assert counts == {"_gain_bounds": 1, "_sector_envelope": 1}


@pytest.mark.parametrize("scenario", ["pair", "fig3b"])
def test_run_with_plots_searches_the_graph_once(tmp_path, monkeypatch, scenario):
    # Validation and the run's one prediction ask the same reachability
    # question of the same topology.
    searches = []
    search = consensim.graph._reaches_all
    monkeypatch.setattr(consensim.graph, "_reaches_all",
                        lambda topo, sources: searches.append(topo) or search(topo, sources))
    ref = "fig3b" if scenario == "fig3b" else str(write_pair_scenario(tmp_path / "pair.json"))
    assert main(["run", ref, "--out", str(tmp_path / "out"), "--t-end", "1.0"]) == 0
    assert len(searches) == 1


def test_plots_are_written(tmp_path):
    scenario = write_pair_scenario(tmp_path / "pair.json", t_end=0.5)
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == 0
    for stem in ("positions", "velocities"):
        content = (out / f"{stem}.svg").read_text()
        assert "<svg" in content


def test_plots_are_byte_identical_across_runs(tmp_path):
    scenario = write_pair_scenario(tmp_path / "pair.json", t_end=5.0)
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(scenario), "--out", str(first)]) == 0
    assert main(["run", str(scenario), "--out", str(second)]) == 0
    for stem in ("positions", "velocities"):
        assert (first / f"{stem}.svg").read_bytes() == (second / f"{stem}.svg").read_bytes()


def test_leader_plots_draw_one_polyline_per_agent_plus_leader(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "fig3b", "--out", str(out), "--t-end", "1.0"]) == 0
    n_agents = parse_scenario(bundled_scenario_path("fig3b")).n_agents
    for stem in ("positions", "velocities"):
        root = ElementTree.parse(out / f"{stem}.svg").getroot()
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == n_agents + 1
        assert polylines[-1].get("stroke-dasharray")


@pytest.mark.parametrize("case", ["one_step", "agreement_at_rest"])
def test_degenerate_runs_still_write_finite_plots(tmp_path, case):
    if case == "one_step":
        scenario = write_pair_scenario(tmp_path / "pair.json")
        data = json.loads(scenario.read_text())
        data["integrator"] = {"dt": 0.01, "t_end": 0.01, "record_every": 1}
        scenario.write_text(json.dumps(data))
    else:
        scenario = write_pair_scenario(tmp_path / "pair.json", t_end=0.5, p0=(1.0, 1.0))
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == 0
    for stem in ("positions", "velocities"):
        content = (out / f"{stem}.svg").read_text()
        assert ElementTree.fromstring(content).tag == f"{SVG_NS}svg"
        assert "nan" not in content.lower()
        assert "inf" not in content.lower()


def test_a_failed_plot_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    # The third tick scale is the velocity plot's first, met after its
    # opening lines are written.
    ticks, calls = consensim.cli._ticks, []

    def failing_ticks(lo, hi):
        calls.append(lo)
        if len(calls) == 3:
            raise RuntimeError("no ticks")
        return ticks(lo, hi)

    monkeypatch.setattr(consensim.cli, "_ticks", failing_ticks)
    scenario = parse_scenario(bundled_scenario_path("fig2b"))
    traj = simulate(dataclasses.replace(
        scenario, integrator=dataclasses.replace(scenario.integrator, t_end=0.5)))
    assert consensim.cli.write_plots(traj, None, tmp_path) == [tmp_path / "positions.svg"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["positions.svg"]
    assert "warning: plotting failed: no ticks" in capsys.readouterr().err


def test_leader_csv_columns(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "fig3b", "--out", str(out), "--no-plots",
                 "--t-end", "1.0"]) == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,p_1,p_2,p_3,p_4,p_5,q_1")
    assert header.endswith("p_L,q_L,V")
    report = json.loads((out / "report.json").read_text())
    assert report["conservation"]["applicable"] is False
    assert report["lyapunov"]["leader_weight"] == pytest.approx(30680.635, abs=1e-2)


def test_module_entry_point_runs():
    # The child imports the package this process imports, installed or not.
    package_root = str(Path(consensim.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "consensim", "predict", "fig2b"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1.516667"


def test_csv_rows_match_per_value_formatting(tmp_path):
    # Rows are formatted whole; every field must still read exactly as
    # format(v, ".17g"), signed zeros, subnormals and non-finite values included.
    scenario = parse_scenario(bundled_scenario_path("fig3b"))
    n, d = scenario.n_agents, scenario.n_dims
    rng = np.random.default_rng(7)
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
               0.1, 1.0 / 3.0, np.inf, -np.inf, np.nan]

    def values(size):
        return np.where(rng.random(size) < 0.5, rng.choice(special, size),
                        rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size))

    samples = [consensim.dynamics.SystemState(
        t=0.25 * k, p=values((n, d)), q=values((n, d)),
        leader=consensim.dynamics.LeaderState(values(d), values(d))) for k in range(40)]
    traj = consensim.dynamics.Trajectory(
        np.array([s.t for s in samples]), np.stack([s.p for s in samples]),
        np.stack([s.q for s in samples]), np.stack([s.leader.p for s in samples]),
        np.stack([s.leader.q for s in samples]), "")
    series = consensim.cli.RunSeries(
        leader_weight=None, energy=values(40), energy_reason=None,
        conserved=values((40, d)), conserved_reason=None)
    path = tmp_path / "trajectory.csv"
    consensim.cli.write_trajectory_csv(traj, scenario, path, series)

    rows = path.read_text().splitlines()[1:]
    assert len(rows) == len(samples)
    for row, s, energy, conserved in zip(rows, samples, series.energy, series.conserved):
        fields = [s.t, *s.p.ravel(), *s.q.ravel(), *s.leader.p, *s.leader.q, energy, *conserved]
        assert row == ",".join(format(float(v), ".17g") for v in fields)


def random_outputs(scenario, samples):
    """A random leaderless trajectory and series of ``samples`` samples for
    ``scenario``, as write_trajectory_csv takes them."""
    n = scenario.n_agents
    rng = np.random.default_rng(samples)
    traj = consensim.dynamics.Trajectory(
        np.arange(samples) * 1e-3, rng.normal(size=(samples, n, 1)),
        rng.normal(size=(samples, n, 1)), None, None, "")
    series = consensim.cli.RunSeries(
        leader_weight=None, energy=rng.random(samples), energy_reason=None,
        conserved=rng.normal(size=(samples, 1)), conserved_reason=None)
    return traj, series


@pytest.mark.parametrize("block_floats", [1, 100])
def test_csv_is_the_same_whatever_the_block_of_rows(tmp_path, monkeypatch, block_floats):
    scenario = parse_scenario(bundled_scenario_path("fig2b"))
    traj, series = random_outputs(scenario, 40)
    whole, blocked = tmp_path / "whole.csv", tmp_path / "blocked.csv"
    consensim.cli.write_trajectory_csv(traj, scenario, whole, series)
    monkeypatch.setattr(consensim.cli, "_CSV_BLOCK_FLOATS", block_floats)
    consensim.cli.write_trajectory_csv(traj, scenario, blocked, series)
    assert blocked.read_bytes() == whole.read_bytes()
    assert len(whole.read_text().splitlines()) == 41


@pytest.mark.parametrize("block_points", [1, 3])
def test_plots_are_the_same_whatever_the_block_of_points(tmp_path, monkeypatch, block_points):
    traj, _ = random_outputs(parse_scenario(bundled_scenario_path("fig2b")), 40)
    whole, blocked = tmp_path / "whole", tmp_path / "blocked"
    whole.mkdir()
    blocked.mkdir()
    consensim.cli.write_plots(traj, [0.5], whole)
    monkeypatch.setattr(consensim.cli, "_SVG_BLOCK_POINTS", block_points)
    consensim.cli.write_plots(traj, [0.5], blocked)
    for stem in ("positions", "velocities"):
        svg = (whole / f"{stem}.svg").read_bytes()
        assert (blocked / f"{stem}.svg").read_bytes() == svg
        assert svg.count(b"<polyline") == 6


def traced_peak(write) -> int:
    """The peak of traced memory while ``write()`` runs, in bytes."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writing_memory_does_not_grow_with_the_file(tmp_path):
    scenario = parse_scenario(write_pair_scenario(tmp_path / "pair.json"))
    traj, series = random_outputs(scenario, 50_001)
    path = tmp_path / "trajectory.csv"
    peak = traced_peak(lambda: consensim.cli.write_trajectory_csv(traj, scenario, path, series))
    assert peak < path.stat().st_size / 4


def leader_ring_dict(n=300):
    """A 2-D leader ring of n agents with a cosine gain each."""
    rng = np.random.default_rng(n)

    def coordinates(size):
        return rng.uniform(-1.0, 1.0, (size, 2)).tolist()

    return {
        "description": f"leader ring of {n} agents, cosine gains",
        "mode": "leader", "n_agents": n, "n_dims": 2, "masses": [1.0] * n,
        "topology": {"edges": [[k, k % n + 1, float(w)]
                               for k, w in enumerate(rng.uniform(0.5, 1.5, n), start=1)],
                     "leader_links": [[1, 1.0], [n // 2, 0.5]]},
        "protocol": {"velocity": {"kind": "sine_perturbed", "omega": 0.5},
                     "coupling": {"kind": "linear_plus_cubic"},
                     "gains": [{"kind": "cosine", "b0": b, "amplitude": a}
                               for b, a in zip(rng.uniform(0.5, 1.5, n).tolist(),
                                               rng.uniform(-0.3, 0.3, n).tolist())],
                     "leader_velocity": {"kind": "linear"},
                     "leader_gain": {"kind": "cosine", "b0": 0.6, "amplitude": 0.1}},
        "initial": {"p": coordinates(n), "q": coordinates(n),
                    "leader": {"p": [1.0, 2.0], "q": [0.3, -0.1]}},
        "integrator": {"dt": 0.01, "t_end": 0.5, "record_every": 10},
    }


# A description that holds the splice point's text, an empty check list,
# quotes, backslashes, control characters and non-ASCII text.
TRICKY_DESCRIPTION = ('\n      "checks": [],\n"checks": [{"name": "x"}] \\" \\\\n \t '
                      "café 中文 \U0001f600  ")


@pytest.mark.parametrize("case", ["fig2a", "fig2b", "fig3a", "fig3b", "leader_ring",
                                  "strong_sine", "tricky_description"])
def test_report_json_is_the_sorted_indented_dump(tmp_path, case):
    if case == "leader_ring":
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(leader_ring_dict()))
    elif case == "strong_sine":
        path = write_pair_scenario(tmp_path / "sine.json", t_end=1.0,
                                   velocity={"kind": "sine_perturbed", "omega": 5.0})
    elif case == "tricky_description":
        path = tmp_path / "tricky.json"
        data = leader_ring_dict(5)
        data["description"] = TRICKY_DESCRIPTION
        path.write_text(json.dumps(data))
    else:
        path = bundled_scenario_path(case)
    scenario = parse_scenario(path)
    if case.startswith("fig"):
        scenario = dataclasses.replace(
            scenario, integrator=dataclasses.replace(scenario.integrator, t_end=1.0))
    report = consensim.cli.write_outputs(consensim.dynamics.simulate(scenario), scenario, path,
                                         tmp_path / "out", plots=False)
    text = (tmp_path / "out" / "report.json").read_text()
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    checks = report["validation"]["assumptions"]["checks"]
    assert len(checks) == scenario.n_agents + (9 if scenario.protocol.has_leader else 6)
    assert json.loads(text)["scenario"]["description"] == scenario.description
    if case == "strong_sine":
        assert not report["validation"]["assumptions"]["all_passed"]


def test_report_writing_memory_does_not_grow_with_the_file(tmp_path):
    scenario = parse_scenario_dict(leader_ring_dict(5000))
    traj = simulate(scenario)
    report = consensim.cli.build_report(traj, scenario, "ring",
                                        consensim.cli.run_series(traj, scenario))
    path = tmp_path / "report.json"
    peak = traced_peak(lambda: consensim.cli.write_report_json(report, path))
    assert path.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert peak < path.stat().st_size / 4


def test_a_run_builds_no_per_edge_tuples(tmp_path):
    n = 5000
    scenario = parse_scenario_dict({
        "mode": "leaderless", "n_agents": n, "n_dims": 1, "masses": [1.0] * n,
        "topology": {"edges": [[k, k % n + 1, 1.0] for k in range(1, n + 1)]},
        "protocol": {"velocity": {"kind": "linear"}, "coupling": {"kind": "linear_plus_cubic"},
                     "gains": [{"kind": "constant", "b0": 1.0}] * n},
        "initial": {"p": [1e-3 * (k % 7) for k in range(n)], "q": [0.0] * n},
        "integrator": {"dt": 0.01, "t_end": 0.05, "record_every": 1},
    }, validate=False)
    consensim.cli.write_outputs(simulate(scenario), scenario, "ring", tmp_path / "out",
                                plots=True)
    assert not {"edges", "leader_links"} & set(vars(scenario.topology))
