#!/usr/bin/env python3
"""Time the phases of one ``consensim run`` on a scenario file.

Each phase is the call that ``consensim run --no-plots`` makes for it:

- parse: read and parse the file (no rule check);
- topology: ``build_topology`` on the file's own edge and leader-link
  lists, which is the parser's only check of the entries;
- validate: every blocking and advisory rule, each repeat on a fresh
  protocol spec built outside the timed call, so no repeat reads the
  envelopes cached by the one before, as no run does;
- reach: the graph search behind validation's question (connected, or
  leader reaches all), which the topology otherwise caches after one run;
- compile: lowering the scenario to the kernel's arrays;
- fingerprint: the scenario's content hash;
- integrate: the run's RK4 loop as ``simulate`` runs it, with the gain
  schedule, the per-sample finiteness check and the recorded rows;
- series: the energy and conserved-quantity series;
- csv: writing trajectory.csv;
- report: building the report dict;
- json: writing report.json, piece by piece as a run writes it;
- run: the whole command, end to end, as a reference. Its line also gives
  the cyclic garbage collector's collections and time per run, taken with
  ``gc.callbacks``.

The header line carries the scenario's fingerprint, so two checkouts can be
compared for a moved digest with one command each.

Times are the best of several repeats, so they approach the unloaded speed
of the machine; each phase runs on the outputs of the ones before it. Run
from the repository root with a file path or a bundled name:

    PYTHONPATH=src python scripts/bench_phases.py fig2b [--repeats 5]
"""

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from consensim import cli
from consensim.dynamics import (Mode, _Compiled, _flatten, _integrate, scenario_fingerprint,
                                simulate, validate_scenario)
from consensim.graph import build_topology, first_unreached
from consensim.scenario_io import parse_scenario


def best_s(fn, repeats: int, make_args=tuple) -> float:
    """Best time of ``fn(*make_args())`` over the repeats, each repeat's
    arguments made outside its timed call."""
    best = float("inf")
    for _ in range(repeats):
        args = make_args()
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


class GcClock:
    """Counts the collector's runs and their time while installed."""

    def __init__(self):
        self.collections, self.seconds, self._start = 0, 0.0, 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.collections += 1
            self.seconds += time.perf_counter() - self._start

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", help="scenario JSON path or bundled name")
    parser.add_argument("--repeats", type=int, default=5, help="repeats per phase (default: 5)")
    args = parser.parse_args()
    path = cli.resolve_scenario_path(args.scenario)
    k = max(1, args.repeats)

    scenario = parse_scenario(path, validate=False)
    traj = simulate(scenario)
    comp = _Compiled(scenario)
    iset = scenario.integrator
    y0, n_steps = _flatten(scenario.initial), round(iset.t_end / iset.dt)
    series = cli.run_series(traj, scenario)
    report = cli.build_report(traj, scenario, str(path), series)
    topo = scenario.topology

    def fresh_scenario() -> tuple:
        return (dataclasses.replace(scenario, protocol=dataclasses.replace(scenario.protocol)),)

    sources = topo.link_arrays[0].tolist() if scenario.mode is Mode.LEADER else [0]
    raw = json.loads(path.read_text(encoding="utf-8"))["topology"]
    edges, links = raw["edges"], raw.get("leader_links", [])

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        csv_path, json_path = Path(tmp) / "trajectory.csv", Path(tmp) / "report.json"
        phases = {
            "parse": lambda: parse_scenario(path, validate=False),
            "topology": lambda: build_topology(topo.n_agents, edges, links),
            "validate": validate_scenario,
            "reach": lambda: first_unreached(topo, sources),
            "compile": lambda: _Compiled(scenario),
            "fingerprint": lambda: scenario_fingerprint(scenario),
            "integrate": lambda: _integrate(comp, y0, iset),
            "series": lambda: cli.run_series(traj, scenario),
            "csv": lambda: cli.write_trajectory_csv(traj, scenario, csv_path, series),
            "report": lambda: cli.build_report(traj, scenario, str(path), series),
            "json": lambda: cli.write_report_json(report, json_path),
        }
        arguments = {"validate": fresh_scenario}
        times = {name: best_s(fn, k, arguments.get(name, tuple)) for name, fn in phases.items()}
        with GcClock() as clock:
            times["run"] = best_s(lambda: cli.main(["run", str(path), "--out", tmp, "--no-plots"]),
                                  k)

    print(f"numpy {np.__version__}, Python {platform.python_version()}, "
          f"{platform.machine()} {platform.system()}")
    print(f"{path.name}: {scenario.n_agents} agents, {scenario.n_dims} dims, "
          f"{len(topo.edge_arrays[0])} edges, {n_steps} steps, {len(traj.t)} samples; "
          f"fingerprint {traj.scenario_fingerprint}; best of {k}")
    for name, seconds in times.items():
        print(f"{name:>12} {seconds * 1e3:10.2f} ms")
    print(f"{'run gc':>12} {clock.seconds / k * 1e3:10.2f} ms, "
          f"{clock.collections / k:.1f} collections per run")


if __name__ == "__main__":
    main()
