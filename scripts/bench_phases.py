#!/usr/bin/env python3
"""Time the phases of one ``consensim run`` on a scenario file.

Each phase is the call that ``consensim run --no-plots`` makes for it:

- parse: read and parse the file (no rule check);
- validate: every blocking and advisory rule;
- compile: lowering the scenario to the kernel's arrays;
- fingerprint: the scenario's content hash;
- integrate: the run's RK4 loop as ``simulate`` runs it, with the per-step
  finiteness check and the recorded rows;
- series: the energy and conserved-quantity series;
- csv: writing trajectory.csv;
- report: building the report dict;
- json: dumping the report as report.json writes it;
- run: the whole command, end to end, as a reference.

The header line carries the scenario's fingerprint, so two checkouts can be
compared for a moved digest with one command each.

Times are the best of several repeats, so they approach the unloaded speed
of the machine; each phase runs on the outputs of the ones before it. Run
from the repository root with a file path or a bundled name:

    PYTHONPATH=src python scripts/bench_phases.py fig2b [--repeats 5]
"""

import argparse
import contextlib
import io
import json
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from consensim import cli
from consensim.dynamics import (_Compiled, _flatten, _integrate, scenario_fingerprint, simulate,
                                validate_scenario)
from consensim.scenario_io import parse_scenario


def best_s(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


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

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        csv_path = Path(tmp) / "trajectory.csv"
        phases = {
            "parse": lambda: parse_scenario(path, validate=False),
            "validate": lambda: validate_scenario(scenario),
            "compile": lambda: _Compiled(scenario),
            "fingerprint": lambda: scenario_fingerprint(scenario),
            "integrate": lambda: _integrate(comp, y0, iset),
            "series": lambda: cli.run_series(traj, scenario),
            "csv": lambda: cli.write_trajectory_csv(traj, scenario, csv_path, series),
            "report": lambda: cli.build_report(traj, scenario, str(path), series),
            "json": lambda: json.dumps(report, indent=2, sort_keys=True),
            "run": lambda: cli.main(["run", str(path), "--out", tmp, "--no-plots"]),
        }
        times = {name: best_s(fn, k) for name, fn in phases.items()}

    print(f"numpy {np.__version__}, Python {platform.python_version()}, "
          f"{platform.machine()} {platform.system()}")
    print(f"{path.name}: {scenario.n_agents} agents, {scenario.n_dims} dims, "
          f"{len(scenario.topology.edges)} edges, {n_steps} steps, {len(traj.t)} samples; "
          f"fingerprint {traj.scenario_fingerprint}; best of {k}")
    for name, seconds in times.items():
        print(f"{name:>12} {seconds * 1e3:10.2f} ms")


if __name__ == "__main__":
    main()
