#!/usr/bin/env python3
"""Write the golden output table that ``tests/test_golden.py`` checks.

Each case is one ``consensim run`` on a fixed scenario:

- the four shipped scenarios, cut to t_end = 1 (1000 steps each);
- eight seeded small scenarios that cover leader and leaderless mode,
  linear and cubic coupling, linear and sine velocity feedback, constant
  and cosine gains, unit and non-unit masses, and 1 to 3 dimensions;
- one agent alone, with no edges;
- a ring of 5000 agents, 5 steps;
- one run that blows up, whose exit code and message are pinned.

For each case the table holds the exit code, stderr as text and the sha256
of stdout and of every file the run writes (``trajectory.csv``,
``report.json``, ``positions.svg``, ``velocities.svg``). Paths are taken
out first: the report's ``scenario.path`` line and the output directory
that stdout names. The table also records the numpy version and the
platform, the scope of the determinism contract, so a mismatch elsewhere
is a change of scope, not necessarily a change of results.

A change that moves an output on purpose regenerates the table from the
repository root and says why:

    PYTHONPATH=src python scripts/golden_digests.py

``--check`` runs every case and prints each (case, file) whose digest
differs from the table, without writing it; it exits 1 if any differs:

    PYTHONPATH=src python scripts/golden_digests.py --check
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import platform
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from consensim import cli

TABLE = Path(__file__).resolve().parent.parent / "tests" / "golden_digests.json"

SHIPPED = ("fig2a", "fig2b", "fig3a", "fig3b")

# (mode, coupling, feedback, gains, unit masses, dims) of the seeded cases.
SEEDED = (
    ("leaderless", "linear", "linear", "constant", False, 1),
    ("leaderless", "linear_plus_cubic", "sine_perturbed", "cosine", False, 2),
    ("leaderless", "linear_plus_cubic", "sine_perturbed", "constant", True, 3),
    ("leaderless", "linear", "sine_perturbed", "cosine", False, 3),
    ("leaderless", "linear_plus_cubic", "linear", "cosine", True, 2),
    ("leader", "linear_plus_cubic", "sine_perturbed", "cosine", True, 1),
    ("leader", "linear", "linear", "constant", True, 2),
    ("leader", "linear_plus_cubic", "sine_perturbed", "constant", False, 3),
)


def _seeded(k: int) -> dict:
    mode, coupling, feedback, gains, unit, dims = SEEDED[k]
    rng = random.Random(f"golden-{k}")
    n = 3 + k % 5

    def coordinate():
        return [rng.uniform(-1.0, 1.0) for _ in range(dims)]

    def velocity():
        if feedback == "linear":
            return {"kind": "linear"}
        return {"kind": "sine_perturbed", "omega": rng.uniform(0.1, 1.5)}

    def gain():
        b0 = rng.uniform(0.5, 1.5)
        if gains == "constant":
            return {"kind": "constant", "b0": b0}
        return {"kind": "cosine", "b0": b0, "amplitude": rng.uniform(0.0, 0.5) * b0}

    edges = [[i, i + 1, rng.uniform(0.5, 2.0)] for i in range(1, n)] + [[1, n, 0.75]]
    data = {
        "mode": mode,
        "n_agents": n,
        "n_dims": dims,
        "masses": [1.0] * n if unit else [rng.uniform(0.5, 1.5) for _ in range(n)],
        "topology": {"edges": edges},
        "protocol": {"velocity": velocity(), "coupling": {"kind": coupling},
                     "gains": [gain() for _ in range(n)]},
        "initial": {"p": [coordinate() for _ in range(n)],
                    "q": [coordinate() for _ in range(n)]},
        "integrator": {"dt": 0.01, "t_end": 1.0, "record_every": 5},
    }
    if mode == "leader":
        data["protocol"]["leader_velocity"] = velocity()
        data["protocol"]["leader_gain"] = gain()
        data["topology"]["leader_links"] = [[1, rng.uniform(0.5, 2.0)]]
        data["initial"]["leader"] = {"p": coordinate(), "q": coordinate()}
    return data


def _single() -> dict:
    return {
        "mode": "leaderless", "n_agents": 1, "n_dims": 1, "masses": [0.4],
        "topology": {"edges": []},
        "protocol": {"velocity": {"kind": "sine_perturbed", "omega": 0.5},
                     "coupling": {"kind": "linear_plus_cubic"},
                     "gains": [{"kind": "cosine", "b0": 0.8, "amplitude": 0.2}]},
        "initial": {"p": [0.25], "q": [0.7]},
        "integrator": {"dt": 0.01, "t_end": 1.0, "record_every": 10},
    }


def _ring(n: int = 5000) -> dict:
    rng = random.Random("golden-ring")
    return {
        "mode": "leaderless", "n_agents": n, "n_dims": 1,
        "masses": [rng.uniform(0.5, 1.5) for _ in range(n)],
        "topology": {"edges": [[i + 1, (i + 1) % n + 1, rng.uniform(0.5, 1.5)]
                               for i in range(n)]},
        "protocol": {"velocity": {"kind": "linear"}, "coupling": {"kind": "linear_plus_cubic"},
                     "gains": [{"kind": "constant", "b0": rng.uniform(0.5, 1.5)}
                               for _ in range(n)]},
        "initial": {"p": [rng.uniform(-1.0, 1.0) for _ in range(n)],
                    "q": [rng.uniform(-1.0, 1.0) for _ in range(n)]},
        "integrator": {"dt": 0.01, "t_end": 0.05, "record_every": 5},
    }


def _blow_up() -> dict:
    # Cubic coupling over a spread of 1e30 overflows within a few steps.
    return {
        "mode": "leaderless", "n_agents": 2, "n_dims": 1, "masses": [1.0, 1.0],
        "topology": {"edges": [[1, 2, 1.0]]},
        "protocol": {"velocity": {"kind": "linear"}, "coupling": {"kind": "linear_plus_cubic"},
                     "gains": [{"kind": "constant", "b0": 1.0}] * 2},
        "initial": {"p": [0.0, 1e30], "q": [0.0, 0.0]},
        "integrator": {"dt": 0.1, "t_end": 1.0, "record_every": 1},
    }


@functools.cache
def cases() -> dict:
    """Case name -> (bundled name or scenario dict, extra ``run`` arguments)."""
    table = {name: (name, ["--t-end", "1"]) for name in SHIPPED}
    table.update({f"seeded{k}": (_seeded(k), []) for k in range(len(SEEDED))})
    table["single"] = (_single(), [])
    table["ring5000"] = (_ring(), [])
    table["blow_up"] = (_blow_up(), [])
    return table


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, workdir: Path) -> dict:
    """Run one case in ``workdir`` and return its exit code, stderr and
    digests, with the paths of this run taken out."""
    source, extra = cases()[name]
    if isinstance(source, dict):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(source))
        source = str(path)
    out = workdir / f"{name}-out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["run", source, "--out", str(out), *extra])
    record = {"exit": code, "stderr": stderr.getvalue(),
              "stdout": _sha256(stdout.getvalue().replace(str(out), "<out>").encode())}
    for item in sorted(out.iterdir()) if out.exists() else ():
        data = item.read_bytes()
        if item.name == "report.json":
            scenario_path = json.dumps(json.loads(data)["scenario"]["path"]).encode()
            assert data.count(b'"path": ' + scenario_path) == 1, "one scenario path expected"
            data = data.replace(scenario_path, b'"<scenario>"')
        record[item.name] = _sha256(data)
    return record


def scope() -> dict:
    """The numpy version and platform that the digests were taken on."""
    return {"numpy": np.__version__, "python": platform.python_version(),
            "system": platform.system(), "machine": platform.machine()}


def differences(table: dict, names, workdir: Path) -> list[tuple[str, str]]:
    """Run the named cases in ``workdir`` and return (case, entry) for each
    entry, exit code, stderr, stdout or file, that differs from ``table``."""
    found = []
    for name in names:
        got, want = run_case(name, workdir), table["cases"].get(name, {})
        found += [(name, key) for key in sorted(got.keys() | want.keys())
                  if got.get(key) != want.get(key)]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare every case with the table and print each (case, file) "
                             "that differs, instead of writing the table; exit 1 if any does")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        if args.check:
            found = differences(json.loads(TABLE.read_text()), cases(), Path(tmp))
            for name, key in found:
                print(f"{name} {key}")
            print(f"{len(found)} entries of {len(cases())} cases differ from {TABLE.name}")
            return 1 if found else 0
        table = {"scope": scope(),
                 "cases": {name: run_case(name, Path(tmp)) for name in cases()}}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table['cases'])} cases to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
