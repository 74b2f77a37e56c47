"""Seeded scenario generators for the benchmark workloads.

Each generator writes scenario JSON files into a directory and returns
their paths in run order. The same workload and seed give byte-identical
files; the program under test only ever sees these files.

- ``bundled``: the four shipped scenarios (fig2a, fig2b, fig3a, fig3b) with
  the same agents, protocols and horizons, each integrated in 1000 steps
  instead of 50 000 or 100 000 (dt 0.05 for the 50-unit fig2 horizons,
  0.1 for the 100-unit fig3 ones) and recorded every 1.0 time units. One
  pass therefore takes about a second and a run times each scenario in
  25 or more passes, while every step does exactly the per-step work of
  the shipped files (6 or 5 agents, 1-D, numpy-dispatch bound) and the
  paper's outcomes still hold. The files and their order (fig2a first, so
  it pays the cold sector scan of omega 0.5) do not depend on the seed: a
  seed-dependent order would move that cost between scenarios and with it
  the percentiles.
- ``ring5k``: one leaderless ring of 5000 agents, linear velocity feedback,
  constant gains, cubic coupling, 100 RK4 steps, 3 recorded samples.
  Values are written with all their digits, so the file is about 0.9 MB.
- ``sweep``: 48 small scenarios, two per cell of a balanced design over
  mode, coupling, feedback and dimension (N from 4 to 12), each with 100
  steps recorded at every step. The seed draws graphs, weights, gains,
  omegas, masses and initial states, and the run order. 48 rather than
  about a hundred keeps a pass near 6 s, so a 35-second run times each
  scenario in four passes or more; 96 would leave two.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("bundled", "ring5k", "sweep")

BUNDLED_NAMES = ("fig2a", "fig2b", "fig3a", "fig3b")
BUNDLED_STEPS = 1000
BUNDLED_RECORD_DT = 1.0

RING_AGENTS = 5000
RING_DT = 0.01
RING_STEPS = 100
RING_RECORD_EVERY = 50

SWEEP_REPLICAS = 2
SWEEP_DT = 0.01
SWEEP_STEPS = 100


def _write(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=1) + "\n")
    return path


def bundled(seed: int, root: Path, dest: Path) -> list[Path]:
    shipped = root / "src" / "consensim" / "scenarios"
    paths = []
    for name in BUNDLED_NAMES:
        data = json.loads((shipped / f"{name}.json").read_text())
        t_end = data["integrator"]["t_end"]
        dt = t_end / BUNDLED_STEPS
        data["integrator"] = {"dt": dt, "t_end": t_end,
                              "record_every": round(BUNDLED_RECORD_DT / dt)}
        paths.append(_write(dest / f"{name}.json", data))
    return paths


def ring5k(seed: int, root: Path, dest: Path) -> list[Path]:
    rng = random.Random(f"ring5k-{seed}")
    n = RING_AGENTS
    data = {
        "description": f"ring of {n} agents, seed {seed}",
        "mode": "leaderless",
        "n_agents": n,
        "n_dims": 1,
        "masses": [rng.uniform(0.5, 1.5) for _ in range(n)],
        "topology": {"edges": [[i + 1, (i + 1) % n + 1, rng.uniform(0.5, 1.5)]
                               for i in range(n)]},
        "protocol": {
            "velocity": {"kind": "linear"},
            "coupling": {"kind": "linear_plus_cubic"},
            "gains": [{"kind": "constant", "b0": rng.uniform(0.5, 1.5)} for _ in range(n)],
        },
        "initial": {"p": [rng.uniform(-1.0, 1.0) for _ in range(n)],
                    "q": [rng.uniform(-1.0, 1.0) for _ in range(n)]},
        "integrator": {"dt": RING_DT, "t_end": RING_DT * RING_STEPS,
                       "record_every": RING_RECORD_EVERY},
    }
    return [_write(dest / "ring5k.json", data)]


def _connected_edges(rng: random.Random, n: int) -> list[list]:
    # A random spanning tree keeps the graph connected; n // 2 extra chords
    # vary the cycle structure without changing the edge count per N.
    order = list(range(1, n + 1))
    rng.shuffle(order)
    pairs = {tuple(sorted((order[k], order[rng.randrange(k)]))) for k in range(1, n)}
    while len(pairs) < n - 1 + n // 2:
        i, j = rng.sample(range(1, n + 1), 2)
        pairs.add((min(i, j), max(i, j)))
    return [[i, j, rng.uniform(0.5, 2.0)] for i, j in sorted(pairs)]


def _coordinate(rng: random.Random, dims: int):
    if dims == 1:
        return rng.uniform(-1.0, 1.0)
    return [rng.uniform(-1.0, 1.0) for _ in range(dims)]


def _sweep_scenario(rng: random.Random, n: int, dims: int, leader: bool, cubic: bool,
                    sine: bool) -> dict:
    def velocity() -> dict:
        return {"kind": "sine_perturbed", "omega": rng.uniform(0.1, 1.5)} if sine \
            else {"kind": "linear"}

    def gain() -> dict:
        # Linear feedback gets constant gains, so the leaderless linear
        # members admit the conserved quantity that the checks use.
        b0 = rng.uniform(0.5, 1.5)
        return {"kind": "cosine", "b0": b0, "amplitude": rng.uniform(0.0, 0.5) * b0} if sine \
            else {"kind": "constant", "b0": b0}

    protocol = {
        "velocity": velocity(),
        "coupling": {"kind": "linear_plus_cubic" if cubic else "linear"},
        "gains": [gain() for _ in range(n)],
    }
    topology = {"edges": _connected_edges(rng, n)}
    initial = {"p": [_coordinate(rng, dims) for _ in range(n)],
               "q": [_coordinate(rng, dims) for _ in range(n)]}
    if leader:
        protocol["leader_velocity"] = velocity()
        protocol["leader_gain"] = gain()
        topology["leader_links"] = [[i, rng.uniform(0.5, 2.0)]
                                    for i in sorted(rng.sample(range(1, n + 1), 2))]
        initial["leader"] = {"p": _coordinate(rng, dims), "q": _coordinate(rng, dims)}
        masses = [1.0] * n
    else:
        masses = [rng.uniform(0.5, 1.5) for _ in range(n)]
    return {
        "mode": "leader" if leader else "leaderless",
        "n_agents": n,
        "n_dims": dims,
        "masses": masses,
        "topology": topology,
        "protocol": protocol,
        "initial": initial,
        "integrator": {"dt": SWEEP_DT, "t_end": SWEEP_DT * SWEEP_STEPS, "record_every": 1},
    }


def sweep(seed: int, root: Path, dest: Path) -> list[Path]:
    # The structural design is fixed, so every seed carries the same mix of
    # sizes and kinds and the per-scenario cost distribution stays put.
    rng = random.Random(f"sweep-{seed}")
    cells = [(dims, leader, cubic, sine) for dims in (1, 2, 3) for leader in (False, True)
             for cubic in (False, True) for sine in (False, True)]
    paths = []
    for k in range(SWEEP_REPLICAS * len(cells)):
        dims, leader, cubic, sine = cells[k % len(cells)]
        n = 4 + (k * 5 + k // len(cells)) % 9
        data = _sweep_scenario(rng, n, dims, leader, cubic, sine)
        paths.append(_write(dest / f"sweep{k:03d}.json", data))
    rng.shuffle(paths)
    return paths


GENERATORS = {"bundled": bundled, "ring5k": ring5k, "sweep": sweep}


def generate(workload: str, seed: int, root: Path, dest: Path) -> list[Path]:
    """Write the workload's scenario files into ``dest`` (created if needed)
    and return them in run order."""
    dest.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](seed, Path(root), Path(dest))
