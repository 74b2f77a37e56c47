#!/usr/bin/env python3
"""Time the compiled integration kernel on cubic rings of growing size.

For each agent count N this builds a ring (unit masses, gains and weights,
cubic coupling, 1-D), once leaderless and once with agent 1 linked to a
leader, and prints for each:

- the peak memory traced while lowering the scenario to its compiled form,
  work buffers included;
- microseconds per right-hand-side evaluation;
- microseconds per RK4 step, through the step entry that ``simulate`` uses,
  with the state advanced in place as a run advances it;
- the RK4 step time over the RHS time: 4 is the floor, as one step makes
  four RHS evaluations, and what lies above it is the stage arithmetic.

Times are the best of several repeats of a loop sized to about 0.2 s, so
they approach the unloaded speed of the machine. Run from the repository
root:

    PYTHONPATH=src python scripts/bench_kernel.py
"""

import platform
import time
import tracemalloc

import numpy as np

from consensim import (CouplingShape, GainProfile, IntegratorSettings, LeaderState,
                       Mode, ProtocolSpec, Scenario, SystemState, VelocityShape,
                       build_topology)
from consensim.dynamics import _Compiled, _flatten

SIZES = (6, 500, 5000, 50000)


def cubic_ring(n: int, leader: bool) -> Scenario:
    edges = [(i, i % n + 1, 1.0) for i in range(1, n + 1)]
    extra = ({"leader_velocity": VelocityShape(), "leader_gain": GainProfile(b0=1.0)}
             if leader else {})
    return Scenario(
        mode=Mode.LEADER if leader else Mode.LEADERLESS,
        masses=(1.0,) * n,
        topology=build_topology(n, edges, leader_links=[(1, 1.0)] if leader else ()),
        protocol=ProtocolSpec(velocity=VelocityShape(),
                              coupling=CouplingShape(kind="linear_plus_cubic"),
                              gains=(GainProfile(b0=1.0),) * n, **extra),
        initial=SystemState(t=0.0, p=np.sin(np.arange(n)), q=np.zeros(n),
                            leader=LeaderState(np.ones(1), np.full(1, 0.5)) if leader else None),
        integrator=IntegratorSettings(dt=1e-2, t_end=1.0, record_every=100),
    )


def best_us(fn, repeats: int = 5, budget_s: float = 0.2) -> float:
    start = time.perf_counter()
    fn()
    loops = max(1, int(budget_s / max(time.perf_counter() - start, 1e-7)))
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, (time.perf_counter() - start) / loops)
    return best * 1e6


def probe(n: int, leader: bool) -> tuple[float, float, float]:
    scenario = cubic_ring(n, leader)
    tracemalloc.start()
    comp = _Compiled(scenario)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    y = _flatten(scenario.initial)
    dt = scenario.integrator.dt
    rhs_us = best_us(lambda: comp.rhs(0.0, y))
    state = comp.rk4(0.0, y, dt)
    return peak / 2**20, rhs_us, best_us(lambda: comp.rk4(0.0, state, dt))


def main() -> None:
    print(f"numpy {np.__version__}, Python {platform.python_version()}, "
          f"{platform.machine()} {platform.system()}")
    print(f"{'N':>8} {'leader':>7} {'build peak MB':>14} {'rhs us':>10} {'rk4 step us':>12} "
          f"{'step/rhs':>9}")
    for n in SIZES:
        for leader in (False, True):
            peak_mb, rhs_us, step_us = probe(n, leader)
            print(f"{n:>8} {'yes' if leader else 'no':>7} {peak_mb:>14.3f} "
                  f"{rhs_us:>10.1f} {step_us:>12.1f} {step_us / rhs_us:>9.2f}")


if __name__ == "__main__":
    main()
