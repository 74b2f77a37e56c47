#!/usr/bin/env python3
"""Time the compiled integration kernel on rings of growing size.

For each agent count N this builds two ring profiles (1-D, unit weights),
each once leaderless and once with agent 1 linked to a leader:

- ``cubic``: unit masses, constant unit gains, linear velocity feedback,
  cubic coupling;
- ``fig2a``: the protocol of the fig2a scenario, repeated around the ring:
  sine-perturbed velocity feedback (omega 0.5), cosine-rippled gains
  0.2k + 0.15 cos t and masses 0.1k for k = 1..6, cubic coupling;

and prints for each:

- the peak memory traced while lowering the scenario to its compiled form,
  work buffers and gain schedule included;
- microseconds per right-hand-side evaluation, as a step makes it;
- microseconds per RK4 step, taken as ``simulate`` runs them, through the
  run loop: stage arithmetic, the gain schedule computed once per block,
  and the per-sample finiteness check;
- the RK4 step time over the RHS time: 4 is the floor, as one step makes
  four RHS evaluations, and what lies above it is the stage arithmetic and
  the run loop's own work.

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
from consensim.dynamics import _Compiled, _flatten, _integrate

SIZES = (6, 500, 5000, 50000)
DT = 1e-3


def ring(n: int, leader: bool, profile: str) -> Scenario:
    edges = [(i, i % n + 1, 1.0) for i in range(1, n + 1)]
    if profile == "cubic":
        velocity, masses = VelocityShape(), (1.0,) * n
        gains = (GainProfile(b0=1.0),) * n
    else:
        velocity = VelocityShape(kind="sine_perturbed", omega=0.5)
        masses = tuple(0.1 * (1 + i % 6) for i in range(n))
        gains = tuple(GainProfile(kind="cosine", b0=0.2 * (1 + i % 6), amplitude=0.15)
                      for i in range(n))
    extra = ({"leader_velocity": velocity, "leader_gain": gains[0]} if leader else {})
    return Scenario(
        mode=Mode.LEADER if leader else Mode.LEADERLESS,
        masses=masses,
        topology=build_topology(n, edges, leader_links=[(1, 1.0)] if leader else ()),
        protocol=ProtocolSpec(velocity=velocity, coupling=CouplingShape(kind="linear_plus_cubic"),
                              gains=gains, **extra),
        initial=SystemState(t=0.0, p=np.sin(np.arange(n)), q=np.zeros(n),
                            leader=LeaderState(np.ones(1), np.full(1, 0.5)) if leader else None),
        integrator=IntegratorSettings(dt=DT, t_end=DT, record_every=1),
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


def probe(scenario: Scenario) -> tuple[float, float, float]:
    tracemalloc.start()
    comp = _Compiled(scenario)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    y = _flatten(scenario.initial)
    comp.state[:] = y
    stage, gain = comp.stages[0], comp.gains((0.0,))[0, 0]
    rhs_us = best_us(lambda: comp.accel(stage, gain))
    # Enough steps for a run of many schedule blocks at small N, recorded
    # only at its end, as a long run records rarely.
    steps = max(10, 20000 // scenario.n_agents)
    iset = IntegratorSettings(dt=DT, t_end=steps * DT, record_every=steps)
    step_us = best_us(lambda: _integrate(comp, y, iset)) / steps
    return peak / 2**20, rhs_us, step_us


def main() -> None:
    print(f"numpy {np.__version__}, Python {platform.python_version()}, "
          f"{platform.machine()} {platform.system()}")
    print(f"{'N':>8} {'profile':>8} {'leader':>7} {'build peak MB':>14} {'rhs us':>10} "
          f"{'rk4 step us':>12} {'step/rhs':>9}")
    for n in SIZES:
        for profile in ("cubic", "fig2a"):
            for leader in (False, True):
                peak_mb, rhs_us, step_us = probe(ring(n, leader, profile))
                print(f"{n:>8} {profile:>8} {'yes' if leader else 'no':>7} {peak_mb:>14.3f} "
                      f"{rhs_us:>10.1f} {step_us:>12.1f} {step_us / rhs_us:>9.2f}")


if __name__ == "__main__":
    main()
