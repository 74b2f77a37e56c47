#!/usr/bin/env python3
"""Time the compiled integration kernel on rings of growing size.

For each agent count N this builds three ring profiles (1-D, unit
weights), each once leaderless and once with agent 1 linked to a leader:

- ``cubic``: unit masses, constant unit gains, linear velocity feedback,
  cubic coupling;
- ``fig2a``: the protocol of the fig2a scenario, repeated around the ring:
  sine-perturbed velocity feedback (omega 0.5), cosine-rippled gains
  0.2k + 0.15 cos t and masses 0.1k for k = 1..6, cubic coupling;
- ``fig3``: the fig3a shape: the fig2a protocol with unit masses;

and prints for each:

- the peak memory traced while lowering the scenario to its compiled form,
  work buffers and gain schedule included;
- the numpy calls one RK4 step makes: every ``multiply``, ``add``,
  ``subtract``, ``sin`` and ``bincount`` call, counted through wrappers
  that one compile binds in place of numpy's, plus one ``take`` per stage;
- microseconds per right-hand-side evaluation, as a step makes it;
- microseconds per RK4 step of the numpy kernel, taken through its run
  loop ``_Compiled.advance``: stage arithmetic and the gain schedule
  computed once per block;
- the RK4 step time over the RHS time: 4 is the floor, as one step makes
  four RHS evaluations, and what lies above it is the stage arithmetic and
  the run loop's own work;

and, at N = 6 and N = 500, the same steps in the generated straight-line
Python float code that ``simulate`` runs for small runs:

- microseconds per RK4 step through ``_Compiled.advance_generated``, its
  run loop, with its run function generated beforehand;
- milliseconds to generate and compile the run function;
- the break-even: the steps after which a run through the generated step,
  generation included, is faster than the numpy kernel; "never" where the
  generated step is the slower. These are the numbers behind the size rule
  in ``consensim.dynamics._generates``; a run shorter than its break-even
  pays for the generation.

It first prints the numpy calls per RK4 step of the four shipped
scenarios.

Times are the best of several repeats of a loop sized to about 0.2 s, so
they approach the unloaded speed of the machine. Run from the repository
root:

    PYTHONPATH=src python scripts/bench_kernel.py
"""

import collections
import math
import platform
import time
import tracemalloc

import numpy as np

from consensim import (CouplingShape, GainProfile, IntegratorSettings, LeaderState,
                       Mode, ProtocolSpec, Scenario, SystemState, VelocityShape,
                       build_topology, bundled_scenario_path, parse_scenario)
from consensim.dynamics import _Compiled, _flatten

SIZES = (6, 500, 5000, 50000)
GENERATED_SIZES = (6, 500)
DT = 1e-3
COUNTED = ("multiply", "add", "subtract", "sin", "bincount")


def ring(n: int, leader: bool, profile: str) -> Scenario:
    edges = [(i, i % n + 1, 1.0) for i in range(1, n + 1)]
    if profile == "cubic":
        velocity, masses = VelocityShape(), (1.0,) * n
        gains = (GainProfile(b0=1.0),) * n
    else:
        velocity = VelocityShape(kind="sine_perturbed", omega=0.5)
        masses = (tuple(0.1 * (1 + i % 6) for i in range(n)) if profile == "fig2a"
                  else (1.0,) * n)
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


def calls_per_step(scenario: Scenario) -> int:
    """The numpy calls one RK4 step of the compiled scenario makes."""
    counts = collections.Counter()
    originals = {name: getattr(np, name) for name in COUNTED}

    def counting(name: str):
        def call(*args):
            counts[name] += 1
            return originals[name](*args)
        return call

    try:
        for name in COUNTED:
            setattr(np, name, counting(name))
        comp = _Compiled(scenario)
    finally:
        for name, fn in originals.items():
            setattr(np, name, fn)
    comp.state[:] = _flatten(scenario.initial)
    table = comp.gains((0.0,))
    counts.clear()
    comp.step(table[0, 0], table[0, 1], table[0, 2])
    return sum(counts.values()) + 4 * (comp.n_edges > 0)


def run_us(comp: _Compiled, y: np.ndarray, steps: int, generated: bool) -> float:
    """Microseconds per step of a run of ``steps`` steps from state vector
    y, through the numpy or the generated run loop; the generated one reuses
    one generated run function, so its time leaves the generation out."""
    if generated:
        cached = comp.generate()
        comp.generate = lambda: cached

    def run():
        comp.state[:] = y
        for _ in comp.advance_generated(steps, steps) if generated else comp.advance(0, steps, steps):
            pass
    return best_us(run) / steps


def probe(scenario: Scenario) -> tuple:
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
    step_us = run_us(comp, y, steps, generated=False)
    if scenario.n_agents not in GENERATED_SIZES:
        return peak / 2**20, rhs_us, step_us, None
    generate_us = best_us(comp.generate, repeats=3)
    generated_us = run_us(comp, y, steps, generated=True)
    return peak / 2**20, rhs_us, step_us, (generated_us, generate_us)


def break_even(step_us: float, generated_us: float, generate_us: float) -> str:
    if generated_us >= step_us:
        return "never"
    return f"{math.ceil(generate_us / (step_us - generated_us))}"


def main() -> None:
    print(f"numpy {np.__version__}, Python {platform.python_version()}, "
          f"{platform.machine()} {platform.system()}")
    shipped = ("fig2a", "fig2b", "fig3a", "fig3b")
    print("numpy calls per RK4 step: " + ", ".join(
        f"{name} {calls_per_step(parse_scenario(bundled_scenario_path(name)))}"
        for name in shipped))
    print(f"{'N':>8} {'profile':>8} {'leader':>7} {'build peak MB':>14} {'calls/step':>11} "
          f"{'rhs us':>10} {'rk4 step us':>12} {'step/rhs':>9} {'generated us':>13} "
          f"{'generate ms':>12} {'break-even':>11}")
    for n in SIZES:
        for profile in ("cubic", "fig2a", "fig3"):
            for leader in (False, True):
                scenario = ring(n, leader, profile)
                peak_mb, rhs_us, step_us, generated = probe(scenario)
                row = (f"{n:>8} {profile:>8} {'yes' if leader else 'no':>7} {peak_mb:>14.3f} "
                       f"{calls_per_step(scenario):>11} {rhs_us:>10.1f} {step_us:>12.1f} "
                       f"{step_us / rhs_us:>9.2f}")
                if generated is not None:
                    generated_us, generate_us = generated
                    row += (f" {generated_us:>13.1f} {generate_us / 1e3:>12.2f} "
                            f"{break_even(step_us, generated_us, generate_us):>11}")
                print(row)

if __name__ == "__main__":
    main()
