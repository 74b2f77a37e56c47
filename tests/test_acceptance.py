"""Acceptance gates for the package: nine criteria over the bundled
scenarios plus integrator, graph, and predictor oracles. Each test prints
one PASS/FAIL line with the measured numbers.

The two tracking criteria (2 and 4) are asserted at horizon t_end=50 with
tolerances 1e-3 (position) and 1e-4 (velocity). The slowest tracking-error
mode of those scenarios decays at roughly exp(-0.089 t), which crosses the
position tolerance only near t=80; the numbers below therefore document a
genuine shortfall at t=50, reproduced identically by an independent
high-order integrator. The bundled files integrate to t_end=100, where both
scenarios do settle inside the tolerances.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from consensim import (CouplingShape, GainProfile, IntegratorSettings, LeaderState,
                       Mode, ProtocolSpec, Scenario, SystemState, VelocityShape,
                       build_topology, bundled_scenario_path, conservation_drift,
                       detect_consensus, is_connected, leader_closed_form_for,
                       leader_reaches_all, lyapunov_series, parse_scenario,
                       predict_consensus, simulate)

CHAIN_CONSENSUS_VALUE = 1.516667
TRACKING_LIMIT = 1.5
POS_TOL = 1e-3
VEL_TOL = 1e-4
MONOTONE_SLACK = 1e-9


def report(criterion: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {criterion} [{label}]: {verdict} ({detail})")
    assert ok, f"criterion {criterion} [{label}]: {detail}"


def bundled(name: str, t_end=None) -> Scenario:
    scenario = parse_scenario(bundled_scenario_path(name))
    if t_end is not None and t_end != scenario.integrator.t_end:
        scenario = dataclasses.replace(
            scenario,
            integrator=dataclasses.replace(scenario.integrator, t_end=t_end))
    return scenario


@pytest.fixture(scope="module")
def fig2b_run():
    scenario = bundled("fig2b")
    return scenario, simulate(scenario)


@pytest.fixture(scope="module")
def fig2a_run():
    scenario = bundled("fig2a")
    return scenario, simulate(scenario)


@pytest.fixture(scope="module")
def fig3b_run():
    scenario = bundled("fig3b", t_end=50.0)
    return scenario, simulate(scenario)


@pytest.fixture(scope="module")
def fig3a_run():
    scenario = bundled("fig3a", t_end=50.0)
    return scenario, simulate(scenario)


def test_criterion_1_chain_settles_on_closed_form_value(fig2b_run):
    scenario, traj = fig2b_run
    pos_err = float(np.abs(traj.p[-1] - CHAIN_CONSENSUS_VALUE).max())
    speed = float(np.abs(traj.q[-1]).max())
    ok = pos_err <= POS_TOL and speed <= VEL_TOL
    report(1, "chain consensus value", ok,
           f"max|p - {CHAIN_CONSENSUS_VALUE}| = {pos_err:.3e} (tol {POS_TOL}), "
           f"max|q| = {speed:.3e} (tol {VEL_TOL}) at t={traj.t[-1]:g}")


def test_criterion_2_tracking_with_constant_leader_gain(fig3b_run):
    scenario, traj = fig3b_run
    pos_err = float(np.abs(traj.p[-1] - TRACKING_LIMIT).max())
    speed = float(np.abs(traj.q[-1]).max())
    ok = pos_err <= POS_TOL and speed <= VEL_TOL
    report(2, "tracking toward leader limit", ok,
           f"max|p - {TRACKING_LIMIT}| = {pos_err:.3e} (tol {POS_TOL}), "
           f"max|q| = {speed:.3e} (tol {VEL_TOL}) at t={traj.t[-1]:g}; "
           f"thresholds are first met near t=80, see the bundled t_end=100 run")


def test_criterion_3_nonlinear_chain_reaches_consensus(fig2a_run):
    scenario, traj = fig2a_run
    verdict = detect_consensus(traj, 1e-3, 1e-3, scenario)
    ok = verdict.achieved and verdict.predicted_value is None
    report(3, "nonlinear consensus, no value claimed", ok,
           f"achieved={verdict.achieved} from t={verdict.t_consensus}, "
           f"final spread {verdict.final_spread:.3e}, "
           f"prediction gated: {verdict.prediction_reason!r}")


def test_criterion_4_tracking_with_time_varying_leader_gain(fig3a_run):
    scenario, traj = fig3a_run
    pos_err = float(np.abs(traj.p[-1] - traj.leader_p[-1]).max())
    vel_err = float(np.abs(traj.q[-1] - traj.leader_q[-1]).max())
    ok = pos_err <= POS_TOL and vel_err <= POS_TOL
    report(4, "tracking errors, wavy leader gain", ok,
           f"max|p - p_L| = {pos_err:.3e}, max|q - q_L| = {vel_err:.3e} "
           f"(tol {POS_TOL}) at t={traj.t[-1]:g}; "
           f"thresholds are first met near t=80, see the bundled t_end=100 run")


def test_criterion_5_conserved_quantity_stays_flat(fig2b_run):
    scenario, traj = fig2b_run
    drift = conservation_drift(traj, scenario)
    ok = drift <= 1e-6
    report(5, "conserved quantity drift", ok,
           f"max relative drift {drift:.3e} (tol 1e-06) over t in [0, 50]")


def monotone_gap(traj, scenario):
    values = lyapunov_series(traj, scenario)
    steps = np.diff(values)
    slack = MONOTONE_SLACK * (1.0 + values[:-1])
    return float((steps - slack).max()), float(values[0]), float(values[-1])


def test_criterion_6_energy_never_increases(fig2b_run, fig2a_run, fig3b_run):
    details = []
    ok = True
    for label, (scenario, traj) in (("linear chain", fig2b_run),
                                    ("nonlinear chain", fig2a_run),
                                    ("tracking", fig3b_run)):
        gap, v0, v_end = monotone_gap(traj, scenario)
        ok = ok and gap <= 0.0
        details.append(f"{label}: worst step-slack gap {gap:.3e}, V {v0:.4g} -> {v_end:.4g}")
    report(6, "energy monotone along runs", ok, "; ".join(details))


def leader_pair_scenario(leader_gain: float, dt: float, t_end: float,
                         leader_q0: float = 0.3) -> Scenario:
    steps = round(t_end / dt)
    return Scenario(
        mode=Mode.LEADER,
        masses=(1.0,),
        topology=build_topology(1, [], leader_links=[(1, 1.0)]),
        protocol=ProtocolSpec(
            velocity=VelocityShape(),
            coupling=CouplingShape(),
            gains=(GainProfile(b0=0.4),),
            leader_velocity=VelocityShape(),
            leader_gain=GainProfile(b0=leader_gain)),
        initial=SystemState(t=0.0, p=[0.0], q=[0.0],
                            leader=LeaderState(np.array([1.0]), np.array([leader_q0]))),
        integrator=IntegratorSettings(dt=dt, t_end=t_end,
                                      record_every=min(steps, 100)))


def test_criterion_7_closed_form_oracle_and_integrator_order():
    scenario = leader_pair_scenario(leader_gain=0.6, dt=1e-3, t_end=20.0)
    traj = simulate(scenario)
    exact_p, exact_q = leader_closed_form_for(scenario, traj.t)
    gap = max(float(np.abs(traj.leader_p - exact_p).max()),
              float(np.abs(traj.leader_q - exact_q).max()))

    grid = np.array([4e-2, 2e-2, 1e-2])
    errors = []
    for dt in grid:
        fit_scenario = leader_pair_scenario(leader_gain=1.5, dt=float(dt), t_end=1.0,
                                            leader_q0=2.0)
        fit_traj = simulate(fit_scenario)
        errors.append(abs(float(fit_traj.leader_q[-1, 0])
                          - 2.0 * math.exp(-1.5)))
    slope = float(np.polyfit(np.log(grid), np.log(np.array(errors)), 1)[0])

    ok = gap <= 1e-8 and abs(slope - 4.0) <= 0.3
    report(7, "closed-form oracle and step order", ok,
           f"closed-form gap {gap:.3e} (tol 1e-08) over t in [0, 20]; "
           f"error-vs-dt slope {slope:.3f} (want 4 +- 0.3)")


def frontier_reachable(n, pairs, starts):
    adjacency = {i: set() for i in range(n)}
    for i, j in pairs:
        adjacency[i].add(j)
        adjacency[j].add(i)
    seen = set(starts)
    frontier = set(starts)
    while frontier:
        frontier = {j for i in frontier for j in adjacency[i]} - seen
        seen |= frontier
    return seen


def check_graph(n, pairs, links):
    topo = build_topology(n, [(i + 1, j + 1, 1.0) for i, j in pairs],
                          leader_links=[(i + 1, 1.0) for i in links])
    want_connected = (n == 1) or len(frontier_reachable(n, pairs, {0})) == n
    want_reach = bool(links) and len(frontier_reachable(n, pairs, set(links))) == n
    return (is_connected(topo) == want_connected
            and leader_reaches_all(topo) == want_reach)


def test_criterion_8_reachability_agrees_with_exhaustive_search():
    checked = 0
    ok = True
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        link_sets = ([tuple(ls) for r in range(n + 1)
                      for ls in itertools.combinations(range(n), r)]
                     if n <= 4 else [(), (0,), (n - 1,), tuple(range(n))])
        for mask in range(2 ** len(pairs)):
            chosen = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
            for links in link_sets:
                ok = ok and check_graph(n, chosen, links)
                checked += 1

    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        pairs = list(itertools.combinations(range(n), 2))
        chosen = [p for p in pairs if rng.random() < 0.3]
        links = [i for i in range(n) if rng.random() < 0.3]
        ok = ok and check_graph(n, chosen, links)
        checked += 1
    report(8, "connectivity and leader reach oracles", ok,
           f"{checked} topologies checked against an independent search")


def test_criterion_9_random_scenarios_match_prediction():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 5))
        edges = [(int(rng.integers(1, i)), i, float(rng.uniform(0.5, 2.0)))
                 for i in range(2, n + 1)]
        coupling = "linear_plus_cubic" if trial % 2 else "linear"
        scenario = Scenario(
            mode=Mode.LEADERLESS,
            masses=tuple(float(v) for v in rng.uniform(0.1, 1.0, n)),
            topology=build_topology(n, edges),
            protocol=ProtocolSpec(
                velocity=VelocityShape(),
                coupling=CouplingShape(kind=coupling),
                gains=tuple(GainProfile(b0=float(v)) for v in rng.uniform(0.5, 1.5, n))),
            initial=SystemState(t=0.0, p=rng.uniform(-1, 1, n), q=rng.uniform(-1, 1, n)),
            integrator=IntegratorSettings(dt=1e-2, t_end=100.0, record_every=1000))
        predicted = predict_consensus(scenario).value
        assert predicted is not None
        traj = simulate(scenario)
        worst = max(worst, float(np.abs(traj.p[-1] - predicted).max()))
    ok = worst <= 1e-4
    report(9, "random tree scenarios hit the predicted value", ok,
           f"worst |final - predicted| = {worst:.3e} over 20 trials (tol 1e-04)")
