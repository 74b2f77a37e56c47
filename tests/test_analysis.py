"""Energy series, the tracking-weight bound, conserved quantity,
closed-form predictions, and consensus detection."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensim import (CouplingShape, GainProfile, IntegratorSettings, LeaderState,
                       Mode, Prediction, ProtocolSpec, Scenario, SystemState, Trajectory,
                       VelocityShape, build_topology, bundled_scenario_path,
                       conservation_drift, conserved_series, detect_consensus,
                       leader_closed_form, lyapunov_series, parse_scenario,
                       predict_consensus, simulate, tracking_gain_lower_bound)
from consensim.errors import HypothesisViolated, InvalidBounds

SECTOR_LO = 0.8913831858943891


def pair_spec(coupling="linear", gains=(1.0, 1.0), leader=False):
    kwargs = {}
    if leader:
        kwargs = {"leader_velocity": VelocityShape(), "leader_gain": GainProfile(b0=1.0)}
    return ProtocolSpec(velocity=VelocityShape(), coupling=CouplingShape(kind=coupling),
                        gains=tuple(GainProfile(b0=g) for g in gains), **kwargs)


def trajectory_of(samples, fingerprint):
    """Trajectory holding the given SystemStates, all with or all without a leader."""
    leaders = [s.leader for s in samples if s.leader is not None]
    return Trajectory(np.array([s.t for s in samples]), np.stack([s.p for s in samples]),
                      np.stack([s.q for s in samples]),
                      np.stack([lead.p for lead in leaders]) if leaders else None,
                      np.stack([lead.q for lead in leaders]) if leaders else None, fingerprint)


def energy_at(state, topo, spec, masses, mode=Mode.LEADERLESS, leader_weight=None):
    """lyapunov_series of the one-sample trajectory holding ``state``."""
    scenario = Scenario(mode=mode, masses=masses, topology=topo, protocol=spec, initial=state)
    return float(lyapunov_series(trajectory_of([state], "-"), scenario, leader_weight)[0])


def test_leaderless_energy_hand_computed():
    # Kinetic 0.5*(2*1 + 1*1) = 1.5; one unit edge at gap 1 adds
    # 0.5*(H(1) + H(-1)) with H(x) = x^2/2, i.e. 0.5.
    topo = build_topology(2, [(1, 2, 1.0)])
    state = SystemState(t=0.0, p=[0.0, 1.0], q=[1.0, 1.0])
    assert energy_at(state, topo, pair_spec(), (2.0, 1.0)) == pytest.approx(2.0)
    # Quartic term raises the edge contribution to H(1) = 3/4.
    cubic = pair_spec(coupling="linear_plus_cubic")
    assert energy_at(state, topo, cubic, (2.0, 1.0)) == pytest.approx(2.25)


def test_leaderless_energy_zero_only_at_agreement_at_rest():
    topo = build_topology(2, [(1, 2, 1.0)])
    rest = SystemState(t=0.0, p=[3.0, 3.0], q=[0.0, 0.0])
    assert energy_at(rest, topo, pair_spec(), (1.0, 1.0)) == 0.0
    moving = SystemState(t=0.0, p=[3.0, 3.0], q=[0.0, 1e-3])
    assert energy_at(moving, topo, pair_spec(), (1.0, 1.0)) > 0.0


def test_tracking_energy_hand_computed():
    # Unit gain and sector envelopes, leader weight 4: with p = (1, 2),
    # q = (1, 1), leader at (3, 2): 4/2*2^2 + (1+1) + 2*H(-2) + (H(1)+H(-1))
    # = 8 + 2 + 4 + 1 = 15 for H(x) = x^2/2.
    topo = build_topology(2, [(1, 2, 1.0)], leader_links=[(1, 1.0)])
    state = SystemState(t=0.0, p=[1.0, 2.0], q=[1.0, 1.0],
                        leader=LeaderState(np.array([3.0]), np.array([2.0])))
    value = energy_at(state, topo, pair_spec(leader=True), (1.0, 1.0), Mode.LEADER, 4.0)
    assert value == pytest.approx(15.0, abs=1e-14)

    with pytest.raises(HypothesisViolated):
        energy_at(SystemState(t=0.0, p=[1.0, 2.0], q=[1.0, 1.0]),
                  topo, pair_spec(leader=True), (1.0, 1.0), Mode.LEADER, 4.0)
    # A gain envelope reaching 0 leaves the tracking energy undefined.
    with pytest.raises(HypothesisViolated):
        energy_at(state, topo, pair_spec(gains=(0.0, 1.0), leader=True), (1.0, 1.0),
                  Mode.LEADER, 4.0)


def test_tracking_gain_lower_bound_values():
    # All-ones envelopes collapse the formula to 2*N*(1 + 3 + 2).
    assert tracking_gain_lower_bound(1, 1.0, 1.0, 1.0, 1.0) == pytest.approx(12.0)
    assert tracking_gain_lower_bound(
        5, 0.05, 1.15, SECTOR_LO, 1.5) == pytest.approx(30376.866560520557, rel=1e-14)


@given(st.integers(min_value=1, max_value=40))
def test_tracking_gain_bound_is_linear_in_agent_count(n):
    one = tracking_gain_lower_bound(1, 0.3, 0.8, 0.9, 1.5)
    assert tracking_gain_lower_bound(n, 0.3, 0.8, 0.9, 1.5) == pytest.approx(n * one)


def test_tracking_gain_bound_rejects_bad_envelopes():
    with pytest.raises(InvalidBounds):
        tracking_gain_lower_bound(0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidBounds):
        tracking_gain_lower_bound(2, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidBounds):
        tracking_gain_lower_bound(2, 1.0, 0.5, 1.0, 1.0)
    with pytest.raises(InvalidBounds):
        tracking_gain_lower_bound(2, 0.5, 1.0, 1.5, 1.0)


def chain6_scenario():
    edges = [(i, i + 1, 0.2 * (2 * i + 1)) for i in range(1, 6)]
    return Scenario(
        mode=Mode.LEADERLESS,
        masses=tuple(0.1 * i for i in range(1, 7)),
        topology=build_topology(6, edges),
        protocol=ProtocolSpec(
            velocity=VelocityShape(),
            coupling=CouplingShape(kind="linear_plus_cubic"),
            gains=tuple(GainProfile(b0=0.2 * i) for i in range(1, 7))),
        initial=SystemState(t=0.0, p=[0.2 * i for i in range(1, 7)],
                            q=[0.3 * i for i in range(1, 7)]),
        integrator=IntegratorSettings(dt=1e-3, t_end=2.0, record_every=100),
    )


def test_conserved_quantity_hand_computed():
    # sum(b_i p_i + m_i q_i) = 0.2*sum(0.2 i^2) + 0.1*sum(0.3 i^2) over
    # i = 1..6 -> (0.04 + 0.03)*91 = 6.37.
    scenario = chain6_scenario()
    value = conserved_series(trajectory_of([scenario.initial], "-"), scenario)[0]
    np.testing.assert_allclose(value, [6.37], rtol=1e-14)
    predicted = predict_consensus(scenario).value
    np.testing.assert_allclose(predicted, [6.37 / 4.2], rtol=1e-14)


def test_predicted_consensus_leader_is_leader_limit():
    # Leader gain 0.6, leader starting at p = 1.0 with q = 0.3.
    protocol = ProtocolSpec(velocity=VelocityShape(), coupling=CouplingShape(),
                            gains=(GainProfile(b0=0.5),), leader_velocity=VelocityShape(),
                            leader_gain=GainProfile(b0=0.6))
    scenario = Scenario(
        mode=Mode.LEADER, masses=(1.0,), topology=build_topology(1, [], leader_links=[(1, 1.0)]),
        protocol=protocol,
        initial=SystemState(t=0.0, p=[0.0], q=[0.0],
                            leader=LeaderState(np.array([1.0]), np.array([0.3]))))
    predicted = predict_consensus(scenario).value
    np.testing.assert_allclose(predicted, [1.5], rtol=1e-15)
    limit_p, _ = leader_closed_form(1.0, 0.3, 0.6, 1e9)
    np.testing.assert_allclose(predicted, limit_p, atol=1e-12)


def test_conservation_holds_along_simulated_run():
    scenario = chain6_scenario()
    traj = simulate(scenario)
    values = conserved_series(traj, scenario)
    assert values.shape == (len(traj.t), 1)
    assert np.abs(values - 6.37).max() < 1e-10
    assert conservation_drift(traj, scenario) < 1e-10


def test_energy_series_is_nonincreasing_on_simulated_run():
    scenario = chain6_scenario()
    traj = simulate(scenario)
    values = lyapunov_series(traj, scenario)
    steps = np.diff(values)
    assert np.all(steps <= 1e-9 * (1.0 + values[:-1]))
    assert values[-1] < values[0]


def loop_energy(state, topo, spec, masses, leader_weight, bk):
    """Per-edge loop reference of both energies (leader terms when the state
    has a leader, with unit masses)."""
    anti = spec.coupling.antiderivative
    if state.leader is None:
        value = 0.5 * sum(m * float(q @ q) for m, q in zip(masses, state.q))
        for i, j, w in topo.edges:
            value += w * float(np.sum(anti(state.p[j] - state.p[i])))
        return value
    p_err, q_err = state.p - state.leader.p, state.q - state.leader.q
    value = leader_weight / (2.0 * bk) * float(state.leader.q @ state.leader.q)
    value += float(np.sum(q_err * q_err)) / bk
    for i, w in topo.leader_links:
        value += 2.0 / bk * w * float(np.sum(anti(p_err[i])))
    for i, j, w in topo.edges:
        value += 2.0 / bk * w * float(np.sum(anti(p_err[j] - p_err[i])))
    return value


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("coupling", ["linear", "linear_plus_cubic"])
@pytest.mark.parametrize("leader", [False, True], ids=["leaderless", "leader"])
def test_energy_series_equals_per_state_energies(leader, coupling, dims):
    rng = np.random.default_rng([int(leader), len(coupling), dims])
    n = 6
    edges = [(k, k + 1, float(rng.uniform(0.2, 2.0))) for k in range(1, n)] + [(1, 4, 0.9)]
    topo = build_topology(n, edges, leader_links=[(1, 0.7), (4, 1.3)] if leader else ())
    gains = tuple(GainProfile(kind="cosine", b0=float(b), amplitude=0.2)
                  for b in rng.uniform(0.5, 1.5, n))
    extra = {"leader_velocity": VelocityShape(), "leader_gain": GainProfile(b0=0.8)} if leader else {}
    spec = ProtocolSpec(velocity=VelocityShape(), coupling=CouplingShape(kind=coupling),
                        gains=gains, **extra)
    samples = tuple(
        SystemState(t=0.5 * k, p=rng.normal(size=(n, dims)), q=rng.normal(size=(n, dims)),
                    leader=LeaderState(rng.normal(size=dims), rng.normal(size=dims))
                    if leader else None)
        for k in range(7))
    masses = (1.0,) * n if leader else tuple(rng.uniform(0.5, 2.0, n))
    scenario = Scenario(mode=Mode.LEADER if leader else Mode.LEADERLESS, masses=masses,
                        topology=topo, protocol=spec, initial=samples[0])
    values = lyapunov_series(trajectory_of(samples, "-"), scenario, leader_weight=25.0)
    gain_lower = spec.envelopes[2][0]
    assert values.shape == (len(samples),)
    # Every term is nonnegative, so reordering the sums moves only the last bits.
    looped = [loop_energy(s, topo, spec, masses, 25.0, gain_lower) for s in samples]
    np.testing.assert_allclose(values, looped, rtol=1e-14, atol=0.0)


def test_energy_series_memory_is_bounded_on_dense_graph_with_many_samples():
    # Complete graph, 780 edges, 3000 samples: one (samples, edges) temporary
    # of the whole series is 18 MB, and evaluating it at once peaks near 73 MB.
    n, count = 40, 3000
    edges = [(i, j, 1.0) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    spec = ProtocolSpec(velocity=VelocityShape(),
                        coupling=CouplingShape(kind="linear_plus_cubic"),
                        gains=(GainProfile(b0=1.0),) * n)
    rng = np.random.default_rng(7)
    samples = tuple(SystemState(t=0.01 * k, p=rng.normal(size=n), q=rng.normal(size=n))
                    for k in range(count))
    topo = build_topology(n, edges)
    scenario = Scenario(mode=Mode.LEADERLESS, masses=(1.0,) * n, topology=topo,
                        protocol=spec, initial=samples[0])
    traj = trajectory_of(samples, "-")
    topo.edge_arrays
    tracemalloc.start()
    try:
        series = lyapunov_series(traj, scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    expected = [energy_at(s, topo, spec, scenario.masses) for s in samples]
    np.testing.assert_allclose(series, expected, rtol=1e-14, atol=0.0)


def test_predict_consensus_gates():
    scenario = chain6_scenario()
    assert predict_consensus(scenario).available
    np.testing.assert_allclose(predict_consensus(scenario).value, [6.37 / 4.2],
                               rtol=1e-14)

    nonlinear = dataclasses.replace(
        scenario, protocol=dataclasses.replace(
            scenario.protocol, velocity=VelocityShape(kind="sine_perturbed", omega=0.5)))
    verdict = predict_consensus(nonlinear)
    assert not verdict.available
    assert "nonlinear velocity feedback" in verdict.reason

    wavy = dataclasses.replace(
        scenario, protocol=dataclasses.replace(
            scenario.protocol,
            gains=(GainProfile(kind="cosine", b0=0.5, amplitude=0.1),) * 6))
    assert "time-varying gains" in predict_consensus(wavy).reason


def test_predict_consensus_refuses_nonpositive_follower_gain():
    scenario = chain6_scenario()
    gains = (GainProfile(b0=-0.2),) + scenario.protocol.gains[1:]
    stalled = dataclasses.replace(
        scenario, protocol=dataclasses.replace(scenario.protocol, gains=gains))
    assert predict_consensus(stalled) == Prediction(None, "gains must be finite and > 0")


def test_predict_consensus_refuses_nonpositive_leader_gain():
    scenario = parse_scenario(bundled_scenario_path("fig3b"), validate=False)
    reversed_leader = dataclasses.replace(
        scenario, protocol=dataclasses.replace(scenario.protocol,
                                               leader_gain=GainProfile(b0=-0.5)))
    assert predict_consensus(reversed_leader) == Prediction(
        None, "prediction needs a positive constant leader gain, got -0.5")


def test_predict_consensus_refuses_leaderless_scenario_carrying_a_leader():
    scenario = chain6_scenario()
    initial = scenario.initial
    led = dataclasses.replace(scenario, initial=dataclasses.replace(
        initial, leader=LeaderState(np.array([0.0]), np.array([0.0]))))
    assert predict_consensus(led) == Prediction(
        None, "conserved quantity is a leaderless construction")


def synthetic_trajectory(spread_speed_pairs, leader=None):
    samples = []
    for idx, (spread, speed) in enumerate(spread_speed_pairs):
        center = 1.5
        samples.append(SystemState(
            t=float(idx), p=[center - spread / 2, center + spread / 2],
            q=[speed, -speed],
            leader=None if leader is None else LeaderState(np.array([leader]),
                                                           np.array([0.0]))))
    return trajectory_of(samples, "synthetic")


def test_detect_consensus_trailing_run():
    traj = synthetic_trajectory([(1.0, 1.0), (0.5, 0.5), (1e-4, 1e-4), (1e-5, 1e-5)])
    report = detect_consensus(traj, 1e-3, 1e-3)
    assert report.achieved
    assert report.t_consensus == 2.0
    assert report.final_spread == pytest.approx(1e-5)
    np.testing.assert_allclose(report.observed_value, [1.5], atol=1e-12)
    assert report.predicted_value is None
    assert report.prediction_reason == "no scenario attached"


def test_detect_consensus_requires_staying_converged():
    dipped = synthetic_trajectory([(1e-5, 1e-5), (0.5, 0.5)])
    report = detect_consensus(dipped, 1e-3, 1e-3)
    assert not report.achieved
    assert report.t_consensus is None

    recovered = synthetic_trajectory([(1e-5, 1e-5), (0.5, 0.5), (1e-5, 1e-5)])
    assert detect_consensus(recovered, 1e-3, 1e-3).t_consensus == 2.0


def loop_verdict(traj, pos_tol, vel_tol):
    """Plain per-sample reference of detect_consensus: (achieved,
    t_consensus, final_spread, final_speed)."""
    spreads, speeds = [], []
    for k in range(len(traj.t)):
        p, q = traj.p[k], traj.q[k]
        if traj.leader_p is None:
            spreads.append(float((p.max(axis=0) - p.min(axis=0)).max()))
            speeds.append(float(np.abs(q).max()))
        else:
            spreads.append(float(np.abs(p - traj.leader_p[k]).max()))
            speeds.append(float(np.abs(q - traj.leader_q[k]).max()))
    start = len(spreads)
    while start > 0 and spreads[start - 1] <= pos_tol and speeds[start - 1] <= vel_tol:
        start -= 1
    achieved = start < len(spreads)
    return achieved, float(traj.t[start]) if achieved else None, spreads[-1], speeds[-1]


def ok_patterns(n):
    return st.one_of(st.lists(st.booleans(), min_size=n, max_size=n),
                     st.just([True] * n), st.just([False] * (n - 1) + [True]),
                     st.just([True] * (n - 1) + [False]))


@settings(max_examples=200, deadline=None)
@given(flags=st.integers(1, 30).flatmap(ok_patterns), leader=st.booleans(), data=st.data())
def test_detect_consensus_matches_per_sample_loop(flags, leader, data):
    # Converged samples sit well inside the 1e-3 tolerances and the others
    # well outside at least one of them, so the flags are the verdicts; with
    # the leader at the center the measured spread is half the drawn one.
    small = st.floats(0.0, 5e-4)
    large = st.floats(4e-3, 10.0)
    pairs = []
    for ok in flags:
        if ok:
            pairs.append((data.draw(small), data.draw(small)))
        else:
            broken = data.draw(st.sampled_from(["spread", "speed", "both"]))
            pairs.append((data.draw(large if broken != "speed" else small),
                          data.draw(large if broken != "spread" else small)))
    traj = synthetic_trajectory(pairs, leader=1.5 if leader else None)
    report = detect_consensus(traj, 1e-3, 1e-3)
    verdict = (report.achieved, report.t_consensus, report.final_spread, report.final_speed)
    assert verdict == loop_verdict(traj, 1e-3, 1e-3)
    start = len(flags) - next((k for k, ok in enumerate(reversed(flags)) if not ok), len(flags))
    assert report.achieved == flags[-1]
    assert report.t_consensus == (float(start) if flags[-1] else None)


def test_detect_consensus_is_leader_relative():
    # Two followers straddling 1.5 while the leader sits at 10: position
    # spread is measured to the leader, so consensus must fail.
    traj = synthetic_trajectory([(1e-5, 1e-5)], leader=10.0)
    report = detect_consensus(traj, 1e-3, 1e-3)
    assert not report.achieved
    assert report.final_spread == pytest.approx(10.0 - (1.5 - 5e-6), abs=1e-12)


def test_detect_consensus_rejects_bad_tolerances():
    traj = synthetic_trajectory([(1.0, 1.0)])
    with pytest.raises(ValueError):
        detect_consensus(traj, 0.0, 1e-3)


def test_leader_energy_series_uses_default_weight():
    topo = build_topology(1, [], leader_links=[(1, 1.0)])
    scenario = Scenario(
        mode=Mode.LEADER, masses=(1.0,), topology=topo,
        protocol=pair_spec(gains=(0.5,), leader=True),
        initial=SystemState(t=0.0, p=[0.0], q=[0.0],
                            leader=LeaderState(np.array([1.0]), np.array([0.3]))),
        integrator=IntegratorSettings(dt=1e-3, t_end=2.0, record_every=200))
    traj = simulate(scenario)
    values = lyapunov_series(traj, scenario)
    steps = np.diff(values)
    assert np.all(steps <= 1e-9 * (1.0 + values[:-1]))

    with pytest.raises(HypothesisViolated):
        conserved_series(traj, scenario)
