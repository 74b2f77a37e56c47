"""Integrator correctness: fixed points, analytic solutions, convergence
order, determinism, equivariance, blow-up handling, and scenario validation."""

import dataclasses
import hashlib
import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensim import (CouplingShape, GainProfile, IntegratorSettings, LeaderState,
                       Mode, NonFiniteState, NonPositiveWeight, ProtocolSpec, Scenario,
                       SystemState, Topology, TopologyError, Trajectory, VelocityShape,
                       build_topology, bundled_scenario_path, leader_closed_form_for,
                       parse_scenario, parse_scenario_dict, rhs, rk4_step, scenario_fingerprint,
                       scenario_to_dict, simulate, validate_scenario)
import consensim.dynamics
from consensim.dynamics import _Compiled, _flatten
from consensim.errors import HypothesisViolated
from consensim.protocols import GainColumns

import oracle


def leaderless_scenario(n=3, p0=None, q0=None, masses=None, coupling="linear",
                        velocity=None, gains=None, integrator=None, edges=None,
                        leader_links=()):
    edges = edges if edges is not None else [(i, i + 1, 1.0) for i in range(1, n)]
    return Scenario(
        mode=Mode.LEADERLESS,
        masses=tuple(masses) if masses is not None else (1.0,) * n,
        topology=build_topology(n, edges, leader_links=leader_links),
        protocol=ProtocolSpec(
            velocity=velocity if velocity is not None else VelocityShape(),
            coupling=CouplingShape(kind=coupling),
            gains=tuple(gains) if gains is not None else (GainProfile(b0=1.0),) * n,
        ),
        initial=SystemState(t=0.0,
                            p=p0 if p0 is not None else [0.1 * i for i in range(n)],
                            q=q0 if q0 is not None else [0.0] * n),
        integrator=integrator or IntegratorSettings(dt=1e-2, t_end=1.0, record_every=10),
    )


def leader_scenario(n=2, integrator=None):
    return Scenario(
        mode=Mode.LEADER,
        masses=(1.0,) * n,
        topology=build_topology(n, [(i, i + 1, 1.0) for i in range(1, n)],
                                leader_links=[(1, 0.8)]),
        protocol=ProtocolSpec(
            velocity=VelocityShape(kind="sine_perturbed", omega=0.5),
            coupling=CouplingShape(kind="linear_plus_cubic"),
            gains=tuple(GainProfile(kind="cosine", b0=0.5, amplitude=0.1) for _ in range(n)),
            leader_velocity=VelocityShape(),
            leader_gain=GainProfile(b0=0.6),
        ),
        initial=SystemState(t=0.0, p=[0.3 * i for i in range(n)], q=[0.2] * n,
                            leader=LeaderState(np.array([1.0]), np.array([0.3]))),
        integrator=integrator or IntegratorSettings(dt=1e-2, t_end=1.0, record_every=10),
    )


def test_agreement_at_rest_is_a_fixed_point():
    scenario = leaderless_scenario(n=4, p0=[2.0] * 4, q0=[0.0] * 4,
                                   coupling="linear_plus_cubic")
    derivative = rhs(scenario.initial, scenario)
    assert np.all(derivative.p_dot == 0.0)
    assert np.all(derivative.q_dot == 0.0)
    stepped = rk4_step(scenario.initial, scenario)
    np.testing.assert_array_equal(stepped.p, scenario.initial.p)
    np.testing.assert_array_equal(stepped.q, scenario.initial.q)
    assert stepped.t == scenario.integrator.dt


def test_single_damped_agent_matches_exponential():
    # One agent, unit mass and gain, no neighbors: velocity decays as
    # exp(-t) and position approaches p0 + q0.
    scenario = leaderless_scenario(
        n=1, p0=[0.0], q0=[1.0], edges=[],
        integrator=IntegratorSettings(dt=1e-3, t_end=5.0, record_every=500))
    traj = simulate(scenario)
    np.testing.assert_allclose(traj.q[:, 0, 0], np.exp(-traj.t), atol=1e-12)
    np.testing.assert_allclose(traj.p[:, 0, 0], 1.0 - np.exp(-traj.t), atol=1e-12)


def test_rk4_global_error_is_fourth_order():
    errors = []
    for dt in (4e-2, 2e-2, 1e-2):
        steps = round(1.0 / dt)
        scenario = leaderless_scenario(
            n=1, p0=[0.0], q0=[2.0], edges=[],
            gains=[GainProfile(b0=3.0)],
            integrator=IntegratorSettings(dt=dt, t_end=1.0, record_every=steps))
        traj = simulate(scenario)
        errors.append(abs(traj.q[-1, 0, 0] - 2.0 * math.exp(-3.0)))
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 < coarse / fine < 20.0


def test_simulate_is_bitwise_deterministic():
    first = simulate(leader_scenario())
    second = simulate(leader_scenario())
    assert first.scenario_fingerprint == second.scenario_fingerprint
    np.testing.assert_array_equal(first.p, second.p)
    np.testing.assert_array_equal(first.q, second.q)
    np.testing.assert_array_equal(first.leader_p, second.leader_p)
    assert np.array_equal(first.t, second.t)


def test_translation_shifts_positions_only():
    base = leaderless_scenario(n=3, coupling="linear_plus_cubic",
                               q0=[0.5, -0.2, 0.1])
    shift = 7.25
    shifted = dataclasses.replace(
        base, initial=SystemState(t=0.0, p=base.initial.p + shift, q=base.initial.q))
    a, b = simulate(base), simulate(shifted)
    np.testing.assert_allclose(b.p, a.p + shift, atol=1e-10)
    np.testing.assert_allclose(b.q, a.q, atol=1e-10)


@given(st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=50, deadline=None)
def test_rhs_is_translation_invariant(shift):
    scenario = leaderless_scenario(n=3, coupling="linear_plus_cubic",
                                   q0=[0.5, -0.2, 0.1])
    moved = SystemState(t=0.0, p=scenario.initial.p + shift, q=scenario.initial.q)
    np.testing.assert_allclose(rhs(moved, scenario).q_dot,
                               rhs(scenario.initial, scenario).q_dot,
                               atol=1e-9)


def test_blow_up_raises_non_finite_state():
    scenario = leaderless_scenario(
        n=2, p0=[-500.0, 500.0], q0=[0.0, 0.0], masses=[1e-3, 1e-3],
        coupling="linear_plus_cubic", edges=[(1, 2, 50.0)],
        gains=[GainProfile(b0=0.1)] * 2,
        integrator=IntegratorSettings(dt=0.1, t_end=10.0, record_every=10))
    with pytest.raises(NonFiniteState) as excinfo:
        simulate(scenario)
    assert excinfo.value.last_good_time is not None
    assert excinfo.value.last_good_time >= 0.0


@pytest.mark.parametrize("leader", [False, True], ids=["agent", "leader"])
def test_blow_up_names_first_non_finite_agent_and_component(leader):
    # A velocity near the float limit in one coordinate overflows within the
    # first step, while the coupling it induces elsewhere stays finite.
    q0 = np.zeros((3, 2))
    if not leader:
        q0[2, 1] = 1e308
    scenario = leaderless_scenario(
        n=3, p0=np.zeros((3, 2)), q0=q0,
        integrator=IntegratorSettings(dt=0.1, t_end=1.0, record_every=10))
    expected = "agent 3 position, coordinate 2"
    if leader:
        scenario = dataclasses.replace(
            scenario, mode=Mode.LEADER,
            topology=build_topology(3, [(1, 2, 1.0), (2, 3, 1.0)], leader_links=[(1, 1.0)]),
            protocol=dataclasses.replace(scenario.protocol, leader_velocity=VelocityShape(),
                                         leader_gain=GainProfile(b0=1.0)),
            initial=SystemState(t=0.0, p=scenario.initial.p, q=scenario.initial.q,
                                leader=LeaderState(np.zeros(2), np.array([0.0, 1e308]))))
        expected = "leader position, coordinate 2"
    with pytest.raises(NonFiniteState) as excinfo:
        simulate(scenario)
    assert excinfo.value.last_good_time == 0.0
    assert str(excinfo.value).endswith(f"first at {expected}")


def damping_blow_up(scale):
    """Two weakly coupled agents whose cosine damping gains, 32 ± 1 at
    dt = 0.1, lie outside RK4's stability interval, so the velocities grow
    about 1.8x per step from ±scale until they overflow. 2000 steps are
    recorded every 50th; the blow-up comes after step 1200, in the second
    910-step gain schedule block of 2 state components (8192 // (3 * 3))."""
    return Scenario(
        mode=Mode.LEADERLESS, masses=(1.0, 1.0), topology=build_topology(2, [(1, 2, 1e-3)]),
        protocol=ProtocolSpec(velocity=VelocityShape(), coupling=CouplingShape(kind="linear"),
                              gains=(GainProfile(kind="cosine", b0=32.0, amplitude=1.0),) * 2),
        initial=SystemState(t=0.0, p=[0.0, 0.0], q=[scale, -scale]),
        integrator=IntegratorSettings(dt=0.1, t_end=200.0, record_every=50))


@pytest.mark.parametrize("scale, between, last_good", [
    (1e-10, "t=120.7 and t=120.8", 120.7),  # step 1208, mid-interval
    (4e-21, "t=125 and t=125.1", 125.0),  # step 1251, the first of an interval
    (1e-20, "t=124.9 and t=125", 124.9),  # step 1250, a recorded one
], ids=["mid_interval", "first_step_of_interval", "recorded_step"])
def test_blow_up_is_named_at_its_step(scale, between, last_good):
    # The messages and times are those of a loop that checks every step.
    with pytest.raises(NonFiniteState) as excinfo:
        simulate(damping_blow_up(scale))
    assert str(excinfo.value) == (f"state became non-finite between {between}, "
                                  "first at agent 1 velocity, coordinate 1")
    assert excinfo.value.last_good_time == last_good


def reference_rhs(state, scenario):
    """Plain per-edge reference of the closed loop, built from the topology's
    edge and leader-link lists: (q_dot, leader_q_dot or None)."""
    topo, spec, t = scenario.topology, scenario.protocol, state.t
    gains = oracle.profiles(spec.gains)
    force = np.array([-oracle.gain(gains[i], t) * oracle.velocity(spec.velocity, state.q[i])
                      for i in range(scenario.n_agents)])
    for i, j, w in topo.edges:
        pull = w * oracle.coupling(spec.coupling, state.p[j] - state.p[i])
        force[i] += pull
        force[j] -= pull
    leader_q_dot = None
    if state.leader is not None:
        for i, w in topo.leader_links:
            force[i] += w * oracle.coupling(spec.coupling, state.leader.p - state.p[i])
        leader_q_dot = (-oracle.gain(spec.leader_gain, t)
                        * oracle.velocity(spec.leader_velocity, state.leader.q))
    return force / np.array(scenario.masses)[:, None], leader_q_dot


def random_scenario(rng, leader, coupling, velocity, dims, n=8):
    """Random tree plus chords over the agents; in leader mode the last agent
    has no edge at all, only its leader link."""
    linked = n - 1 if leader else n
    pairs = {(int(rng.integers(0, k)), k) for k in range(1, linked)}
    pairs |= {tuple(sorted(map(int, rng.choice(linked, 2, replace=False)))) for _ in range(4)}
    edges = [(i + 1, j + 1, float(rng.uniform(0.2, 2.0))) for i, j in sorted(pairs)]
    links = [(1, 0.8), (n, 1.3)] if leader else []

    def shape():
        if velocity == "linear":
            return VelocityShape()
        return VelocityShape(kind="sine_perturbed", omega=float(rng.uniform(0.1, 0.9)))

    extra = {"leader_velocity": shape(), "leader_gain": GainProfile(b0=0.7)} if leader else {}
    return Scenario(
        mode=Mode.LEADER if leader else Mode.LEADERLESS,
        masses=tuple(rng.uniform(0.5, 2.0, n)),
        topology=build_topology(n, edges, leader_links=links),
        protocol=ProtocolSpec(
            velocity=shape(), coupling=CouplingShape(kind=coupling),
            gains=tuple(GainProfile(kind="cosine", b0=float(b), amplitude=float(a))
                        for b, a in zip(rng.uniform(0.6, 1.5, n), rng.uniform(-0.3, 0.3, n))),
            **extra),
        initial=SystemState(
            t=float(rng.uniform(0.0, 10.0)), p=rng.normal(size=(n, dims)),
            q=rng.normal(size=(n, dims)),
            leader=LeaderState(rng.normal(size=dims), rng.normal(size=dims)) if leader else None),
    )


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("velocity", ["linear", "sine"])
@pytest.mark.parametrize("coupling", ["linear", "linear_plus_cubic"])
@pytest.mark.parametrize("leader", [False, True], ids=["leaderless", "leader"])
def test_rhs_matches_per_edge_reference(leader, coupling, velocity, dims):
    rng = np.random.default_rng([int(leader), len(coupling), len(velocity), dims])
    scenario = random_scenario(rng, leader, coupling, velocity, dims)
    state = scenario.initial
    derivative = rhs(state, scenario)
    q_dot, leader_q_dot = reference_rhs(state, scenario)
    np.testing.assert_array_equal(derivative.p_dot, state.q)
    np.testing.assert_allclose(derivative.q_dot, q_dot, rtol=1e-13, atol=1e-13)
    if leader:
        assert not any(scenario.n_agents - 1 in edge[:2] for edge in scenario.topology.edges)
        np.testing.assert_array_equal(derivative.leader_p_dot, state.leader.q)
        np.testing.assert_allclose(derivative.leader_q_dot, leader_q_dot, rtol=1e-13)
    else:
        assert derivative.leader_q_dot is None


@pytest.mark.parametrize("q_leader", [0.0, -0.0], ids=["plus_zero", "minus_zero"])
@pytest.mark.parametrize("leader_velocity", ["linear", "sine"])
def test_leader_derivative_keeps_the_sign_of_zero(leader_velocity, q_leader):
    # fig3b: sine followers around a linear leader, then the same with a sine
    # leader. The leader row sits next to the agent rows in one state block;
    # neither the agents' damping nor their forces may touch its zero signs.
    scenario = parse_scenario(bundled_scenario_path("fig3b"))
    if leader_velocity == "sine":
        scenario = dataclasses.replace(scenario, protocol=dataclasses.replace(
            scenario.protocol, leader_velocity=VelocityShape(kind="sine_perturbed", omega=0.5)))
    initial = scenario.initial
    state = SystemState(t=0.0, p=initial.p, q=initial.q,
                        leader=LeaderState(initial.leader.p, np.array([q_leader])))
    derivative = rhs(state, scenario)
    _, expected = reference_rhs(state, scenario)
    assert derivative.leader_q_dot == 0.0
    np.testing.assert_array_equal(np.signbit(derivative.leader_q_dot), np.signbit(expected))
    np.testing.assert_array_equal(np.signbit(derivative.leader_p_dot), np.signbit(q_leader))


def test_folded_velocity_term_keeps_the_unfolded_sign_bits():
    # Leaderless with sine feedback and non-unit masses: the kernel sums g·v
    # into the coupling bincount after the edge terms. Agents 1-4 sit at +0.0
    # and -0.0 with zero velocities of both signs, so the edge terms and the
    # velocity terms are zeros of mixed sign.
    masses, b0, omega, t = [0.5, 2.0, 0.25, 4.0, 1.5], [1.0, 0.7, 1.3, 0.9, 1.1], 0.5, 0.3
    edges = [(1, 2, 1.0), (2, 3, 0.5), (3, 4, 2.0), (4, 5, 1.5), (1, 5, 0.8)]
    scenario = leaderless_scenario(
        n=5, masses=masses, coupling="linear_plus_cubic",
        velocity=VelocityShape(kind="sine_perturbed", omega=omega),
        gains=[GainProfile(kind="cosine", b0=b, amplitude=0.2) for b in b0], edges=edges,
        p0=[0.0, -0.0, 0.0, -0.0, 0.7], q0=[0.0, -0.0, -0.0, 0.0, -0.4])
    assert _Compiled(scenario).fold
    state = dataclasses.replace(scenario.initial, t=t)
    p, q = state.p[:, 0], state.q[:, 0]
    # The unfolded formula: A = (g·(q + ω·sin q) + Σ)·(1/m), with Σ each
    # agent's edge terms w·h(p_j - p_i) summed in the kernel's edge order.
    i, j, w = (np.array(column) for column in zip(*edges))
    src, nbr, w = np.concatenate([i, j]) - 1, np.concatenate([j, i]) - 1, np.concatenate([w, w])
    x = p[nbr] - p[src]
    coupling = np.bincount(src, w * (x + x * x * x), 5)
    gain = -(np.array(b0) + 0.2 * math.cos(t))
    expected = (gain * (q + omega * np.sin(q)) + coupling) * (1.0 / np.array(masses))
    got = rhs(state, scenario).q_dot[:, 0]
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))


def test_edge_free_agent_keeps_a_negative_zero_acceleration():
    # One agent, no edges: A = g·v with no coupling sum, so the -0.0 that a
    # negative feedback factor makes of q = +0.0 stays -0.0.
    scenario = leaderless_scenario(n=1, masses=[0.4], edges=[], p0=[0.25], q0=[0.0],
                                   velocity=VelocityShape(kind="sine_perturbed", omega=0.5))
    assert not _Compiled(scenario).fold
    q_dot = rhs(scenario.initial, scenario).q_dot
    assert q_dot == 0.0 and np.signbit(q_dot).all()


def test_non_finite_state_names_agents_before_the_leader():
    scenario = leader_scenario(n=3)
    q = np.array([0.2, np.nan, 0.2])
    state = SystemState(t=0.0, p=scenario.initial.p, q=q,
                        leader=LeaderState(np.array([np.inf]), np.array([0.3])))
    with pytest.raises(NonFiniteState) as excinfo:
        rhs(state, scenario)
    assert str(excinfo.value).endswith("first at agent 2 velocity, coordinate 1")


def test_compiled_kernel_memory_is_linear_in_edges():
    # A dense agents-by-edges coupling matrix alone would take 32 MB here.
    n = 2000
    scenario = leaderless_scenario(n=n, coupling="linear_plus_cubic",
                                   edges=[(i, i % n + 1, 1.0) for i in range(1, n + 1)])
    tracemalloc.start()
    try:
        comp = _Compiled(scenario)
        comp.rk4(0.0, _flatten(scenario.initial))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_cosine_gain_run_memory_is_its_buffers_whatever_the_horizon():
    # At 5000 agents one step's gain factors exceed the 8192-float schedule
    # budget, so the schedule holds one step, 3·(M·d + 1) floats: all that
    # cosine gains add to a compile. The steps then allocate nothing beyond
    # the recorded rows and one bincount result at a time, however many
    # steps there are.
    n = 5000
    base = leaderless_scenario(n=n, coupling="linear_plus_cubic", p0=np.sin(np.arange(n)),
                               edges=[(i, i % n + 1, 1.0) for i in range(1, n + 1)])
    compiled, stepped = {}, {}
    for amplitude in (0.0, 0.2):
        for steps in (10, 100):
            scenario = dataclasses.replace(
                base,
                protocol=dataclasses.replace(base.protocol, gains=(GainProfile(
                    kind="cosine", b0=1.0, amplitude=amplitude),) * n),
                integrator=IntegratorSettings(dt=1e-2, t_end=steps * 1e-2, record_every=steps))
            y = _flatten(scenario.initial)
            tracemalloc.start()
            try:
                comp = _Compiled(scenario)
                compiled[amplitude, steps] = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                consensim.dynamics._integrate(comp, y, scenario.integrator)
                stepped[amplitude, steps] = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
    for steps in (10, 100):
        assert compiled[0.2, steps] - compiled[0.0, steps] <= 8 * 3 * (n + 1)
    recorded, forces = 8 * 2 * (2 * n), 8 * n  # the initial and final samples; bincount
    for peak in stepped.values():
        assert recorded + forces <= peak < recorded + forces + 4096


def test_simulate_sample_grid_and_initial_sample():
    settings_ = IntegratorSettings(dt=1e-2, t_end=2.0, record_every=25)
    scenario = leaderless_scenario(n=2, integrator=settings_)
    traj = simulate(scenario)
    assert len(traj.samples) == round(2.0 / 1e-2) // 25 + 1
    expected = np.array([(k * 25) * 1e-2 for k in range(len(traj.samples))])
    assert np.array_equal(traj.t, expected)
    np.testing.assert_array_equal(traj.samples[0].p, scenario.initial.p)
    assert traj.samples[-1].t == 2.0


@pytest.mark.parametrize("leader", [False, True], ids=["leaderless", "leader"])
def test_trajectory_is_frozen_and_builds_samples_on_demand(leader):
    scenario = leader_scenario(n=3) if leader else leaderless_scenario(n=3)
    traj = simulate(scenario)
    count = round(1.0 / 1e-2) // 10 + 1
    assert len(traj.samples) == count == len(traj.t)
    arrays = [traj.t, traj.p, traj.q] + ([traj.leader_p, traj.leader_q] if leader else [])
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1.0
    for k in (0, count // 2, count - 1, -1):
        state = traj.samples[k]
        assert state.t == traj.t[k]
        np.testing.assert_array_equal(state.p, traj.p[k])
        np.testing.assert_array_equal(state.q, traj.q[k])
        if leader:
            np.testing.assert_array_equal(state.leader.p, traj.leader_p[k])
            np.testing.assert_array_equal(state.leader.q, traj.leader_q[k])
        else:
            assert state.leader is None
    if not leader:
        assert traj.leader_p is None and traj.leader_q is None
    np.testing.assert_array_equal(traj.samples[0].p, scenario.initial.p)
    assert traj.validation == validate_scenario(scenario)


def leader_scenario_2d():
    """Three agents of unequal mass in 2-D tracking a leader: cosine gains
    everywhere, sine velocity feedback, cubic coupling, -0.0 velocities,
    every third step recorded."""
    n = 3
    return Scenario(
        mode=Mode.LEADER,
        masses=(0.5, 1.0, 2.0),
        topology=build_topology(n, [(1, 2, 0.7), (2, 3, 1.3)], leader_links=[(1, 0.8), (3, 1.2)]),
        protocol=ProtocolSpec(
            velocity=VelocityShape(kind="sine_perturbed", omega=0.4),
            coupling=CouplingShape(kind="linear_plus_cubic"),
            gains=tuple(GainProfile(kind="cosine", b0=1.0 + 0.1 * i, amplitude=0.3 - 0.1 * i)
                        for i in range(n)),
            leader_velocity=VelocityShape(kind="sine_perturbed", omega=0.2),
            leader_gain=GainProfile(kind="cosine", b0=0.9, amplitude=0.2),
        ),
        initial=SystemState(t=0.0, p=[[0.3, -0.2], [-0.4, 0.1], [0.2, 0.6]],
                            q=[[0.1, -0.0], [-0.3, 0.2], [0.0, -0.1]],
                            leader=LeaderState(np.array([0.5, -0.25]), np.array([0.1, -0.0]))),
        integrator=IntegratorSettings(dt=1e-2, t_end=0.3, record_every=3),
    )


def test_single_step_agrees_with_simulate():
    # A chain of public rk4_step calls, each compiling the scenario afresh
    # and starting at simulate's time grid point, must give simulate's samples
    # bit for bit, signs of zero included. A run advances one state buffer in
    # place and copies a row out only when it records, so a stale work
    # buffer, a recorded row that aliases the state, or gains carried over
    # from another step would each break the equality.
    # The long 2-D runs take 700 steps recorded every 7th: with cosine gains
    # they cross two boundaries of the 303-step gain schedule blocks of 8
    # state components (8192 // (3 * 9)), neither count dividing the other;
    # constant gains slice one 8192-step view of their factors.
    leaderless = leaderless_scenario(
        n=2, q0=[0.4, -0.4],
        integrator=IntegratorSettings(dt=1e-2, t_end=0.2, record_every=1))
    cosine = dataclasses.replace(leader_scenario_2d(), integrator=IntegratorSettings(
        dt=1e-2, t_end=7.0, record_every=7))
    constant = dataclasses.replace(cosine, protocol=dataclasses.replace(
        cosine.protocol, gains=[GainProfile(b0=b0) for b0 in cosine.protocol.gains.b0.tolist()],
        leader_gain=GainProfile(b0=0.9)))
    for scenario in (leaderless, leader_scenario_2d(), cosine, constant):
        traj = simulate(scenario)
        dt, every = scenario.integrator.dt, scenario.integrator.record_every
        state = scenario.initial
        for step in range(1, (len(traj.t) - 1) * every + 1):
            state = rk4_step(dataclasses.replace(state, t=(step - 1) * dt), scenario)
            if step % every == 0:
                got, want = _flatten(state), _flatten(traj.samples[step // every])
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_tracking_errors_and_no_leader_guard():
    # Leader-relative errors are array arithmetic on a trajectory.
    traj = Trajectory(np.array([0.0]), np.array([[[1.0], [2.0]]]), np.array([[[0.5], [0.1]]]),
                      np.array([[3.0]]), np.array([[0.2]]), "-")
    p_err, q_err = traj.p - traj.leader_p[:, None], traj.q - traj.leader_q[:, None]
    np.testing.assert_allclose(p_err[0, :, 0], [-2.0, -1.0])
    np.testing.assert_allclose(q_err[0, :, 0], [0.3, -0.1])
    # A leaderless run records no leader arrays to take errors against.
    leaderless = simulate(leaderless_scenario())
    assert leaderless.leader_p is None and leaderless.leader_q is None


def test_leader_closed_form_formula_and_gating():
    t = np.linspace(0.0, 10.0, 21)
    scenario = leader_scenario()  # leader p0 = 1.0, q0 = 0.3, constant gain b = 0.6
    p, q = leader_closed_form_for(scenario, t)
    np.testing.assert_allclose(q[:, 0], 0.3 * np.exp(-0.6 * t), rtol=1e-15)
    np.testing.assert_allclose(p[:, 0], 1.0 + 0.5 - 0.5 * np.exp(-0.6 * t), rtol=1e-15)
    # Limit value: p -> p0 + q0/b.
    assert leader_closed_form_for(scenario, 1e6)[0] == pytest.approx(1.5, abs=1e-12)

    for b in (0.0, -0.6):
        stalled = dataclasses.replace(scenario, protocol=dataclasses.replace(
            scenario.protocol, leader_gain=GainProfile(b0=b)))
        with pytest.raises(HypothesisViolated):
            leader_closed_form_for(stalled, t)

    p_s, q_s = leader_closed_form_for(scenario, 2.0)
    exact_q = 0.3 * math.exp(-0.6 * 2.0)
    np.testing.assert_allclose(q_s, [exact_q], rtol=1e-15)

    nonlinear_leader = dataclasses.replace(
        scenario, protocol=dataclasses.replace(
            scenario.protocol,
            leader_velocity=VelocityShape(kind="sine_perturbed", omega=0.5)))
    with pytest.raises(HypothesisViolated):
        leader_closed_form_for(nonlinear_leader, 2.0)
    with pytest.raises(HypothesisViolated):
        leader_closed_form_for(leaderless_scenario(), 2.0)


def test_fingerprint_is_stable_and_content_sensitive():
    a = scenario_fingerprint(leader_scenario())
    b = scenario_fingerprint(leader_scenario())
    assert a == b
    assert len(a) == 64 and set(a) <= set("0123456789abcdef")

    changed_dt = dataclasses.replace(
        leader_scenario(), integrator=IntegratorSettings(dt=2e-2, t_end=1.0, record_every=10))
    assert scenario_fingerprint(changed_dt) != a

    base = leaderless_scenario()
    moved = dataclasses.replace(
        base, initial=SystemState(t=0.0, p=base.initial.p + 1e-9, q=base.initial.q))
    assert scenario_fingerprint(moved) != scenario_fingerprint(base)

    # The payload lists its fields by hand, so one changed value per field of
    # every class in it must move the digest. A field added to a class later
    # fails the key check until this table, and the payload, cover it.
    base, variants = one_change_per_field()
    digest = scenario_fingerprint(base)
    for cls, table in variants.items():
        names = (LeaderState._fields if cls is LeaderState
                 else [f.name for f in dataclasses.fields(cls)])
        assert set(table) == set(names), cls.__name__
        for name, variant in table.items():
            assert scenario_fingerprint(variant) != digest, f"{cls.__name__}.{name}"


def test_a_follower_cosine_gain_of_amplitude_zero_keeps_its_kind():
    base, variants = one_change_per_field()
    cosine = variants[GainColumns]["cosine"]
    assert scenario_to_dict(base)["protocol"]["gains"][0] == {"kind": "constant", "b0": 1.0}
    written = scenario_to_dict(cosine)
    assert written["protocol"]["gains"][0] == {"kind": "cosine", "b0": 1.0, "amplitude": 0.0}
    assert (scenario_fingerprint(parse_scenario_dict(written, validate=False))
            == scenario_fingerprint(cosine) != scenario_fingerprint(base))


def test_fingerprint_is_the_same_in_a_process_with_another_hash_seed():
    code = ("from consensim import bundled_scenario_path, parse_scenario, scenario_fingerprint; "
            "print(scenario_fingerprint(parse_scenario(bundled_scenario_path('fig3b'))))")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    package_root = os.path.dirname(os.path.dirname(consensim.dynamics.__file__))
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == scenario_fingerprint(
        parse_scenario(bundled_scenario_path("fig3b")))


def reference_record(scenario):
    """The fingerprint record, packed one value at a time in the order that
    the docstring of scenario_fingerprint documents."""
    def ints(values):
        return b"".join(struct.pack("<q", int(v)) for v in values)

    def big(value):
        count = value.bit_length() // 64 + 1
        return struct.pack("<q", count) + b"".join(
            struct.pack("<Q", (value >> (64 * k)) & (2**64 - 1)) for k in range(count))

    def floats(values):
        return b"".join(struct.pack("<d", math.nan if math.isnan(v) else v) for v in values)

    topo, spec, state, iset = (scenario.topology, scenario.protocol, scenario.initial,
                               scenario.integrator)
    leader, lead_velocity, lead_gain = state.leader, spec.leader_velocity, spec.leader_gain
    edges, links, gains = topo.edges, topo.leader_links, spec.gains
    description = scenario.description.encode("utf-8", "surrogatepass")
    kinds = [scenario.mode.value, spec.velocity.kind.value, spec.coupling.kind.value]
    kinds += [] if lead_velocity is None else [lead_velocity.kind.value]
    kinds += ["cosine" if cosine else "constant" for cosine in gains.cosine.tolist()]
    kinds += [] if lead_gain is None else [lead_gain.kind.value]
    kinds = ",".join(kinds).encode()
    return b"".join([
        b"consensim scenario record 1\n",
        ints([len(scenario.masses), len(edges), len(links), len(gains.b0),
              *state.p.shape, *state.q.shape, leader is not None]),
        ints([0, 0] if leader is None else [len(leader.p), len(leader.q)]),
        ints([lead_velocity is not None, lead_gain is not None,
              len(description), len(kinds)]),
        big(topo.n_agents), big(iset.record_every),
        ints([i for i, _, _ in edges]), ints([j for _, j, _ in edges]),
        ints([i for i, _ in links]),
        floats(scenario.masses), floats([w for _, _, w in edges]), floats([w for _, w in links]),
        floats([spec.velocity.omega]),
        floats([] if lead_velocity is None else [lead_velocity.omega]),
        floats(gains.b0.tolist()), floats(gains.amplitude.tolist()),
        floats([] if lead_gain is None else [lead_gain.b0, lead_gain.amplitude]),
        floats([state.t]), floats(state.p.flat), floats(state.q.flat),
        floats([] if leader is None else [*leader.p, *leader.q]),
        floats([iset.dt, iset.t_end, scenario.pos_tol, scenario.vel_tol]),
        description, kinds,
    ])


def with_value(base, value):
    """base with value as agent 1's initial position and as its second mass."""
    p = base.initial.p.copy()
    p[0, 0] = value
    return dataclasses.replace(
        base, initial=dataclasses.replace(base.initial, p=p),
        masses=base.masses[:1] + (value,) + base.masses[2:])


def negative_nan_with_payload():
    return struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0123))[0]


def record_cases():
    """Scenarios whose values the text form once took special care with:
    signed zeros, NaNs of any sign and payload, integers beyond 64 bits and
    lone surrogates."""
    base = one_change_per_field()[0]
    return {
        "zero": with_value(base, 0.0),
        "negative_zero": with_value(base, -0.0),
        "nan": with_value(base, float("nan")),
        "nan_payload": with_value(base, negative_nan_with_payload()),
        "record_every_2**70": dataclasses.replace(
            base, integrator=dataclasses.replace(base.integrator, record_every=2**70)),
        "record_every_-2**70": dataclasses.replace(
            base, integrator=dataclasses.replace(base.integrator, record_every=-2**70)),
        "record_every_-2**63": dataclasses.replace(
            base, integrator=dataclasses.replace(base.integrator, record_every=-2**63)),
        "n_agents_2**64": dataclasses.replace(
            base, topology=build_topology(2**64, [(1, 2, 1.0)])),
        "surrogate": dataclasses.replace(base, description="lone \ud800 surrogate"),
        "other_surrogate": dataclasses.replace(base, description="lone \udfff surrogate"),
    }


def test_record_matches_a_reference_packed_one_value_at_a_time():
    base, variants = one_change_per_field()
    scenarios = [base, leaderless_scenario(edges=[]), leader_scenario(),
                 dataclasses.replace(base, description='"checks": [] \\ \u00e9\u4e2d \n'),
                 dataclasses.replace(base, initial=SystemState(
                     t=0.0, p=np.zeros((4, 0)), q=np.zeros((4, 0)),
                     leader=LeaderState(np.zeros(0), np.zeros(0))))]
    scenarios += [v for table in variants.values() for v in table.values()]
    scenarios += record_cases().values()
    for scenario in scenarios:
        assert scenario_fingerprint(scenario) == hashlib.sha256(
            reference_record(scenario)).hexdigest()


def test_record_is_equal_where_repr_is_equal_and_distinct_where_it_is_not():
    digests = {name: scenario_fingerprint(s) for name, s in record_cases().items()}
    # Every NaN reprs as "nan", so its sign and payload do not move the digest.
    assert digests["nan"] == digests["nan_payload"]
    del digests["nan_payload"]
    assert len(set(digests.values())) == len(digests)


def one_change_per_field():
    """A leader scenario and, per class of the fingerprint payload, one
    variant per field that changes only that field (or, for a nested one,
    one value inside it)."""
    # Agent 1's gain is constant and the leader's cosine of amplitude 0, so
    # either can change its kind alone.
    gains = [GainProfile(b0=1.0)] + [GainProfile("cosine", 1.0 + 0.1 * i, 0.1 + 0.05 * i)
                                     for i in range(1, 4)]
    base = leader_scenario_3d()
    base = dataclasses.replace(base, protocol=dataclasses.replace(
        base.protocol, gains=gains, leader_gain=GainProfile("cosine", 0.9, 0.0)))
    spec, topo, state, iset = base.protocol, base.topology, base.initial, base.integrator
    edges = [(i + 1, j + 1, w) for i, j, w in topo.edges]
    links = [(i + 1, w) for i, w in topo.leader_links]

    def scenario(**changes):
        return dataclasses.replace(base, **changes)

    def protocol(**changes):
        return scenario(protocol=dataclasses.replace(spec, **changes))

    def initial(**changes):
        return scenario(initial=dataclasses.replace(state, **changes))

    def integrator(**changes):
        return scenario(integrator=dataclasses.replace(iset, **changes))

    return base, {
        Scenario: {
            "mode": scenario(mode=Mode.LEADERLESS),
            "masses": scenario(masses=(1.0, 1.0, 1.0, 2.0)),
            "topology": scenario(topology=build_topology(4, edges[::-1], links)),
            "protocol": protocol(gains=gains[::-1]),
            "initial": initial(p=state.p[::-1]),
            "integrator": integrator(t_end=3.0),
            "pos_tol": scenario(pos_tol=2e-3),
            "vel_tol": scenario(vel_tol=2e-3),
            "description": scenario(description="changed"),
        },
        ProtocolSpec: {
            "velocity": protocol(velocity=VelocityShape()),
            "coupling": protocol(coupling=CouplingShape()),
            "gains": protocol(gains=gains[1:] + gains[:1]),
            "leader_velocity": protocol(leader_velocity=VelocityShape("sine_perturbed", 0.3)),
            "leader_gain": protocol(leader_gain=GainProfile("cosine", 1.1, 0.1)),
        },
        VelocityShape: {
            "kind": protocol(leader_velocity=VelocityShape("sine_perturbed", 0.0)),
            "omega": protocol(velocity=VelocityShape("sine_perturbed", 0.5)),
        },
        CouplingShape: {
            "kind": protocol(coupling=CouplingShape("linear")),
        },
        GainProfile: {
            "kind": protocol(leader_gain=GainProfile(b0=0.9)),
            "b0": protocol(leader_gain=GainProfile("cosine", 1.0, 0.0)),
            "amplitude": protocol(leader_gain=GainProfile("cosine", 0.9, 0.2)),
        },
        GainColumns: {
            "cosine": protocol(gains=[GainProfile("cosine", 1.0, 0.0)] + gains[1:]),
            "b0": protocol(gains=gains[:1] + [dataclasses.replace(gains[1], b0=1.2)] + gains[2:]),
            "amplitude": protocol(
                gains=gains[:1] + [dataclasses.replace(gains[1], amplitude=0.2)] + gains[2:]),
        },
        SystemState: {
            "t": initial(t=1.0),
            "p": initial(p=state.p + 1e-9),
            "q": initial(q=state.q + 1e-9),
            "leader": initial(leader=LeaderState(state.leader.q, state.leader.p)),
        },
        LeaderState: {
            "p": initial(leader=LeaderState(state.leader.p + 1e-9, state.leader.q)),
            "q": initial(leader=LeaderState(state.leader.p, state.leader.q + 1e-9)),
        },
        IntegratorSettings: {
            "dt": integrator(dt=2e-2),
            "t_end": integrator(t_end=2.0),
            "record_every": integrator(record_every=5),
        },
        Topology: {
            "n_agents": scenario(topology=build_topology(5, edges, links)),
            "edge_arrays": scenario(topology=build_topology(4, edges[:-1], links)),
            "link_arrays": scenario(topology=build_topology(4, edges, links[:1])),
        },
    }


def test_numpy_scalars_and_int_horizon_run_like_plain_floats():
    # Constructors normalize numpy scalars and an int horizon to plain
    # values, so such a scenario runs and hashes like its plain-float twin.
    plain = dataclasses.replace(
        parse_scenario(bundled_scenario_path("fig3b")),
        integrator=IntegratorSettings(dt=0.001, t_end=1.0, record_every=100))
    topo = plain.topology
    typed = dataclasses.replace(
        plain,
        topology=build_topology(
            np.int64(topo.n_agents),
            [(np.int64(i + 1), np.int32(j + 1), w) for i, j, w in topo.edges],
            [(np.int64(i + 1), w) for i, w in topo.leader_links]),
        integrator=IntegratorSettings(dt=np.float64(0.001), t_end=1, record_every=np.int64(100)),
        pos_tol=np.float64(1e-3), vel_tol=np.float64(1e-3))
    typed_run, plain_run = simulate(typed), simulate(plain)
    assert typed_run.scenario_fingerprint == plain_run.scenario_fingerprint
    for name in ("t", "p", "q", "leader_p", "leader_q"):
        np.testing.assert_array_equal(getattr(typed_run, name), getattr(plain_run, name))

    with pytest.raises(TypeError):
        IntegratorSettings(record_every=2.5)
    with pytest.raises(TopologyError):
        build_topology(True, [])


# Each builds one value the plain-value constructors must refuse: float()
# and operator.index() alone would take the string or the bool.
REFUSED = {
    "dt_string": lambda: IntegratorSettings(dt="0.01"),
    "t_end_string": lambda: IntegratorSettings(t_end="1"),
    "record_every_bool": lambda: IntegratorSettings(record_every=True),
    "b0_string": lambda: GainProfile(b0="1.5"),
    "amplitude_bool": lambda: GainProfile(kind="cosine", b0=1.0, amplitude=True),
    "omega_string": lambda: VelocityShape(kind="sine_perturbed", omega="0.5"),
    "mass_string": lambda: leaderless_scenario(masses=(1.0, "2.0", 1.0)),
    "mass_bool": lambda: leaderless_scenario(masses=(1.0, True, 1.0)),
    "tolerance_string": lambda: dataclasses.replace(leaderless_scenario(), vel_tol="1e-3"),
}


@pytest.mark.parametrize("build", REFUSED.values(), ids=REFUSED.keys())
def test_constructors_refuse_strings_and_bools(build):
    with pytest.raises(TypeError, match="must be a real number|must be an integer"):
        build()


# Each builds one value too large for a float, which float() alone would
# raise as a bare OverflowError, with the name the refusal must give it.
TOO_LARGE = {
    "b0": (lambda: GainProfile(b0=10**400), "b0 is"),
    "omega": (lambda: VelocityShape("sine_perturbed", 10**400), "omega is"),
    "dt": (lambda: IntegratorSettings(dt=10**400), "dt is"),
    "t": (lambda: SystemState(t=10**400, p=[0.0], q=[0.0]), "t is"),
    "p": (lambda: SystemState(t=0.0, p=[10**400], q=[0.0]), "a value of positions is"),
    "q": (lambda: SystemState(t=0.0, p=[[0.0]], q=[[-10**400]]), "a value of velocities is"),
    "leader_p": (lambda: SystemState(t=0.0, p=[0.0], q=[0.0], leader=([10**400], [0.0])),
                 "a value of leader position is"),
    "mass": (lambda: leaderless_scenario(masses=(1.0, 10**400, 1.0)), r"masses\[1\] is"),
}


@pytest.mark.parametrize("build,name", TOO_LARGE.values(), ids=TOO_LARGE.keys())
def test_constructors_name_a_value_too_large_for_a_float(build, name):
    with pytest.raises(ValueError, match=f"^{name} too large for a float$"):
        build()


def test_edge_and_link_weights_must_be_numbers():
    with pytest.raises(NonPositiveWeight, match=r"edge \(1, 2\) has weight '0.5', which is not"):
        build_topology(2, [(1, 2, "0.5")])
    with pytest.raises(NonPositiveWeight, match="weight True, which is not a number"):
        build_topology(2, [(1, 2, True)])
    with pytest.raises(NonPositiveWeight, match="leader link to agent 1 has weight '1'"):
        build_topology(2, [(1, 2, 0.5)], leader_links=[(1, "1")])
    # numpy and Python numbers of every kind still pass.
    topo = build_topology(3, [(1, 2, np.float32(0.5)), (2, 3, 2)], leader_links=[(1, np.int64(1))])
    assert topo.edges == ((0, 1, 0.5), (1, 2, 2.0)) and topo.leader_links == ((0, 1.0),)


def leader_scenario_3d():
    """Four agents in 3-D tracking a leader, cosine gains everywhere."""
    n = 4
    return Scenario(
        mode=Mode.LEADER,
        masses=(1.0,) * n,
        topology=build_topology(n, [(1, 2, 0.7), (2, 3, 1.3), (3, 4, 0.9), (1, 4, 1.1)],
                                leader_links=[(1, 0.8), (3, 1.2)]),
        protocol=ProtocolSpec(
            velocity=VelocityShape(kind="sine_perturbed", omega=0.4),
            coupling=CouplingShape(kind="linear_plus_cubic"),
            gains=tuple(GainProfile(kind="cosine", b0=1.0 + 0.1 * i, amplitude=0.1 + 0.05 * i)
                        for i in range(n)),
            leader_velocity=VelocityShape(),
            leader_gain=GainProfile(kind="cosine", b0=0.9, amplitude=0.2),
        ),
        initial=SystemState(
            t=0.0,
            p=[[0.1 * (3 * i + l) - 0.5 for l in range(3)] for i in range(n)],
            q=[[0.05 * (i - l) for l in range(3)] for i in range(n)],
            leader=LeaderState(np.array([0.5, -0.25, 1.0 / 3.0]), np.array([0.1, -0.0, -0.2]))),
        integrator=IntegratorSettings(dt=1e-2, t_end=1.0, record_every=10),
    )


# A report's fingerprint ties it to the scenario content, so these digests
# pin the binary record that scenario_fingerprint documents: they must not
# move when the record is reimplemented or the parser changes.
GOLDEN_FINGERPRINTS = {
    "fig2a": "46175b5ba167ecb3e8a9dcb888d455f9d13fc2c802b08d4e2ac3f66000fc2237",
    "fig2b": "4c0156141f01b0e5fa45d3c6c693885e7c73da893b01611c02d2df6715b1d142",
    "fig3a": "91262e704fa48f7f3d886b6d50894c9811154d307c7aae847df8657445302209",
    "fig3b": "eeb12b3cf6b2cddd744551393bdc6de2ba84565bc7f5a4b86584cc6fe451a2e7",
    "leader_3d": "74bcf063a0cbe5b8605970e9c8a5586c11f4c4e10b6ce06f62ce72466fc88d26",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
def test_fingerprint_matches_golden_digest(name):
    scenario = (leader_scenario_3d() if name == "leader_3d"
                else parse_scenario(bundled_scenario_path(name)))
    assert scenario_fingerprint(scenario) == GOLDEN_FINGERPRINTS[name]


def broken_variants():
    base = leaderless_scenario(n=3)
    on_leader = leader_scenario(n=2)
    state = base.initial

    yield (dataclasses.replace(base, masses=(1.0,)), "masses length")
    yield (dataclasses.replace(base, masses=(1.0, -1.0, 1.0)), "masses must be finite")
    yield (dataclasses.replace(
        base, initial=SystemState(t=1.0, p=state.p, q=state.q)), "must start at t=0")
    yield (dataclasses.replace(
        base, initial=SystemState(t=0.0, p=[np.nan, 0.0, 0.0], q=state.q)),
        "must be finite")
    yield (dataclasses.replace(
        base, topology=build_topology(3, [(1, 2, 1.0)])), "graph not connected")
    yield (dataclasses.replace(
        base, topology=build_topology(3, [(1, 2, 1.0), (2, 3, 1.0)],
                                      leader_links=[(1, 1.0)])),
        "leaderless mode cannot carry leader links")
    yield (dataclasses.replace(
        on_leader, topology=build_topology(2, [(1, 2, 1.0)])),
        "requires at least one leader link")
    yield (dataclasses.replace(
        leader_scenario(n=3), topology=build_topology(3, [(1, 2, 1.0)], leader_links=[(1, 1.0)])),
        "leader has no path to every agent")
    yield (dataclasses.replace(
        on_leader,
        initial=SystemState(t=0.0, p=on_leader.initial.p, q=on_leader.initial.q)),
        "requires an initial leader state")
    yield (dataclasses.replace(
        base, integrator=IntegratorSettings(dt=0.0, t_end=1.0, record_every=1)),
        "dt must be finite")
    yield (dataclasses.replace(
        base, integrator=IntegratorSettings(dt=0.1, t_end=0.35, record_every=1)),
        "whole number of dt steps")
    yield (dataclasses.replace(
        base, integrator=IntegratorSettings(dt=0.1, t_end=0.3, record_every=4)),
        "recording intervals")
    yield (dataclasses.replace(
        base, integrator=IntegratorSettings(dt=1e-300, t_end=1e300, record_every=1)),
        "step count t_end/dt must be finite, got t_end=1e+300 dt=1e-300")
    yield (dataclasses.replace(
        base, integrator=IntegratorSettings(dt=1e-3, t_end=1e9, record_every=100)),
        "recording buffer must fit in 2 GiB, got 447 GiB (10000000001 samples of 6 floats)")
    yield (dataclasses.replace(
        base, integrator=IntegratorSettings(dt=1e-3, t_end=1e9, record_every=10**6)),
        "run must fit in 1e+09 component-steps, got 1000000000000 steps of 5 components")
    yield (dataclasses.replace(base, masses=(1.0, 1.0, np.nan)),
           "masses must be finite and > 0 (agent 3 has nan)")
    yield (dataclasses.replace(
        base, initial=SystemState(t=0.0, p=state.p, q=[0.0, np.inf, 0.0])),
        "initial positions/velocities must be finite (first at agent 2 velocity, coordinate 1)")
    yield (dataclasses.replace(
        base, topology=build_topology(3, [(1, 3, 1.0)])),
        "graph not connected (no path from agent 1 to agent 2)")
    yield (dataclasses.replace(
        leader_scenario(n=3), topology=build_topology(3, [(2, 3, 1.0)], leader_links=[(3, 1.0)])),
        "leader has no path to every agent (none to agent 1)")
    yield (dataclasses.replace(base, pos_tol=0.0), "tolerances must be > 0")
    yield (dataclasses.replace(
        base, protocol=dataclasses.replace(
            base.protocol,
            gains=(GainProfile(kind="cosine", b0=0.2, amplitude=0.25),) * 3)),
        "gain_1_positive_floor")


@pytest.mark.parametrize("scenario,fragment",
                         list(broken_variants()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_validation_catches_each_broken_rule(scenario, fragment):
    result = validate_scenario(scenario)
    assert not result.ok
    assert any(fragment in message for message in result.errors), result.errors


def test_work_budget_admits_its_limit_and_refuses_one_step_more():
    # One agent in two dimensions and no edge: two components per step.
    def lone_agent(steps):
        grid = IntegratorSettings(dt=1.0, t_end=steps, record_every=steps)
        return leaderless_scenario(n=1, p0=[[0.0, 0.0]], q0=[[0.0, 0.0]], integrator=grid)

    assert validate_scenario(lone_agent(5 * 10**8)).ok
    assert validate_scenario(lone_agent(5 * 10**8 + 1)).errors == (
        "run must fit in 1e+09 component-steps, got 500000001 steps of 2 components",)


def test_valid_scenarios_validate_clean():
    for scenario in (leaderless_scenario(), leader_scenario()):
        result = validate_scenario(scenario)
        assert result.ok, result.errors


def test_leader_mode_non_unit_masses_warn():
    scenario = dataclasses.replace(leader_scenario(), masses=(2.0, 1.0))
    result = validate_scenario(scenario)
    assert result.ok
    assert any("unit masses" in w for w in result.warnings)


def test_state_construction_guards():
    with pytest.raises(ValueError):
        SystemState(t=0.0, p=[[1.0, 2.0]], q=[1.0])
    with pytest.raises(ValueError):
        SystemState(t=0.0, p=np.zeros((2, 2, 2)), q=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        SystemState(t=0.0, p=[1.0, 2.0], q=[0.0, 0.0],
                    leader=LeaderState(np.array([1.0, 2.0]), np.array([0.0, 0.0])))
    state = SystemState(t=0.0, p=[1.0, 2.0], q=[0.0, 0.0])
    with pytest.raises(ValueError):
        state.p[0] = 5.0
