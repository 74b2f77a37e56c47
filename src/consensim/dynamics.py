"""Closed-loop dynamics and fixed-step integration.

Each agent is a double integrator with its own mass, driven by the velocity
damping and position coupling defined in :mod:`consensim.protocols`. The
optional leader is a self-damped double integrator that nobody feeds back
into: coupling is one-way, leader to followers.

Integration is classical fixed-step RK4. Runs are deterministic: the same
scenario produces bitwise-identical trajectories on a given platform.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._real import real
from .errors import NonFiniteState, ValidationFailed
from .graph import Topology, is_connected, leader_reaches_all
from .protocols import AssumptionReport, ProtocolSpec, VelocityShape, validate_assumptions


class Mode(str, Enum):
    LEADERLESS = "leaderless"
    LEADER = "leader"


class LeaderState(NamedTuple):
    """Leader position and velocity, each of shape (n_dims,)."""

    p: np.ndarray
    q: np.ndarray


def _float_array(values, what: str) -> np.ndarray:
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise ValueError(f"a value of {what} is too large for a float") from None


def _agent_array(values, what: str) -> np.ndarray:
    arr = _float_array(values, what)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{what} must be (n_agents, n_dims) or (n_agents,), got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class SystemState:
    """Positions and velocities of all agents at time t.

    ``p`` and ``q`` have shape (n_agents, n_dims); a 1-D array is read as
    n_agents scalar coordinates. Arrays are copied on construction and
    frozen so states can be shared safely.
    """

    t: float
    p: np.ndarray
    q: np.ndarray
    leader: LeaderState | None = None

    def __post_init__(self):
        p = _agent_array(self.p, "positions")
        q = _agent_array(self.q, "velocities")
        if p.shape != q.shape:
            raise ValueError(f"position shape {p.shape} != velocity shape {q.shape}")
        p.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "t", real(self.t, "t"))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if self.leader is not None:
            raw_p, raw_q = self.leader
            lp = np.atleast_1d(_float_array(raw_p, "leader position"))
            lq = np.atleast_1d(_float_array(raw_q, "leader velocity"))
            if lp.shape != (p.shape[1],) or lq.shape != (p.shape[1],):
                raise ValueError("leader state dimension does not match the agents")
            lp.flags.writeable = False
            lq.flags.writeable = False
            object.__setattr__(self, "leader", LeaderState(lp, lq))

    @property
    def n_agents(self) -> int:
        return self.p.shape[0]

    @property
    def n_dims(self) -> int:
        return self.p.shape[1]


@dataclass(frozen=True)
class StateDerivative:
    """Time derivative of a SystemState under a scenario's closed loop."""

    p_dot: np.ndarray
    q_dot: np.ndarray
    leader_p_dot: np.ndarray | None = None
    leader_q_dot: np.ndarray | None = None


@dataclass(frozen=True)
class IntegratorSettings:
    dt: float = 1e-3
    t_end: float = 50.0
    record_every: int = 100

    def __post_init__(self):
        object.__setattr__(self, "dt", real(self.dt, "dt"))
        object.__setattr__(self, "t_end", real(self.t_end, "t_end"))
        if isinstance(self.record_every, bool):
            raise TypeError(f"record_every must be an integer, got {self.record_every!r}")
        object.__setattr__(self, "record_every", operator.index(self.record_every))


@dataclass(frozen=True)
class Scenario:
    """Complete description of one run: who the agents are, how they are
    wired, which protocol drives them, where they start, and how to
    integrate. Immutable; derive variants with :func:`dataclasses.replace`."""

    mode: Mode
    masses: tuple[float, ...]
    topology: Topology
    protocol: ProtocolSpec
    initial: SystemState
    integrator: IntegratorSettings = field(default_factory=IntegratorSettings)
    pos_tol: float = 1e-3
    vel_tol: float = 1e-3
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))
        masses = tuple(self.masses)
        if not {float}.issuperset(map(type, masses)):  # one type pass for the common case
            masses = tuple(real(m, f"masses[{k}]") for k, m in enumerate(masses))
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "pos_tol", real(self.pos_tol, "pos_tol"))
        object.__setattr__(self, "vel_tol", real(self.vel_tol, "vel_tol"))

    @property
    def n_agents(self) -> int:
        return self.topology.n_agents

    @property
    def n_dims(self) -> int:
        return self.initial.n_dims


@dataclass(frozen=True)
class ScenarioValidation:
    """Blocking errors, advisory warnings, and the assumption report."""

    errors: tuple[str, ...]
    warnings: tuple[str, ...]
    assumptions: AssumptionReport

    @property
    def ok(self) -> bool:
        return not self.errors


class _Samples(Sequence):
    """Read-only view of a trajectory's samples: ``len`` builds nothing and
    indexing builds the SystemState on demand."""

    def __init__(self, traj: Trajectory):
        self._traj = traj

    def __len__(self) -> int:
        return len(self._traj.t)

    def __getitem__(self, k: int) -> SystemState:
        traj = self._traj
        leader = None if traj.leader_p is None else LeaderState(traj.leader_p[k], traj.leader_q[k])
        return SystemState(t=traj.t[k], p=traj.p[k], q=traj.q[k], leader=leader)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded samples of one run as read-only arrays: times ``t`` (S,),
    agent positions and velocities ``p``/``q`` (S, N, d), leader ``leader_p``/
    ``leader_q`` (S, d) or None. ``scenario_fingerprint`` ties the data to the
    scenario content; ``validation`` is the run's, None for a hand-built one."""

    t: np.ndarray
    p: np.ndarray
    q: np.ndarray
    leader_p: np.ndarray | None
    leader_q: np.ndarray | None
    scenario_fingerprint: str
    validation: ScenarioValidation | None = None

    @property
    def samples(self) -> Sequence[SystemState]:
        return _Samples(self)


# The largest recording buffer a run may allocate, in bytes.
_MAX_RECORD_BYTES = 2 * 2**30
# The most work a run may take, in component-steps: steps times the work
# components (M + E + L)·d, one per state row, undirected edge and leader
# link; ``_generates`` counts kernel components, with each edge twice. The
# largest shipped run, fig3a at full settings, takes 1.1·10^6.
_MAX_WORK = 10**9


def size_errors(scenario: Scenario) -> list[str]:
    """The broken rules among: the masses, the gains and the initial state
    each hold one entry per agent of the topology."""
    n = scenario.n_agents
    errors = []
    if len(scenario.masses) != n:
        errors.append(f"masses length {len(scenario.masses)} != n_agents {n}")
    if len(scenario.protocol.gains.b0) != n:
        errors.append(f"gains length {len(scenario.protocol.gains.b0)} != n_agents {n}")
    if scenario.initial.n_agents != n:
        errors.append(f"initial state has {scenario.initial.n_agents} agents, topology has {n}")
    return errors


def _mass_errors(masses: tuple[float, ...]) -> list[str]:
    """The broken rule, if any: every mass is finite and > 0."""
    masses = np.array(masses)
    valid = np.isfinite(masses) & (masses > 0.0)
    if valid.all():
        return []
    k = int(np.argmin(valid))
    return [f"masses must be finite and > 0 (agent {k + 1} has {masses[k]})"]


def _dt_errors(dt: float) -> list[str]:
    """The broken rule, if any: the step dt is finite and > 0."""
    return [] if math.isfinite(dt) and dt > 0.0 else [f"dt must be finite and > 0, got {dt}"]


def validate_scenario(scenario: Scenario) -> ScenarioValidation:
    """Run every blocking and advisory rule against the scenario.

    Blocking: structural consistency (sizes, masses, integrator grid, a
    finite step count, a recording buffer of at most 2 GiB and at most
    10^9 component-steps of work: steps times the state rows and coupling
    terms, times the dimension),
    strict positivity of every gain profile, and the graph hypothesis for
    the mode (connected when leaderless, leader-reaches-all when tracking).
    The graph is searched only when the sizes agree, so a search never
    runs over an agent count the scenario's own arrays contradict.
    Advisory: the shape checks, decided exactly, and unit masses in leader
    mode.
    """
    errors = size_errors(scenario)
    sized = not errors
    errors += _mass_errors(scenario.masses)
    warnings: list[str] = []
    topo = scenario.topology
    state = scenario.initial
    n = topo.n_agents

    if state.t != 0.0:
        errors.append(f"initial state must start at t=0, got t={state.t}")
    if not (np.all(np.isfinite(state.p)) and np.all(np.isfinite(state.q))):
        where = _first_non_finite(np.concatenate([state.p.ravel(), state.q.ravel()]),
                                  state.n_agents, state.n_dims)
        errors.append(f"initial positions/velocities must be finite (first at {where})")

    if scenario.mode is Mode.LEADER:
        if state.leader is None:
            errors.append("leader mode requires an initial leader state")
        elif not (np.all(np.isfinite(state.leader.p)) and np.all(np.isfinite(state.leader.q))):
            errors.append("initial leader state must be finite")
        if not scenario.protocol.has_leader:
            errors.append("leader mode requires leader_velocity and leader_gain")
        if not len(topo.link_arrays[0]):
            errors.append("leader mode requires at least one leader link")
        elif sized and not leader_reaches_all(topo):
            errors.append("leader has no path to every agent "
                          f"(none to agent {topo.unreached_from_leader + 1})")
        if any(m != 1.0 for m in scenario.masses):
            warnings.append(
                "tracking analysis assumes unit masses; results hold only empirically otherwise")
    else:
        if state.leader is not None:
            errors.append("leaderless mode cannot carry an initial leader state")
        if scenario.protocol.has_leader:
            errors.append("leaderless mode cannot carry leader_velocity/leader_gain")
        if len(topo.link_arrays[0]):
            errors.append("leaderless mode cannot carry leader links")
        if sized and not is_connected(topo):
            errors.append("graph not connected "
                          f"(no path from agent 1 to agent {topo.unreached_from_first + 1})")

    iset = scenario.integrator
    errors += _dt_errors(iset.dt)
    if not (math.isfinite(iset.t_end) and iset.t_end >= iset.dt > 0.0):
        errors.append(f"t_end must be at least dt, got t_end={iset.t_end} dt={iset.dt}")
    if iset.record_every < 1:
        errors.append(f"record_every must be >= 1, got {iset.record_every}")
    if not errors:
        steps = iset.t_end / iset.dt
        if not math.isfinite(steps):
            errors.append(f"step count t_end/dt must be finite, got t_end={iset.t_end} "
                          f"dt={iset.dt}")
        else:
            n_steps = round(steps)
            samples = n_steps // iset.record_every + 1
            rows = n + (scenario.mode is Mode.LEADER)
            row = 2 * rows * state.n_dims
            couplings = len(topo.edge_arrays[0]) + len(topo.link_arrays[0])
            components = (rows + couplings) * state.n_dims
            if n_steps < 1 or abs(n_steps * iset.dt - iset.t_end) > 1e-9 * max(1.0, iset.t_end):
                errors.append("t_end must be a whole number of dt steps")
            elif n_steps % iset.record_every != 0:
                errors.append(
                    "t_end must cover a whole number of recording intervals (dt*record_every)")
            elif samples * row * 8 > _MAX_RECORD_BYTES:
                errors.append(f"recording buffer must fit in {_MAX_RECORD_BYTES >> 30} GiB, "
                              f"got {samples * row * 8 / 2**30:.3g} GiB "
                              f"({samples} samples of {row} floats)")
            elif n_steps * components > _MAX_WORK:
                errors.append(f"run must fit in {_MAX_WORK:.0e} component-steps, got "
                              f"{n_steps} steps of {components} components")
    if not (scenario.pos_tol > 0.0 and scenario.vel_tol > 0.0):
        errors.append("consensus tolerances must be > 0")

    assumptions = validate_assumptions(scenario.protocol)
    if not assumptions.all_passed:
        for name, passed, blocking, detail in zip(assumptions.names, assumptions.passed,
                                                  assumptions.blocking, assumptions.details):
            if blocking and not passed:
                errors.append(f"assumption check failed: {name} ({detail})")
            elif not passed:
                warnings.append(f"advisory assumption check failed: {name} ({detail})")

    return ScenarioValidation(tuple(errors), tuple(warnings), assumptions)


def _flatten(state: SystemState) -> np.ndarray:
    """State vector [P.ravel(), Q.ravel()], the leader as the last row of P and Q."""
    if state.leader is not None:
        return np.concatenate([state.p.ravel(), state.leader.p, state.q.ravel(), state.leader.q])
    return np.concatenate([state.p.ravel(), state.q.ravel()])


def _split(y: np.ndarray, n: int, dims: int) -> tuple:
    """Views (P, Q, leader P, leader Q) of state vectors y, one per row of a
    (..., 2·M·d) array; the leader parts are None when there is no leader row."""
    blocks = y.reshape(y.shape[:-1] + (2, -1, dims))
    if blocks.shape[-2] == n:
        return blocks[..., 0, :, :], blocks[..., 1, :, :], None, None
    return blocks[..., 0, :n, :], blocks[..., 1, :n, :], blocks[..., 0, n, :], blocks[..., 1, n, :]


def _omega(shape: VelocityShape) -> float:
    return 0.0 if shape.is_linear else shape.omega


def _first_non_finite(y: np.ndarray, n: int, d: int) -> str:
    """Where the first non-finite entry of state vector y, of n agents in d
    dimensions and perhaps a leader row, sits, with the 1-based agent and
    coordinate numbers of the scenario files. Agents are searched before the
    leader: agent positions, agent velocities, leader position, leader
    velocity."""
    finite = np.isfinite(y).reshape(2, -1, d)
    k = int(np.argmin(np.concatenate([finite[:, :n].ravel(), finite[:, n:].ravel()])))
    parts = ("position", "velocity")
    if k >= 2 * n * d:
        k -= 2 * n * d
        return f"leader {parts[k // d]}, coordinate {k % d + 1}"
    return f"agent {k % (n * d) // d + 1} {parts[k // (n * d)]}, coordinate {k % d + 1}"


# Floats in the per-compile gain schedule: the stage cosines and feedback
# factors of a block of K steps take 3·K·(M·d + 1) of them, with K >= 1.
# Constant gains take none, and their blocks are this many steps long.
_SCHEDULE_FLOATS = 8192


class _Compiled:
    """Scenario lowered to flat numpy arrays and work buffers for the
    integration hot path.

    Positions and velocities are (M, d) blocks P and Q, and the state vector
    is [P.ravel(), Q.ravel()]. Row i < n is agent i; in leader mode the
    leader is one more row, the last (M = n + 1), otherwise M = n. Gain base
    and ripple, velocity-feedback omega and inverse mass are stored once per
    state component, shape (M·d,), so the kernel neither broadcasts nor
    reshapes; the leader row carries the leader's own gain and omega and
    inverse mass 1.

    Each undirected edge is stored once in each direction, and each leader
    link is one directed edge from its agent to the leader row with no
    reverse edge, so the leader feels no agent. One ``take`` along
    ``gather`` fills the work buffer [D | PS | S] with every edge's neighbor
    position components D and source components PS; S holds sin Q with sine
    feedback. D′ = D - PS is written over PS, so one multiply by
    ``weights`` = [w | ω] makes [w·D′ | ω·sin Q]. One ``np.bincount`` over
    ``slots`` (the source components) sums the edge terms into the agents'
    components: O(E) work and memory. The coupling is odd bit for bit, so
    both endpoints of an undirected edge receive exactly opposite forces.
    Summation order is fixed by the edge order: runs are bitwise reproducible.
    The sum is added to A = g·(Q + ω·sin Q) on agent rows only, and only
    when there are edges: a leader row or an edge-free run must not pick up
    an empty slot's +0.0, as that turns a -0.0 derivative into +0.0.

    RK4 runs in work buffers allocated here, once per compile: 12·M·d floats
    for the four stages, 2·E·d for the gathered positions (E directed
    edges), M·d with sine feedback and E·d with cubic coupling, and with
    cosine gains one gain schedule of at most 8192 floats, or of
    3·(M·d + 1) when a single step needs more; 0.72 MB for a 5000-agent
    cubic ring. Each stage is one row [P, Q, A] of a (4, 3·M·d) buffer: its
    state z = [P, Q] and its derivative k = [Q, A] are views of the row, so
    no stage copies velocities or concatenates. ``state``, stage 1's z, is
    advanced in place.

    The gain schedule holds the feedback factors of a block of ``block``
    steps, computed once per block, so a step does only stage arithmetic.
    Constant gains need no buffer: every step gets the one factor vector,
    and their schedule, which ``gains`` slices, is a read-only broadcast
    view of it. ``accel`` and ``step`` are closures over the arrays, stage
    views and constants they read, bound once here.

    Small runs evaluate the same lowered kernel in Python floats, bit for
    bit: ``generate`` writes a loop of RK4 steps as straight-line float code
    from ``gather``, ``slots``, ``weights``, the gains and the inverse
    masses, and ``advance_generated`` runs it once per recorded interval.
    At a few agents a numpy call costs more than the float operations it
    does, so the generated step is about 3-4x faster at 6; ``simulate``
    chooses it by size alone (``_generates``). ``rk4_step`` and a blow-up's
    replay step through ``advance``, and ``rhs`` runs ``accel``: the numpy
    kernel.
    """

    def __init__(self, scenario: Scenario):
        topo = scenario.topology
        spec = scenario.protocol
        self.n = n = topo.n_agents
        self.dims = d = scenario.initial.n_dims
        self.dt = scenario.integrator.dt
        has_leader = scenario.mode is Mode.LEADER
        self.rows = n + has_leader
        b = self.rows * d

        edge_i, edge_j, edge_w = topo.edge_arrays
        link_i, link_w = topo.link_arrays
        if not has_leader:
            link_i, link_w = link_i[:0], link_w[:0]
        src = np.concatenate([edge_i, edge_j, link_i])
        nbr = np.concatenate([edge_j, edge_i, np.full(len(link_i), n)])
        self.n_edges, self.n_links = len(src), len(link_i)
        e = self.n_edges * d

        b0, amplitude = spec.gains.b0, spec.gains.amplitude
        if has_leader:
            b0 = np.append(b0, spec.leader_gain.b0)
            amplitude = np.append(amplitude, spec.leader_gain.amplitude)
        self.gain_base = np.repeat(b0, d)
        self.gain_ripple = np.repeat(amplitude, d)
        # With no ripple, b0 + 0·cos t is b0 bit for bit (for any b0 but -0.0,
        # which no valid gain has), so one vector serves every t.
        self.constant_gain = None if self.gain_ripple.any() else -self.gain_base
        if self.constant_gain is None:
            # One buffer: a block's stage cosines, then its factor table.
            self.block = max(1, _SCHEDULE_FLOATS // (3 * (b + 1)))
            schedule = np.empty(3 * self.block * (b + 1))
            self.cosines = schedule[:3 * self.block]
            self.schedule = schedule[3 * self.block:].reshape(self.block, 3, b)
        else:
            self.block = _SCHEDULE_FLOATS
            self.schedule = np.broadcast_to(self.constant_gain, (self.block, 3, b))
        masses = np.ones(self.rows)
        masses[:n] = scenario.masses
        # x·1.0 is x bit for bit, so unit masses skip the inverse-mass product.
        self.inv_mass = None if (masses == 1.0).all() else np.repeat(1.0 / masses, d)
        omega = np.zeros(self.rows)
        omega[:n] = _omega(spec.velocity)
        if has_leader:
            omega[n] = _omega(spec.leader_velocity)
        self.sine = bool(omega.any())

        # [w | ω]: w per edge component, then ω per state component.
        self.weights = np.repeat(
            np.concatenate([edge_w, edge_w, link_w] + ([omega] if self.sine else [])), d)
        # Every edge's neighbor, then source components.
        components = np.arange(d)
        self.gather = np.concatenate([(nbr[:, None] * d + components).ravel(),
                                      (src[:, None] * d + components).ravel()])
        self.slots = self.gather[e:]
        # [D | PS | S]: neighbor and source components, then sin Q with sine feedback.
        self.work = np.empty(2 * e + b * self.sine)
        self.cube = np.empty(e) if not spec.coupling.is_linear else None
        # Per stage: z = [P, Q], k = [Q, A], Q, A, and A's agent rows.
        self.stages = [(row[:2 * b], row[b:], row[b:2 * b], row[2 * b:], row[2 * b:2 * b + n * d])
                       for row in np.empty((4, 3 * b))]
        self.state = self.stages[0][0]
        self.accel = self._bind_accel()
        self.step = self._bind_step()

    def gains(self, starts: Sequence[float]) -> np.ndarray:
        """Per-component feedback factors -(b0 + a·cos t) of the steps that
        start at the given times, shape (K, 3, M·d): one row each for t,
        t + dt/2 and t + dt, for at most ``block`` steps. Cosine gains fill
        the schedule buffer, which the next call overwrites; constant gains
        give a slice of their read-only view."""
        k = len(starts)
        table = self.schedule[:k]
        if self.constant_gain is not None:
            return table
        dt = self.dt
        half = 0.5 * dt
        cosines = self.cosines[:3 * k]
        cosines[:] = [math.cos(x) for t in starts for x in (t, t + half, t + dt)]
        np.multiply(self.gain_ripple, cosines.reshape(k, 3, 1), table)
        np.add(self.gain_base, table, table)
        return np.negative(table, table)

    def _bind_accel(self):
        """accel(stage, gain) writes the acceleration of a stage's state
        z = [P, Q] into its A, reading arrays bound here once.

        Each ufunc writes into a work buffer (positional ``out``, the
        cheapest call form) and keeps the operand order of the expression
        it computes: A = (gain·(Q + ω·sin Q) + coupling)·(1/m)."""
        multiply, add, subtract, sin, bincount = np.multiply, np.add, np.subtract, np.sin, np.bincount
        inv_mass, weights, cube, gather, slots = (
            self.inv_mass, self.weights, self.cube, self.gather, self.slots)
        work, e = self.work, self.n_edges * self.dims
        pair, nbr_p, diff, terms = work[:2 * e], work[:e], work[e:2 * e], work[e:]
        sines = work[2 * e:] if self.sine else None
        has_edges, agent_components = e > 0, self.n * self.dims

        def accel(stage: tuple, gain: np.ndarray) -> None:
            z, _, q, a, a_agents = stage
            if has_edges:
                # Any index mode gives the same values; "clip" is the one that
                # writes into ``out`` without an internal copy.
                z.take(gather, None, pair, "clip")
                subtract(nbr_p, diff, diff)
                if cube is not None:
                    multiply(diff, diff, cube)
                    multiply(cube, diff, cube)
                    add(diff, cube, diff)
                if sines is None:
                    multiply(weights, diff, diff)
            if sines is None:
                multiply(gain, q, a)
            else:
                sin(q, sines)
                multiply(weights, terms, terms)
                add(q, sines, sines)
                multiply(gain, sines, a)
            if has_edges:
                # Only agent rows receive forces: adding an empty slot's +0.0 to
                # the leader row would turn a -0.0 derivative into +0.0.
                add(a_agents, bincount(slots, diff, agent_components), a_agents)
            if inv_mass is not None:
                multiply(a, inv_mass, a)

        return accel

    def _bind_step(self):
        """step(g1, mid, g4) advances ``state`` in place by one classical RK4
        step of length dt, given the feedback factors at the step's start,
        midpoint and end: y + dt/6·(k1 + 2·(k2 + k3) + k4), each sum in the
        order written. The constants are 0-d arrays: a Python float operand
        costs each call a conversion."""
        multiply, add = np.multiply, np.add
        accel, state, dt = self.accel, self.state, self.dt
        half, full, two, sixth = map(np.array, (0.5 * dt, dt, 2.0, dt / 6.0))
        s1, s2, s3, s4 = self.stages
        k1, (z2, k2), (z3, k3), (z4, k4) = s1[1], s2[:2], s3[:2], s4[:2]

        def step(g1: np.ndarray, mid: np.ndarray, g4: np.ndarray) -> None:
            accel(s1, g1)
            multiply(half, k1, z2)
            add(state, z2, z2)
            accel(s2, mid)
            multiply(half, k2, z3)
            add(state, z3, z3)
            accel(s3, mid)
            multiply(full, k3, z4)
            add(state, z4, z4)
            accel(s4, g4)
            # Stage 2's row is free once stage 3 has read k2: it takes the sum.
            add(k2, k3, k2)
            multiply(two, k2, k2)
            add(k1, k2, k2)
            add(k2, k4, k2)
            multiply(sixth, k2, k2)
            add(state, k2, state)

        return step

    def advance(self, start: int, stop: int, every: int, t0: float = 0.0) -> Iterator[int]:
        """Advance ``state`` through steps start + 1 to stop of the time grid
        whose step 0 starts at t0, step s running from t0 + (s - 1)·dt, one
        schedule block at a time; yields the number of every step that is a
        multiple of ``every`` once ``state`` holds its end. A run's grid
        starts at t0 = 0.0, and 0.0 + s·dt is s·dt bit for bit. The factors
        (start, midpoint, end) of a block's steps are views of the schedule,
        made once per call and reused by every block; constant gains repeat
        their one vector."""
        dt, step, block = self.dt, self.step, self.block
        if self.constant_gain is None:
            table = self.schedule[:stop - start]
            rows = list(zip(table[:, 0], table[:, 1], table[:, 2]))
        else:
            rows = itertools.repeat((self.constant_gain,) * 3)
        for first in range(start, stop, block):
            last = min(first + block, stop)
            if self.constant_gain is None:
                self.gains([t0 + s * dt for s in range(first, last)])
            for number, (g1, mid, g4) in zip(range(first + 1, last + 1), rows):
                step(g1, mid, g4)
                if number % every == 0:
                    yield number

    def generate(self):
        """A Python function run(y, first, last) -> list that advances the
        state vector y, a list, through steps first + 1 to last of the run's
        time grid in RK4 steps of the lowered kernel in Python floats, with
        the state in locals, and returns the state after step last.

        The source is one loop over the steps whose body is straight-line
        code with one float operation for each element of each ufunc call of
        ``gains``, ``accel`` and ``step``, in their operand order, so the
        result equals theirs bit for bit. Each step starts at t = s·dt and
        takes the factors -(b0 + a·cos x) at x = t, t + dt/2 and t + dt, with
        one product per distinct ripple a and one sum per distinct (b0, a);
        a constant gain is its b0. Each undirected edge's term
        w·(D + D·D·D) is computed once per stage: the reverse edge's D is
        exactly -D, so its term is exactly the negated one, and s + (-t) is
        s - t. Each agent component's sum 0.0 ± t1 ± t2 … runs in ``slots``
        order, as ``bincount`` starts every slot at +0.0, and takes the
        feedback g·v on agent rows only, with the factor's sign folded:
        -(b·v) + s is s - b·v. ``sin`` is libm's through ``math.sin``, which
        equals ``np.sin`` bit for bit on the platform the determinism
        contract is scoped to, and raises ValueError on ±inf where ``np.sin``
        gives NaN. Weights, gains, ω, inverse masses and the step constants
        are bound as the function's defaults, never written into the source,
        so each keeps its exact bits."""
        d = self.dims
        b, e, forced = self.rows * d, self.n_edges * d, self.n * d
        pairs = (self.n_edges - self.n_links) // 2 * d
        nbrs, srcs = self.gather[:e].tolist(), self.slots.tolist()
        sources = [[] for _ in range(b)]
        for k, src in enumerate(srcs):
            sources[src].append(k)
        cubic = self.cube is not None
        constants = {"h": 0.5 * self.dt, "dt": self.dt, "s6": self.dt / 6.0,
                     "sin": math.sin, "cos": math.cos}
        constants.update((f"w{k}", w) for k, w in enumerate(self.weights[:e].tolist()))
        if self.sine:
            constants.update((f"o{c}", o) for c, o in enumerate(self.weights[e:].tolist()))
        if self.inv_mass is not None:
            constants.update((f"m{c}", m) for c, m in enumerate(self.inv_mass.tolist()))

        def names(*prefixes: str) -> str:
            return ", ".join(f"{prefix}{c}" for prefix in prefixes for c in range(b))

        lines = [f"    {names('x', 'v')}, = y", "    for s in range(first, last):",
                 "        t = s * dt", "        c1, c2, c4 = cos(t), cos(t + h), cos(t + dt)"]
        # Per component: its (b0, a) pair's number and whether a ripples.
        ripples, factors, gain = {}, {}, []
        for b0, a in zip(self.gain_base.tolist(), self.gain_ripple.tolist()):
            if (b0, a) not in factors:
                j = factors[b0, a] = len(factors)
                constants[f"b{j}"] = b0
                if a:
                    if a not in ripples:
                        i = ripples[a] = len(ripples)
                        constants[f"r{i}"] = a
                        lines.append(f"        r1_{i}, r2_{i}, r4_{i} = r{i} * c1, r{i} * c2, "
                                     f"r{i} * c4")
                    i = ripples[a]
                    lines.append(f"        g1_{j}, g2_{j}, g4_{j} = b{j} + r1_{i}, b{j} + r2_{i}, "
                                 f"b{j} + r4_{i}")
            gain.append((factors[b0, a], bool(a)))

        def accel(stage: int, x: str, v: str) -> None:
            def term(k: int) -> str:
                # Edges have i < j, so edge k's term, in agent i's sum, is
                # computed before its reverse k + pairs, in agent j's sum.
                if pairs <= k < 2 * pairs:
                    return f" - t{k - pairs}"
                diff = f"{x}{nbrs[k]} - {x}{srcs[k]}"
                value = f"w{k} * ((d := {diff}) + d * d * d)" if cubic else f"w{k} * ({diff})"
                return f" + (t{k} := {value})" if k < pairs else f" + {value}"

            for c in range(b):
                j, rippled = gain[c]
                g = f"g{2 if stage == 3 else stage}_{j}" if rippled else f"b{j}"
                drive = f"{g} * ({v}{c} + o{c} * sin({v}{c}))" if self.sine else f"{g} * {v}{c}"
                if e and c < forced:
                    value = f"0.0{''.join(map(term, sources[c]))} - {drive}"
                else:
                    value = f"-({drive})"
                value = f"({value}) * m{c}" if self.inv_mass is not None else value
                lines.append(f"        a{stage}_{c} = {value}")

        accel(1, "x", "v")
        # Stage s starts from y + h·k, k = [V, A] of stage s - 1.
        for stage, h in ((2, "h"), (3, "h"), (4, "dt")):
            v = "v" if stage == 2 else f"v{stage - 1}_"
            for c in range(b):
                lines.append(f"        x{stage}_{c} = x{c} + {h} * {v}{c}")
                lines.append(f"        v{stage}_{c} = v{c} + {h} * a{stage - 1}_{c}")
            accel(stage, f"x{stage}_", f"v{stage}_")
        # Positions first: each reads its own component's old velocity.
        lines += [f"        x{c} = x{c} + s6 * (v{c} + 2.0 * (v2_{c} + v3_{c}) + v4_{c})"
                  for c in range(b)]
        lines += [f"        v{c} = v{c} + s6 * (a1_{c} + 2.0 * (a2_{c} + a3_{c}) + a4_{c})"
                  for c in range(b)]
        lines.append(f"    return [{names('x', 'v')}]")
        source = "\n".join([f"def run(y, first, last, {', '.join(constants)}):"] + lines)
        namespace = {}
        exec(compile(source, "<consensim generated run>", "exec"), namespace)
        run = namespace["run"]
        run.__defaults__ = tuple(constants.values())
        return run

    def advance_generated(self, stop: int, every: int) -> Iterator[int]:
        """Advance ``state`` through steps 1 to stop of the run's time grid,
        stop a multiple of ``every``, as ``advance`` does, in the function
        that ``generate`` makes: one call per recorded interval, the state
        travelling between calls as a list and written into ``state`` at
        the interval's end, whose step number is then yielded.

        A call that raises ValueError, ``math.sin`` of ±inf, found the state
        not finite: ``state`` is filled with NaN and the number of the
        recorded step that ends its interval is yielded, so that the caller
        replays the interval in ``advance`` as for any non-finite sample."""
        run, state = self.generate(), self.state
        y = state.tolist()
        for last in range(every, stop + 1, every):
            try:
                y = run(y, last - every, last)
            except ValueError:
                state[:] = math.nan
                yield last
                return
            state[:] = y
            yield last


def _load(state: SystemState, scenario: Scenario, stepping: bool) -> _Compiled:
    """The compiled scenario with ``state`` loaded, refusing what
    ``simulate`` would: the scenario's sizes, masses and, when stepping, dt
    by validation's rules, a state that does not fit the scenario, and a
    state that is not finite."""
    errors = size_errors(scenario) + _mass_errors(scenario.masses)
    if stepping:
        errors += _dt_errors(scenario.integrator.dt)
    if errors:
        raise ValidationFailed("; ".join(errors))
    if state.p.shape != (scenario.n_agents, scenario.n_dims):
        raise ValidationFailed(
            f"state shape {state.p.shape} does not match scenario "
            f"({scenario.n_agents} agents, {scenario.n_dims} dims)")
    has_leader = state.leader is not None
    if has_leader != (scenario.mode is Mode.LEADER):
        raise ValidationFailed("state leader presence does not match scenario mode")
    if scenario.mode is Mode.LEADER and not scenario.protocol.has_leader:
        raise ValidationFailed("leader mode requires leader_velocity and leader_gain")
    comp = _Compiled(scenario)
    y = _flatten(state)
    if not np.isfinite(y).all():
        raise NonFiniteState(
            "state contains non-finite entries, "
            f"first at {_first_non_finite(y, comp.n, comp.dims)}",
            last_good_time=None)
    comp.state[:] = y
    return comp


def rhs(state: SystemState, scenario: Scenario) -> StateDerivative:
    """Time derivative of the full state under the scenario's closed loop."""
    comp = _load(state, scenario, stepping=False)
    stage = comp.stages[0]
    # The factors at t alone, in ``gains``' operations: its rows at t + dt/2
    # and t + dt would read dt, which takes no part here.
    gain = comp.constant_gain
    if gain is None:
        gain = np.negative(comp.gain_base + comp.gain_ripple * math.cos(state.t))
    comp.accel(stage, gain)
    return StateDerivative(*_split(stage[1], comp.n, comp.dims))


def rk4_step(state: SystemState, scenario: Scenario) -> SystemState:
    """One classical RK4 step of length scenario.integrator.dt."""
    comp = _load(state, scenario, stepping=True)
    with np.errstate(over="ignore", invalid="ignore"):
        next(comp.advance(0, 1, 1, state.t))
    p, q, leader_p, leader_q = _split(comp.state, comp.n, comp.dims)
    leader = None if leader_p is None else LeaderState(leader_p, leader_q)
    return SystemState(t=state.t + comp.dt, p=p, q=q, leader=leader)


# Leads the fingerprint record; a new record layout takes a new number.
_RECORD_TAG = b"consensim scenario record 1\n"


def scenario_fingerprint(scenario: Scenario) -> str:
    """Content hash (sha256 hex) of the scenario, the same in every process
    and on every platform.

    The hash covers one record: ``_RECORD_TAG``, then little-endian int64s,
    little-endian float64s and UTF-8 text (lone surrogates passed through),
    in this order; an absent optional part writes nothing.

    - ints: the counts of masses, edges, links and gains; the shapes of p
      and q; a leader-state flag and its p and q lengths (0, 0 without);
      the leader velocity and leader gain flags; the byte lengths of the
      description and of the kinds; n_agents and record_every, each as its
      word count bit_length // 64 + 1 and its two's complement words, low
      first; the edges' i and j columns and the links' agent column.
    - floats: masses, edge weights, link weights, velocity omega, leader
      velocity omega, gain b0s, gain amplitudes, leader gain b0 and
      amplitude, t, p and q row by row, leader p and q, dt, t_end, pos_tol,
      vel_tol; each NaN as float("nan").
    - text: the description, then the kinds joined by ",": mode, velocity,
      coupling, leader velocity, each gain, leader gain.

    With every length in the int block the record is injective: two
    scenarios hash alike exactly when their values have the same bits, any
    NaN counting as one value (so -0.0 and 0.0 differ).
    """
    topo, spec, state, iset = (scenario.topology, scenario.protocol, scenario.initial,
                               scenario.integrator)
    leader, lead_velocity, lead_gain = state.leader, spec.leader_velocity, spec.leader_gain
    (i, j, weights), (linked, link_weights) = topo.edge_arrays, topo.link_arrays
    gains = spec.gains
    description = scenario.description.encode("utf-8", "surrogatepass")
    # str enums join as their values.
    kinds = ",".join([scenario.mode, spec.velocity.kind, spec.coupling.kind,
                      *([] if lead_velocity is None else [lead_velocity.kind]),
                      *map(("constant", "cosine").__getitem__, gains.cosine.tolist()),
                      *([] if lead_gain is None else [lead_gain.kind])]).encode()
    header = np.array([len(scenario.masses), len(weights), len(link_weights), len(gains.b0),
                       *state.p.shape, *state.q.shape, leader is not None,
                       *((0, 0) if leader is None else map(len, leader)),
                       lead_velocity is not None, lead_gain is not None,
                       len(description), len(kinds)], "<i8")
    ints = np.concatenate([header, _words(topo.n_agents), _words(iset.record_every),
                           i, j, linked], dtype="<i8")
    floats = np.concatenate([
        scenario.masses, weights, link_weights, [spec.velocity.omega],
        [] if lead_velocity is None else [lead_velocity.omega], gains.b0, gains.amplitude,
        [] if lead_gain is None else [lead_gain.b0, lead_gain.amplitude],
        [state.t], state.p.ravel(), state.q.ravel(), *(() if leader is None else leader),
        [iset.dt, iset.t_end, scenario.pos_tol, scenario.vel_tol]], dtype="<f8")
    floats[np.isnan(floats)] = math.nan
    return hashlib.sha256(b"".join([_RECORD_TAG, ints.tobytes(), floats.tobytes(),
                                    description, kinds])).hexdigest()


def _words(value: int) -> np.ndarray:
    # A Python int of any size: its word count, then its words.
    count = value.bit_length() // 64 + 1
    words = np.frombuffer(value.to_bytes(8 * count, "little", signed=True), "<i8")
    return np.concatenate([[count], words])


def simulate(scenario: Scenario) -> Trajectory:
    """Integrate the scenario from t=0 to t_end and record samples.

    The scenario is validated first; a blocking failure raises
    ValidationFailed with every broken rule in the message. The state is
    checked for finiteness at every recorded sample; a blow-up is replayed
    from the sample before it to name its step, and raises NonFiniteState
    carrying the last good time; its message names the first non-finite
    agent (1-based) and component.

    Returns a Trajectory whose first sample is the initial state and whose
    samples are spaced dt*record_every apart, t_end inclusive, carrying the
    scenario's validation.
    """
    validation = validate_scenario(scenario)
    if not validation.ok:
        raise ValidationFailed("; ".join(validation.errors))

    # Hashed before the work buffers exist, so they never add to its peak.
    fingerprint = scenario_fingerprint(scenario)
    comp = _Compiled(scenario)
    iset = scenario.integrator
    buf = _integrate(comp, _flatten(scenario.initial), iset)
    times = (np.arange(len(buf)) * iset.record_every) * iset.dt
    times.flags.writeable = buf.flags.writeable = False
    return Trajectory(times, *_split(buf, comp.n, comp.dims), fingerprint, validation)


# A run takes the generated step when it has at most this many kernel
# components (M + 2E + L)·d, one per state row and directed edge: each
# undirected edge is stored in both directions, each leader link in one. The
# work budget (``_MAX_WORK``) counts E once. Measured with
# scripts/bench_kernel.py on 1-D rings of 3 to 20 agents (numpy 2.4, CPython
# 3.11, x86-64): a numpy step costs 15-21 us at these sizes, a generated one
# 0.19-0.24 us per component with linear feedback and constant gains and
# 0.24-0.34 us with sine feedback and cosine gains, and generating it 45-90
# us per component, so a run pays up to about 1.7 ms before its steps repay
# it (about 55-65 steps at 14 components, 105-130 at 24). A generated step
# stays the faster up to at least 62 components, the largest measured, but
# its break-even grows with the size (630-1260 steps at 60), so a larger
# bound would slow the short runs of that size.
_GENERATE_MAX_COMPONENTS = 24


def _generates(comp: _Compiled) -> bool:
    return (comp.rows + comp.n_edges) * comp.dims <= _GENERATE_MAX_COMPONENTS


def _integrate(comp: _Compiled, y: np.ndarray, iset: IntegratorSettings) -> np.ndarray:
    """The recorded state vectors of a run from state vector y, one row per
    sample, the initial state first; raises NonFiniteState on a blow-up.
    Small runs (``_generates``) take the generated step; a blow-up is
    replayed in the numpy kernel either way."""
    n_steps, every = round(iset.t_end / iset.dt), iset.record_every
    buf = np.empty((n_steps // every + 1, len(y)))
    buf[0] = y
    state = comp.state
    state[:] = y
    samples = (comp.advance_generated(n_steps, every) if _generates(comp)
               else comp.advance(0, n_steps, every))
    with np.errstate(over="ignore", invalid="ignore"):
        for step in samples:
            # A non-finite entry stays non-finite, so one check per sample
            # sees every blow-up; the replay finds the step it happened in.
            if not _finite(state):
                raise _blow_up(comp, buf[step // every - 1], step - every, step)
            buf[step // every] = state
    return buf


def _finite(y: np.ndarray) -> bool:
    # y·y is finite only if every entry is (one cheap call); when it
    # overflows, the entries themselves decide.
    return math.isfinite(y.dot(y)) or bool(np.isfinite(y).all())


def _blow_up(comp: _Compiled, y: np.ndarray, start: int, stop: int) -> NonFiniteState:
    """Replay steps start + 1 to stop from y, the state after step start,
    checking every step, and return the NonFiniteState that names the first
    whose state is not finite. Runs are deterministic, so when the state
    after step stop is not finite, one of them is."""
    state = comp.state
    state[:] = y
    for step in comp.advance(start, stop, 1):
        if not _finite(state):
            t_prev = (step - 1) * comp.dt
            return NonFiniteState(
                f"state became non-finite between t={t_prev:.6g} and t={step * comp.dt:.6g}, "
                f"first at {_first_non_finite(state, comp.n, comp.dims)}",
                last_good_time=t_prev)
