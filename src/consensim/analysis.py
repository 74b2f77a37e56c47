"""Consensus analysis. Each paper quantity has one form, gated on the
scenario's hypotheses and read from the run's arrays:

- ``predict_consensus``: the closed-form consensus value, or why there is
  none;
- ``lyapunov_series``: the energy (leaderless) or tracking energy (leader
  mode) at every sample of a trajectory;
- ``conserved_series``: the conserved quantity at every sample of a
  leaderless trajectory.

A single state is a one-sample :class:`Trajectory`. Posterior consensus
detection and the tracking-weight bound complete the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Mode, Scenario, Trajectory
from .errors import HypothesisViolated, InvalidBounds
from .graph import Topology, is_connected, leader_reaches_all
from .protocols import ProtocolSpec


# Floats per edge- or agent-sized temporary in one block of lyapunov_series.
_SERIES_BLOCK = 2**18


def _edge_energies(P: np.ndarray, topo: Topology, spec: ProtocolSpec) -> np.ndarray:
    # Per sample of P (S, N, d): the sum over unordered pairs of w times the
    # coupling antiderivative of the position differences, i.e. half the
    # double sum over ordered pairs, which the even antiderivative makes
    # equal in both directions.
    i, j, w = topo.edge_arrays
    return spec.coupling.antiderivative(P[:, j] - P[:, i]).sum(axis=2) @ w


def _leaderless_energies(P: np.ndarray, Q: np.ndarray, topo: Topology, spec: ProtocolSpec,
                         masses) -> np.ndarray:
    masses = np.asarray(masses, dtype=float)
    return 0.5 * np.sum(masses[:, None] * Q * Q, axis=(1, 2)) + _edge_energies(P, topo, spec)


def _leader_energies(
    P: np.ndarray,
    Q: np.ndarray,
    leader_P: np.ndarray,
    leader_Q: np.ndarray,
    topo: Topology,
    spec: ProtocolSpec,
    leader_weight: float,
    gain_lower: float,
    sector_lower: float,
) -> np.ndarray:
    if not (gain_lower > 0.0 and sector_lower > 0.0):
        raise HypothesisViolated(
            f"gain_lower and sector_lower must be > 0, got {gain_lower}, {sector_lower}")
    bk = gain_lower * sector_lower
    p_err = P - leader_P[:, None, :]
    q_err = Q - leader_Q[:, None, :]
    link_i, link_w = topo.link_arrays
    value = leader_weight / (2.0 * bk) * np.sum(leader_Q * leader_Q, axis=1)
    value += np.sum(q_err * q_err, axis=(1, 2)) / bk
    value += 2.0 / bk * (spec.coupling.antiderivative(p_err[:, link_i]).sum(axis=2) @ link_w)
    value += 2.0 / bk * _edge_energies(p_err, topo, spec)
    return value


def tracking_gain_lower_bound(
    n_agents: int,
    gain_lower: float,
    gain_upper: float,
    sector_lower: float,
    sector_upper: float,
) -> float:
    """Smallest leader kinetic weight for which the tracking energy is
    guaranteed nonincreasing: 2N(bk*BK + 3(bk)^2 + 2(BK)^2)/(bk)^2 with
    bk = gain_lower*sector_lower and BK = gain_upper*sector_upper.

    Linear in N; invariant under a common scaling of all four bounds.
    """
    if n_agents < 1:
        raise InvalidBounds(f"n_agents must be >= 1, got {n_agents}")
    vals = (gain_lower, gain_upper, sector_lower, sector_upper)
    if any(not math.isfinite(v) or v <= 0.0 for v in vals):
        raise InvalidBounds(f"bounds must be finite and > 0, got {vals}")
    if gain_lower > gain_upper or sector_lower > sector_upper:
        raise InvalidBounds(f"lower bounds exceed upper bounds: {vals}")
    low = gain_lower * sector_lower
    high = gain_upper * sector_upper
    return 2.0 * n_agents * (low * high + 3.0 * low * low + 2.0 * high * high) / (low * low)


def default_tracking_weight(scenario: Scenario) -> float:
    """Leader kinetic weight used when none is given: 1.01 times the
    guaranteed-monotone lower bound for this scenario's envelopes."""
    if scenario.mode is not Mode.LEADER:
        raise HypothesisViolated("tracking weight applies to leader scenarios only")
    _, _, (g_lo, g_hi), (s_lo, s_hi) = scenario.protocol.envelopes
    if g_lo <= 0.0 or s_lo <= 0.0:
        raise HypothesisViolated(
            f"gain/sector envelopes must be positive, got {(g_lo, g_hi)}, {(s_lo, s_hi)}")
    return 1.01 * tracking_gain_lower_bound(scenario.n_agents, g_lo, g_hi, s_lo, s_hi)


def _spec_gain_values(spec: ProtocolSpec) -> np.ndarray:
    """The followers' gains, which must be constant and positive, read from
    the spec's gain columns."""
    b0, amplitude = spec.gain_columns
    if amplitude.any():
        raise HypothesisViolated("conserved quantity needs constant gains")
    if np.any(b0 <= 0.0) or not np.all(np.isfinite(b0)):
        raise HypothesisViolated("gains must be finite and > 0")
    return b0


def _conserved(p: np.ndarray, q: np.ndarray, masses, b: np.ndarray) -> np.ndarray:
    # Sum over the agent axis of (..., N, d) positions and velocities.
    m = np.asarray(masses, dtype=float)
    return np.sum(b[:, None] * p + m[:, None] * q, axis=-2)


@dataclass(frozen=True)
class Prediction:
    """Closed-form consensus value when the scenario's hypotheses allow one,
    otherwise the reason there is none."""

    value: np.ndarray | None
    reason: str | None

    @property
    def available(self) -> bool:
        return self.value is not None


def predict_consensus(scenario: Scenario) -> Prediction:
    """Closed-form consensus value of a scenario, or why none exists.

    Leaderless scenarios need linear velocity feedback, constant positive
    gains, and a connected graph; the value is the conserved quantity at
    t=0 over the total gain, sum(b_i p_i(0) + m_i q_i(0)) / sum(b_i). Leader
    scenarios need a constant positive leader gain, linear leader velocity
    feedback, and a leader path to every agent; the value is the leader's
    own limit p_L(0) + q_L(0)/b_L. Every refusal comes back as the reason.
    """
    try:
        return Prediction(_consensus_value(scenario), None)
    except HypothesisViolated as exc:
        return Prediction(None, str(exc))


def _consensus_value(scenario: Scenario) -> np.ndarray:
    # Raises HypothesisViolated, naming the failed hypothesis, on refusal.
    spec, initial = scenario.protocol, scenario.initial
    if scenario.mode is Mode.LEADERLESS:
        if not spec.velocity.is_linear:
            raise HypothesisViolated("nonlinear velocity feedback has no closed-form consensus value")
        if spec.gain_columns[1].any():
            raise HypothesisViolated("time-varying gains have no closed-form consensus value")
        if not is_connected(scenario.topology):
            raise HypothesisViolated("graph not connected")
        b = _spec_gain_values(spec)
        if initial.leader is not None:
            raise HypothesisViolated("conserved quantity is a leaderless construction")
        return _conserved(initial.p, initial.q, scenario.masses, b) / float(np.sum(b))
    if not spec.leader_velocity.is_linear:
        raise HypothesisViolated("nonlinear leader velocity feedback has no closed-form target")
    if not spec.leader_gain.is_constant:
        raise HypothesisViolated("a time-varying leader gain has no closed-form target")
    if not leader_reaches_all(scenario.topology):
        raise HypothesisViolated("leader does not reach every agent")
    b = spec.leader_gain.b0
    if not b > 0.0:
        raise HypothesisViolated(f"prediction needs a positive constant leader gain, got {b}")
    return initial.leader.p + initial.leader.q / b


@dataclass(frozen=True)
class ConsensusReport:
    """Posterior verdict on one trajectory.

    ``achieved`` means both criteria hold at the last sample and from
    ``t_consensus`` onward; spreads are leader-relative when a leader is
    present. ``predicted_value`` is filled only when the scenario was given
    and its hypotheses admit a closed form, otherwise ``prediction_reason``
    says why not.
    """

    achieved: bool
    t_consensus: float | None
    final_spread: float
    final_speed: float
    observed_value: np.ndarray
    predicted_value: np.ndarray | None
    prediction_reason: str | None
    pos_tol: float
    vel_tol: float


def detect_consensus(
    traj: Trajectory,
    pos_tol: float,
    vel_tol: float,
    scenario: Scenario | None = None,
) -> ConsensusReport:
    """Decide whether the trajectory reached (and kept) consensus.

    Per sample, the position spread is the largest pairwise position gap
    (largest distance to the leader when one is present) and the speed is
    the largest velocity magnitude (leader-relative when present). Consensus
    is achieved when both drop to the tolerances and stay there through the
    final sample; t_consensus is the earliest sample time of that trailing
    run. The observed value is the mean final agent position per component.
    """
    if not (pos_tol > 0.0 and vel_tol > 0.0):
        raise ValueError("tolerances must be > 0")
    P, Q = traj.p, traj.q
    if traj.leader_p is not None:
        spreads = np.abs(P - traj.leader_p[:, None]).max(axis=(1, 2))
        speeds = np.abs(Q - traj.leader_q[:, None]).max(axis=(1, 2))
    else:
        spreads = (P.max(axis=1) - P.min(axis=1)).max(axis=1)
        speeds = np.abs(Q).max(axis=(1, 2))
    ok = (spreads <= pos_tol) & (speeds <= vel_tol)
    # The trailing run of ok samples, as a prefix of the reversed flags.
    start = len(ok) - int(np.logical_and.accumulate(ok[::-1]).sum())
    achieved = start < len(ok)

    predicted = None
    reason = None if scenario is not None else "no scenario attached"
    if scenario is not None:
        prediction = predict_consensus(scenario)
        predicted, reason = prediction.value, prediction.reason
    return ConsensusReport(
        achieved=achieved,
        t_consensus=float(traj.t[start]) if achieved else None,
        final_spread=float(spreads[-1]),
        final_speed=float(speeds[-1]),
        observed_value=P[-1].mean(axis=0),
        predicted_value=predicted,
        prediction_reason=reason,
        pos_tol=float(pos_tol),
        vel_tol=float(vel_tol),
    )


def lyapunov_series(
    traj: Trajectory,
    scenario: Scenario,
    leader_weight: float | None = None,
) -> np.ndarray:
    """Energy at every sample of the trajectory, an (S,) array aligned with
    ``traj.t``.

    Leaderless scenarios use the energy: half the mass-weighted kinetic term
    plus, per edge, its weight times the coupling antiderivative of the
    position difference. Leader scenarios use the tracking energy in
    leader-relative errors (meaningful for unit masses), scaled by the lower
    gain and sector envelopes of ``ProtocolSpec.envelopes``, with ``leader_weight``
    on the leader's kinetic term (default: 1.01 times the
    guaranteed-monotone bound). Samples are evaluated in blocks whose edge
    and agent temporaries hold about ``_SERIES_BLOCK`` floats each.
    """
    topo, spec = scenario.topology, scenario.protocol
    P, Q = traj.p, traj.q
    if scenario.mode is Mode.LEADERLESS:
        def energies(block):
            return _leaderless_energies(P[block], Q[block], topo, spec, scenario.masses)
    else:
        if traj.leader_p is None:
            raise HypothesisViolated("tracking energy needs a leader state")
        if leader_weight is None:
            leader_weight = default_tracking_weight(scenario)
        _, _, (g_lo, _), (s_lo, _) = spec.envelopes

        def energies(block):
            return _leader_energies(P[block], Q[block], traj.leader_p[block],
                                    traj.leader_q[block], topo, spec, leader_weight, g_lo, s_lo)
    _, n, d = P.shape
    size = max(1, _SERIES_BLOCK // (max(n, len(topo.edges)) * d))
    return np.concatenate([energies(slice(k, k + size)) for k in range(0, len(P), size)])


def conserved_series(traj: Trajectory, scenario: Scenario) -> np.ndarray:
    """Conserved quantity at every sample, an (S, d) array aligned with
    ``traj.t``; hypotheses checked once here."""
    if scenario.mode is not Mode.LEADERLESS:
        raise HypothesisViolated("conserved quantity is a leaderless construction")
    if not scenario.protocol.velocity.is_linear:
        raise HypothesisViolated("conservation needs linear velocity feedback")
    return _conserved(traj.p, traj.q, scenario.masses, _spec_gain_values(scenario.protocol))


def conservation_drift(traj: Trajectory, scenario: Scenario,
                       series: np.ndarray | None = None) -> float:
    """Largest relative excursion of the conserved quantity over the run:
    max_t |value(t) - value(0)|_inf / (1 + |value(0)|_inf). ``series`` is
    the run's :func:`conserved_series` when the caller already has it."""
    if series is None:
        series = conserved_series(traj, scenario)
    scale = 1.0 + float(np.abs(series[0]).max())
    return float(np.abs(series - series[0]).max()) / scale
