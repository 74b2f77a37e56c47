"""Protocol building blocks: velocity feedback shapes, position coupling
shapes, velocity gain profiles, their sector and gain envelopes, and the
checks against the standing assumptions. These classes hold the shapes'
parameters; the closed loop they define is evaluated and integrated in one
place, the kernel of :mod:`consensim.dynamics`.

The shape families are closed enumerations. Velocity feedback is either the
identity or a sine-perturbed identity z + omega*sin(z); position coupling is
either linear or linear-plus-cubic; gains are constant or constant plus a
cosine ripple. Everything downstream (integration, energy bookkeeping,
closed-form predictions) dispatches on these kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from ._real import real


class VelocityKind(str, Enum):
    LINEAR = "linear"
    SINE_PERTURBED = "sine_perturbed"


class CouplingKind(str, Enum):
    LINEAR = "linear"
    LINEAR_PLUS_CUBIC = "linear_plus_cubic"


class GainKind(str, Enum):
    CONSTANT = "constant"
    COSINE = "cosine"


@dataclass(frozen=True)
class VelocityShape:
    """Odd velocity-feedback nonlinearity applied to each agent's velocity.

    LINEAR is z; SINE_PERTURBED is z + omega*sin(z) with omega >= 0.
    """

    kind: VelocityKind = VelocityKind.LINEAR
    omega: float = 0.0

    def __post_init__(self):
        if type(self.kind) is not VelocityKind:
            object.__setattr__(self, "kind", VelocityKind(self.kind))
        if type(self.omega) is not float:
            object.__setattr__(self, "omega", real(self.omega, "omega"))
        if not math.isfinite(self.omega) or self.omega < 0.0:
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")
        if self.kind is VelocityKind.LINEAR and self.omega != 0.0:
            raise ValueError("linear velocity shape takes no omega")

    @property
    def is_linear(self) -> bool:
        """True when the shape is the identity (omega == 0 counts)."""
        return self.kind is VelocityKind.LINEAR or self.omega == 0.0


@dataclass(frozen=True)
class CouplingShape:
    """Odd position-coupling nonlinearity applied to neighbor differences."""

    kind: CouplingKind = CouplingKind.LINEAR

    def __post_init__(self):
        if type(self.kind) is not CouplingKind:
            object.__setattr__(self, "kind", CouplingKind(self.kind))

    @property
    def is_linear(self) -> bool:
        return self.kind is CouplingKind.LINEAR

    def antiderivative(self, x):
        """Integral of the shape from 0 to x, componentwise. Even and
        nonnegative for these odd shapes; used by the energy functions."""
        x = np.asarray(x, dtype=float)
        half_sq = 0.5 * x * x
        if self.kind is CouplingKind.LINEAR:
            return half_sq
        return half_sq + 0.25 * (x * x) * (x * x)


@dataclass(frozen=True, slots=True)
class GainProfile:
    """Velocity-feedback gain of one agent as a function of time.

    CONSTANT is b0; COSINE is b0 + amplitude*cos(t). The profile must stay
    strictly positive, i.e. b0 - |amplitude| > 0; that is checked by
    :func:`validate_assumptions` and is a blocking scenario rule.
    """

    kind: GainKind = GainKind.CONSTANT
    b0: float = 1.0
    amplitude: float = 0.0

    def __post_init__(self):
        # One profile per agent: values that are already plain are kept as given.
        if type(self.kind) is not GainKind:
            object.__setattr__(self, "kind", GainKind(self.kind))
        if type(self.b0) is not float:
            object.__setattr__(self, "b0", real(self.b0, "b0"))
        if type(self.amplitude) is not float:
            object.__setattr__(self, "amplitude", real(self.amplitude, "amplitude"))
        if not math.isfinite(self.b0) or not math.isfinite(self.amplitude):
            raise ValueError("gain parameters must be finite")
        if self.kind is GainKind.CONSTANT and self.amplitude != 0.0:
            raise ValueError("constant gain takes no amplitude")

    @property
    def is_constant(self) -> bool:
        return self.kind is GainKind.CONSTANT or self.amplitude == 0.0


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the control law needs besides the graph: the follower
    velocity/coupling shapes, one gain profile per agent, and (for tracking
    scenarios) the leader's own velocity shape and gain."""

    velocity: VelocityShape
    coupling: CouplingShape
    gains: tuple[GainProfile, ...]
    leader_velocity: VelocityShape | None = None
    leader_gain: GainProfile | None = None

    def __post_init__(self):
        object.__setattr__(self, "gains", tuple(self.gains))
        if not self.gains:
            raise ValueError("at least one gain profile is required")
        if (self.leader_velocity is None) != (self.leader_gain is None):
            raise ValueError("leader_velocity and leader_gain must be given together")

    @property
    def has_leader(self) -> bool:
        return self.leader_gain is not None

    @cached_property
    def gain_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The followers' gain parameters as read-only arrays (b0, amplitude),
        one entry per agent, in the order of ``gains``."""
        b0 = np.array([g.b0 for g in self.gains])
        amplitude = np.array([g.amplitude for g in self.gains])
        b0.flags.writeable = amplitude.flags.writeable = False
        return b0, amplitude

    @cached_property
    def envelopes(self) -> tuple[tuple[float, ...], tuple[float, ...],
                                 tuple[float, float], tuple[float, float]]:
        """(lows, highs, gain, sector): the lower and upper envelope of every
        gain profile, followers then leader, and the global gain and sector
        envelopes over the followers and the leader. The assumption checks,
        the tracking weight and the tracking energy all read this one copy."""
        lows, highs = _gain_bounds(self)
        return tuple(lows), tuple(highs), (min(lows), max(highs)), _sector_envelope(self)


# sin(z)/z takes its minimum over all z at x* = TAN_ROOT, the first positive
# root of tan x = x, where it equals cos(x*). x* and cos(x*) are each rounded
# to the nearest double.
TAN_ROOT = 4.493409457909064
COS_TAN_ROOT = -0.21723362821122166


def sector_constants(shape: VelocityShape) -> tuple[float, float]:
    """Sector bounds (lower, upper) of the velocity shape f: the inf and sup
    of f(z)/z over nonzero z.

    Linear shapes give exactly (1, 1). For z + omega*sin(z) the ratio is
    1 + omega*sin(z)/z, so the bounds are 1 + omega*cos(x*) at the first
    positive root x* of tan x = x, and the limit 1 + omega at z = 0.
    """
    if shape.is_linear:
        return (1.0, 1.0)
    return (1.0 + shape.omega * COS_TAN_ROOT, 1.0 + shape.omega)


def _gain_bounds(spec: ProtocolSpec) -> tuple[list[float], list[float]]:
    """Lower and upper envelope b0 -/+ |amplitude| of every gain profile,
    followers then leader."""
    b0, amplitude = spec.gain_columns
    if spec.leader_gain is not None:
        b0 = np.append(b0, spec.leader_gain.b0)
        amplitude = np.append(amplitude, spec.leader_gain.amplitude)
    ripple = np.abs(amplitude)
    return (b0 - ripple).tolist(), (b0 + ripple).tolist()


def _sector_envelope(spec: ProtocolSpec) -> tuple[float, float]:
    shapes = [spec.velocity] + ([spec.leader_velocity] if spec.has_leader else [])
    lows, highs = zip(*(sector_constants(s) for s in shapes))
    return min(lows), max(highs)


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of checking a protocol against the standing assumptions:
    velocity shapes vanish only at zero with positive sign, coupling shapes
    are odd with positive sign, gains stay strictly positive.

    Check k is entry k of the four parallel tuples ``names``, ``passed``,
    ``blocking`` and ``details``. ``sector`` and ``gain_bounds`` are the
    combined envelopes over followers and leader; they feed the tracking
    energy machinery.
    """

    names: tuple[str, ...]
    passed: tuple[bool, ...]
    blocking: tuple[bool, ...]
    details: tuple[str, ...]
    sector: tuple[float, float]
    gain_bounds: tuple[float, float]

    @property
    def all_passed(self) -> bool:
        return all(self.passed)


def validate_assumptions(spec: ProtocolSpec) -> AssumptionReport:
    """Check the protocol's shapes and gains against the standing assumptions.

    Every check is decided exactly from the closed shape families. The shape
    checks are advisory. Both velocity shapes vanish at 0, and z*f(z) =
    z^2*(1 + omega*sin(z)/z) is positive for all z != 0 exactly when the
    lower sector constant is positive; otherwise it fails at z = TAN_ROOT.
    Both coupling shapes are odd (IEEE negation is exact, so h(-z) == -h(z)
    bit for bit), have the sign of z and vanish only at 0. The check that
    each gain profile stays strictly positive (lower envelope > 0) is
    blocking. The report also carries the gain and sector envelopes over
    followers and leader; :func:`sector_constants` gives one shape's sector.
    """
    names, passed, details = [], [], []
    shapes = [("velocity_", spec.velocity)]
    if spec.leader_velocity is not None:
        shapes.append(("leader_velocity_", spec.leader_velocity))
    for prefix, shape in shapes:
        ok = sector_constants(shape)[0] > 0.0
        names += [f"{prefix}zero_at_zero", f"{prefix}sign"]
        passed += [True, ok]
        details += ["value at 0 is 0.0",
                    "z*value(z) > 0" if ok else f"z*value(z) <= 0 at z={TAN_ROOT:.6g}"]
    names += ["coupling_odd", "coupling_zero_only_at_zero", "coupling_sign"]
    passed += [True, True, True]
    details += ["value(-z) == -value(z) exactly", "no nonzero root", "z*value(z) > 0"]
    n_shape_checks = len(names)

    # One blocking check per gain profile, built from the envelope columns.
    lows, highs, gain_bounds, sector = spec.envelopes
    names += [f"gain_{k}_positive_floor" for k in range(1, len(spec.gains) + 1)]
    if spec.leader_gain is not None:
        names.append("leader_gain_positive_floor")
    passed += [low > 0.0 for low in lows]
    details += ["envelope [%.6g, %.6g]" % bounds for bounds in zip(lows, highs)]

    names.append("velocity_sector_positive")
    passed.append(bool(sector[0] > 0.0))
    details.append(f"sector [{sector[0]:.6g}, {sector[1]:.6g}]")
    blocking = (False,) * n_shape_checks + (True,) * len(lows) + (False,)
    return AssumptionReport(names=tuple(names), passed=tuple(passed), blocking=blocking,
                            details=tuple(details), sector=sector, gain_bounds=gain_bounds)
