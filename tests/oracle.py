"""Scalar reference formulas of the closed loop, the oracle the kernel's tests
compare against: velocity feedback z + omega*sin(z), coupling z + z^3, and
gains b0 + amplitude*cos(t) with their envelope b0 -/+ |amplitude|. The
package evaluates these only in the vectorized kernel of
:mod:`consensim.dynamics` and in the envelope columns of
:mod:`consensim.protocols`."""

import math

import numpy as np

from consensim import CouplingKind, GainKind, GainProfile


def velocity(shape, z):
    """The velocity-feedback shape at z: z, or z + omega*sin(z)."""
    if shape.is_linear:
        return np.array(z, dtype=float)
    z = np.asarray(z, dtype=float)
    return z + shape.omega * np.sin(z)


def coupling(shape, z):
    """The position-coupling shape at z: z, or z + z^3."""
    if shape.kind is CouplingKind.LINEAR:
        return np.array(z, dtype=float)
    z = np.asarray(z, dtype=float)
    return z + z * z * z


def gain(profile, t: float) -> float:
    """The gain profile at time t: b0, or b0 + amplitude*cos(t)."""
    if profile.kind is GainKind.CONSTANT:
        return profile.b0
    return profile.b0 + profile.amplitude * math.cos(t)


def profiles(gains) -> list:
    """The followers' gain columns as one GainProfile per agent."""
    return [GainProfile("cosine" if cosine else "constant", b0, amplitude)
            for cosine, b0, amplitude in zip(gains.cosine.tolist(), gains.b0.tolist(),
                                             gains.amplitude.tolist())]


def gain_bounds(profile) -> tuple[float, float]:
    """(lower, upper) envelope of the gain profile over all t."""
    a = abs(profile.amplitude)
    return (profile.b0 - a, profile.b0 + a)
