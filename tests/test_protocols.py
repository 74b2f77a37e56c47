"""Shape families, sector bounds, standing-assumption checks, and the
closed loop's forces on hand-computed chains, read from the public rhs."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensim import (CouplingShape, GainProfile, Mode, ProtocolSpec, Scenario, SystemState,
                       VelocityShape, build_topology, rhs, sector_constants,
                       validate_assumptions)
from consensim.dynamics import LeaderState
from consensim.protocols import COS_TAN_ROOT

import oracle

# Sector bounds of z + 0.5*sin(z): the lower constant sits at the first
# positive minimum of sin(z)/z (near z = 4.4934), the upper at z = 0.
SECTOR_HALF = (0.8913831858943891, 1.5)

# First positive root of tan x = x, where sin(z)/z takes its minimum.
TAN_ROOT = 4.493409457909064

finite_z = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


def sine_shape(omega=0.5):
    return VelocityShape(kind="sine_perturbed", omega=omega)


def test_velocity_shapes_evaluate():
    lin = VelocityShape(kind="linear")
    assert oracle.velocity(lin, 2.5) == 2.5
    assert lin.is_linear
    s = sine_shape()
    assert oracle.velocity(s, 2.0) == pytest.approx(2.0 + 0.5 * math.sin(2.0), abs=0, rel=1e-15)
    assert not s.is_linear
    assert sine_shape(0.0).is_linear


def test_velocity_shape_rejects_bad_parameters():
    with pytest.raises(ValueError):
        VelocityShape(kind="sine_perturbed", omega=-0.1)
    with pytest.raises(ValueError):
        VelocityShape(kind="linear", omega=0.3)
    with pytest.raises(ValueError):
        VelocityShape(kind="cubic")


@pytest.mark.parametrize("z", [0.0, -0.0], ids=["plus_zero", "minus_zero"])
@pytest.mark.parametrize("shape, evaluate", [(VelocityShape(), oracle.velocity),
                                             (CouplingShape(), oracle.coupling)],
                         ids=["velocity", "coupling"])
def test_linear_shapes_keep_the_sign_of_zero(shape, evaluate, z):
    values = np.array([z, 1.5])
    out = evaluate(shape, values)
    np.testing.assert_array_equal(np.signbit(out), np.signbit(values))
    assert not np.shares_memory(out, values)
    assert np.signbit(evaluate(shape, z)) == np.signbit(z)


def test_coupling_shapes_evaluate():
    lin = CouplingShape(kind="linear")
    cubic = CouplingShape(kind="linear_plus_cubic")
    assert oracle.coupling(lin, 2.0) == 2.0
    assert oracle.coupling(cubic, 2.0) == 10.0
    assert lin.antiderivative(2.0) == 2.0
    assert cubic.antiderivative(2.0) == 6.0


@given(finite_z)
def test_coupling_is_odd(z):
    for kind in ("linear", "linear_plus_cubic"):
        shape = CouplingShape(kind=kind)
        assert oracle.coupling(shape, -z) == -oracle.coupling(shape, z)
        assert oracle.coupling(shape, 0.0) == 0.0


@given(finite_z)
def test_coupling_antiderivative_is_even_nonnegative_and_consistent(z):
    for kind in ("linear", "linear_plus_cubic"):
        shape = CouplingShape(kind=kind)
        big = shape.antiderivative(z)
        assert big == shape.antiderivative(-z)
        assert big >= 0.0
        eps = 1e-6 * (1.0 + abs(z))
        slope = (shape.antiderivative(z + eps) - shape.antiderivative(z - eps)) / (2 * eps)
        assert slope == pytest.approx(float(oracle.coupling(shape, z)), rel=1e-5, abs=1e-5)


@given(finite_z, st.floats(min_value=0.0, max_value=0.9))
def test_velocity_shape_is_odd(z, omega):
    shape = VelocityShape(kind="sine_perturbed", omega=omega)
    assert oracle.velocity(shape, -z) == -oracle.velocity(shape, z)


def test_gain_profiles():
    const = GainProfile(kind="constant", b0=0.4)
    assert oracle.gain(const, 17.3) == 0.4
    assert oracle.gain_bounds(const) == (0.4, 0.4)
    assert const.is_constant

    wavy = GainProfile(kind="cosine", b0=0.5, amplitude=0.15)
    assert oracle.gain(wavy, 0.0) == pytest.approx(0.65, abs=1e-15)
    assert oracle.gain(wavy, math.pi) == pytest.approx(0.35, abs=1e-15)
    assert oracle.gain_bounds(wavy) == (0.35, 0.65)
    assert not wavy.is_constant

    with pytest.raises(ValueError):
        GainProfile(kind="constant", b0=1.0, amplitude=0.2)


def test_gain_envelope_covers_all_profiles():
    profiles = [GainProfile(b0=0.2), GainProfile(kind="cosine", b0=1.0, amplitude=0.15)]
    spec = ProtocolSpec(velocity=VelocityShape(), coupling=CouplingShape(), gains=profiles)
    assert spec.envelopes[2] == (0.2, 1.15)


signed_reals = st.floats(min_value=-2.0, max_value=2.0) | st.sampled_from([0.0, -0.0])


@given(st.lists(st.tuples(signed_reals, signed_reals), min_size=2, max_size=5), st.booleans())
def test_envelope_columns_are_the_oracle_bounds_bit_for_bit(params, leader):
    # Followers then, in leader mode, the leader: the order of the columns.
    profiles = [GainProfile(kind="cosine", b0=b0, amplitude=a) for b0, a in params]
    spec = ProtocolSpec(velocity=VelocityShape(), coupling=CouplingShape(),
                        gains=profiles[:-1] if leader else profiles,
                        leader_velocity=VelocityShape() if leader else None,
                        leader_gain=profiles[-1] if leader else None)
    lows, highs, _, _ = spec.envelopes
    expected = [oracle.gain_bounds(g) for g in profiles]
    assert np.array(lows).tobytes() == np.array([low for low, _ in expected]).tobytes()
    assert np.array(highs).tobytes() == np.array([high for _, high in expected]).tobytes()


def test_sector_constants_linear_is_exact():
    assert sector_constants(VelocityShape(kind="linear")) == (1.0, 1.0)
    assert sector_constants(sine_shape(0.0)) == (1.0, 1.0)


def test_sector_constants_against_independent_minimizer():
    lo, hi = sector_constants(sine_shape(0.5))
    assert (lo, hi) == pytest.approx(SECTOR_HALF, abs=1e-12)

    from scipy.optimize import minimize_scalar
    ratio = lambda z: 1.0 + 0.5 * math.sin(z) / z
    bracket = minimize_scalar(ratio, bounds=(3.0, 6.0), method="bounded",
                              options={"xatol": 1e-12})
    assert lo == pytest.approx(ratio(bracket.x), abs=1e-9)
    assert hi == pytest.approx(1.5, abs=1e-12)


def test_tan_root_solves_tan_x_equals_x():
    # tan x - x increases through zero at x* (its slope is tan^2 x), so the
    # root lies between two points a few ulps either side of the constant.
    step = 2 * math.ulp(TAN_ROOT)
    below, above = TAN_ROOT - step, TAN_ROOT + step
    assert math.tan(below) - below < 0.0 < math.tan(above) - above
    assert 4.0 < TAN_ROOT < 3 * math.pi / 2
    # At the root sin(x)/x equals cos(x), the minimum of the sector ratio.
    assert COS_TAN_ROOT == pytest.approx(math.cos(TAN_ROOT), abs=2 * math.ulp(COS_TAN_ROOT))
    assert COS_TAN_ROOT == pytest.approx(math.sin(TAN_ROOT) / TAN_ROOT,
                                         abs=2 * math.ulp(COS_TAN_ROOT))


def test_closed_form_sector_matches_independent_minimizer_across_omega():
    from scipy.optimize import minimize_scalar
    lows = []
    for omega in np.linspace(0.01, 5.0, 50):
        omega = float(omega)
        lo, hi = sector_constants(sine_shape(omega))
        ratio = lambda z: 1.0 + omega * math.sin(z) / z
        best = minimize_scalar(ratio, bounds=(3.0, 6.0), method="bounded",
                               options={"xatol": 1e-12})
        assert lo == pytest.approx(ratio(best.x), abs=1e-12)
        assert hi == 1.0 + omega
        lows.append(lo)
    # Past omega = 1/|cos x*| the sector lower bound turns negative.
    assert min(lows) < 0.0 < max(lows)


@given(st.floats(min_value=0.01, max_value=0.9),
       st.floats(min_value=-40.0, max_value=40.0).filter(lambda z: abs(z) > 1e-6))
@settings(max_examples=300)
def test_sector_containment(omega, z):
    # k_lo * z^2 <= z * f(z) <= k_hi * z^2 for every nonzero z in range.
    shape = VelocityShape(kind="sine_perturbed", omega=omega)
    lo, hi = sector_constants(shape)
    product = z * float(oracle.velocity(shape, z))
    tol = 1e-9 * z * z
    assert lo * z * z - tol <= product <= hi * z * z + tol


def test_protocol_spec_leader_fields_come_together():
    gains = (GainProfile(b0=1.0),)
    with pytest.raises(ValueError):
        ProtocolSpec(velocity=VelocityShape(), coupling=CouplingShape(), gains=gains,
                     leader_gain=GainProfile(b0=0.6))
    with pytest.raises(ValueError):
        ProtocolSpec(velocity=VelocityShape(), coupling=CouplingShape(), gains=())


def all_pass_spec():
    return ProtocolSpec(
        velocity=sine_shape(),
        coupling=CouplingShape(kind="linear_plus_cubic"),
        gains=(GainProfile(b0=0.2), GainProfile(kind="cosine", b0=0.4, amplitude=0.15)),
    )


def test_validate_assumptions_all_pass():
    report = validate_assumptions(all_pass_spec())
    assert report.all_passed
    assert [n for n, ok, b in zip(report.names, report.passed, report.blocking)
            if b and not ok] == []
    assert report.sector == pytest.approx(SECTOR_HALF, abs=1e-12)
    assert report.gain_bounds == pytest.approx((0.2, 0.55), abs=1e-15)
    names = set(report.names)
    assert "coupling_odd" in names and "velocity_sector_positive" in names


def test_validate_assumptions_flags_gain_floor_violation():
    spec = ProtocolSpec(
        velocity=VelocityShape(),
        coupling=CouplingShape(),
        gains=(GainProfile(kind="cosine", b0=0.2, amplitude=0.25),),
    )
    report = validate_assumptions(spec)
    assert not report.all_passed
    failing = [n for n, ok, b in zip(report.names, report.passed, report.blocking)
               if b and not ok]
    assert len(failing) == 1
    assert failing[0] == "gain_1_positive_floor"


# The lower sector constant 1 + omega*COS_TAN_ROOT crosses 0 at this omega.
SIGN_THRESHOLD = -1.0 / COS_TAN_ROOT


@pytest.mark.parametrize("as_leader", [True, False], ids=["leader", "follower"])
@pytest.mark.parametrize("omega", [
    0.5,
    # Just past the threshold: a 10 000-point grid on [-10, 10] misses the
    # narrow dip of z*f(z) below 0 near TAN_ROOT.
    4.603338850582638,
    SIGN_THRESHOLD * (1.0 - 1e-9),
    SIGN_THRESHOLD * (1.0 + 1e-9),
], ids=["omega0.5", "grid_band", "below_threshold", "above_threshold"])
def test_validate_assumptions_covers_leader_shapes(omega, as_leader):
    shape = sine_shape(omega)
    spec = ProtocolSpec(
        velocity=VelocityShape() if as_leader else shape,
        coupling=CouplingShape(),
        gains=(GainProfile(b0=0.5),),
        leader_velocity=shape if as_leader else VelocityShape(),
        leader_gain=GainProfile(b0=0.6),
    )
    report = validate_assumptions(spec)
    passed = dict(zip(report.names, report.passed))
    details = dict(zip(report.names, report.details))
    sign = "leader_velocity_sign" if as_leader else "velocity_sign"
    positive = sector_constants(shape)[0] > 0.0
    # z*f(z) > 0 and a positive sector floor are the same fact.
    assert passed[sign] == positive == passed["velocity_sector_positive"]
    assert report.all_passed == positive
    if not positive:
        assert details[sign] == "z*value(z) <= 0 at z=4.49341"
    # Combined sector widens to cover the nonlinear shape, leader or follower.
    assert report.sector == pytest.approx((1.0 + omega * math.cos(TAN_ROOT), 1.0 + omega),
                                          abs=1e-12)
    assert report.gain_bounds == (0.5, 0.6)


def chain6_state_and_wiring():
    topo = build_topology(6, [(i, i + 1, 0.2 * (2 * i + 1)) for i in range(1, 6)])
    state = SystemState(t=0.0,
                        p=[0.2 * i for i in range(1, 7)],
                        q=[0.3 * i for i in range(1, 7)])
    spec = ProtocolSpec(
        velocity=VelocityShape(),
        coupling=CouplingShape(kind="linear_plus_cubic"),
        gains=tuple(GainProfile(b0=0.2 * i) for i in range(1, 7)),
    )
    return topo, state, spec


def forces(topo, state, spec):
    """Control force on each agent: the closed loop's acceleration at unit masses."""
    scenario = Scenario(mode=Mode.LEADER if spec.has_leader else Mode.LEADERLESS,
                        masses=(1.0,) * topo.n_agents, topology=topo, protocol=spec,
                        initial=state)
    return rhs(state, scenario).q_dot[:, 0]


def test_leaderless_control_hand_computed():
    # Agent 1: -0.2*0.3 + 0.6*(0.2 + 0.2^3) = 0.0648; the end agent sees one
    # neighbor only.
    u = forces(*chain6_state_and_wiring())
    assert u[0] == pytest.approx(0.0648, abs=1e-15)
    # Agent 3 sees both neighbors at gap +-0.2 with weights 1.0 and 1.4:
    # -0.6*0.9 + 1.0*(-0.208) + 1.4*(0.208)
    assert u[2] == pytest.approx(-0.54 - 0.208 + 1.4 * 0.208, abs=1e-14)


def test_leader_control_hand_computed():
    # Five-agent chain with a leader linked to agent 1, evaluated at t = 0:
    # -0.35*(0.4 + 0.5*sin 0.4) + 0.9*h(-0.3) + 1.0*h(1.3), h(z) = z + z^3.
    edges = [(i, i + 1, 0.3 * (2 * i + 1)) for i in range(1, 5)]
    topo = build_topology(5, edges, leader_links=[(1, 1.0)])
    state = SystemState(t=0.0,
                        p=[-0.3 * i for i in range(1, 6)],
                        q=[0.4 * i for i in range(1, 6)],
                        leader=LeaderState(np.array([1.0]), np.array([0.3])))
    spec = ProtocolSpec(
        velocity=sine_shape(),
        coupling=CouplingShape(kind="linear_plus_cubic"),
        gains=tuple(GainProfile(kind="cosine", b0=0.2 * i, amplitude=0.15)
                    for i in range(1, 6)),
        leader_velocity=VelocityShape(),
        leader_gain=GainProfile(b0=0.6),
    )
    u = forces(topo, state, spec)
    assert u[0] == pytest.approx(2.9945517900959864, abs=1e-14)
    # Unlinked agents feel no leader term: the same agents without the leader.
    u_leaderless = forces(build_topology(5, edges),
                          SystemState(t=0.0, p=state.p, q=state.q),
                          dataclasses.replace(spec, leader_velocity=None, leader_gain=None))
    np.testing.assert_array_equal(u[1:], u_leaderless[1:])
