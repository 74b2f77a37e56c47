"""Scenario file parsing, serialization round-trips, and the bundled set."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import consensim.scenario_io
from consensim import (GainProfile, Mode, ParseError, ValidationFailed, build_topology, bundled_scenario_path,
                       list_bundled, parse_scenario, parse_scenario_dict,
                       scenario_fingerprint, scenario_to_dict, write_scenario)


def minimal_dict(**overrides):
    data = {
        "mode": "leaderless",
        "n_agents": 2,
        "n_dims": 1,
        "masses": [1.0, 1.0],
        "topology": {"edges": [[1, 2, 1.0]]},
        "protocol": {
            "velocity": {"kind": "linear"},
            "coupling": {"kind": "linear"},
            "gains": [{"kind": "constant", "b0": 1.0}] * 2,
        },
        "initial": {"p": [0.0, 1.0], "q": [0.0, 0.0]},
    }
    data.update(overrides)
    return data


def test_bundled_names():
    assert list_bundled() == ["fig2a", "fig2b", "fig3a", "fig3b"]
    with pytest.raises(ParseError):
        bundled_scenario_path("fig9z")


def test_bundled_chain_scenario_contents():
    scenario = parse_scenario(bundled_scenario_path("fig2b"))
    assert scenario.mode is Mode.LEADERLESS
    assert scenario.n_agents == 6
    assert scenario.masses == tuple(pytest.approx(0.1 * i) for i in range(1, 7))
    assert scenario.topology.edges[0] == (0, 1, 0.6)
    assert scenario.protocol.gains.b0.tolist() == pytest.approx(
        [0.2 * i for i in range(1, 7)])
    assert scenario.protocol.velocity.is_linear
    assert not scenario.protocol.coupling.is_linear
    np.testing.assert_allclose(scenario.initial.p[:, 0], [0.2 * i for i in range(1, 7)])
    assert scenario.integrator.dt == 1e-3
    assert scenario.integrator.t_end == 50.0


def test_bundled_tracking_scenario_contents():
    scenario = parse_scenario(bundled_scenario_path("fig3b"))
    assert scenario.mode is Mode.LEADER
    assert scenario.n_agents == 5
    assert scenario.topology.leader_links == ((0, 1.0),)
    assert scenario.protocol.leader_gain.b0 == 0.6
    assert scenario.protocol.leader_gain.is_constant
    assert scenario.protocol.leader_velocity.is_linear
    assert scenario.protocol.velocity.omega == 0.5
    np.testing.assert_allclose(scenario.initial.leader.p, [1.0])
    np.testing.assert_allclose(scenario.initial.leader.q, [0.3])
    # Long horizon: the slowest error mode needs ~80 time units to settle
    # inside the default tolerances.
    assert scenario.integrator.t_end == 100.0

    wavy = parse_scenario(bundled_scenario_path("fig3a"))
    assert not wavy.protocol.leader_gain.is_constant
    assert wavy.protocol.leader_gain.amplitude == 0.15


def test_all_bundled_scenarios_validate():
    for name in list_bundled():
        parse_scenario(bundled_scenario_path(name))


def test_minimal_dict_parses():
    scenario = parse_scenario_dict(minimal_dict())
    assert scenario.n_agents == 2
    assert scenario.integrator.dt == 1e-3
    assert scenario.pos_tol == 1e-3


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ParseError, match="scenario: unknown"):
        parse_scenario_dict(minimal_dict(extra=1))
    with pytest.raises(ParseError, match="scenario.topology: unknown"):
        parse_scenario_dict(minimal_dict(topology={"edges": [], "nodes": 3}))
    with pytest.raises(ParseError, match="scenario.protocol.velocity: unknown"):
        bad = minimal_dict()
        bad["protocol"] = dict(bad["protocol"], velocity={"kind": "linear", "omega": 1.0})
        parse_scenario_dict(bad)


def test_missing_keys_rejected_with_path():
    data = minimal_dict()
    del data["masses"]
    with pytest.raises(ParseError, match="missing required key 'masses'"):
        parse_scenario_dict(data)
    with pytest.raises(ParseError, match="scenario.initial: missing required key 'q'"):
        parse_scenario_dict(minimal_dict(initial={"p": [0.0, 1.0]}))


def test_type_errors_rejected():
    with pytest.raises(ParseError, match="expected a number"):
        parse_scenario_dict(minimal_dict(masses=[1.0, "heavy"]))
    # Booleans are not numbers even though bool subclasses int.
    with pytest.raises(ParseError, match="expected a number"):
        parse_scenario_dict(minimal_dict(masses=[1.0, True]))
    with pytest.raises(ParseError, match="expected an integer"):
        parse_scenario_dict(minimal_dict(n_agents=2.0))
    with pytest.raises(ParseError, match="scenario.mode"):
        parse_scenario_dict(minimal_dict(mode="following"))


def test_semantic_violations_name_the_rule():
    bad_weight = minimal_dict(topology={"edges": [[1, 2, -1.0]]})
    with pytest.raises(ValidationFailed, match="NonPositiveWeight"):
        parse_scenario_dict(bad_weight)

    loop = minimal_dict(topology={"edges": [[1, 1, 1.0]]})
    with pytest.raises(ValidationFailed, match="SelfLoop"):
        parse_scenario_dict(loop)

    disconnected = minimal_dict(n_agents=3, masses=[1.0] * 3,
                                initial={"p": [0.0, 1.0, 2.0], "q": [0.0] * 3})
    disconnected["protocol"] = dict(disconnected["protocol"],
                                    gains=[{"kind": "constant", "b0": 1.0}] * 3)
    with pytest.raises(ValidationFailed, match="graph not connected"):
        parse_scenario_dict(disconnected)
    # Reporting mode still parses the broken scenario.
    scenario = parse_scenario_dict(disconnected, validate=False)
    assert scenario.n_agents == 3


def test_coordinate_shapes_follow_n_dims():
    two_d = minimal_dict(
        n_dims=2,
        initial={"p": [[0.0, 1.0], [1.0, 0.0]], "q": [[0.0, 0.0], [0.0, 0.0]]})
    scenario = parse_scenario_dict(two_d)
    assert scenario.initial.p.shape == (2, 2)
    with pytest.raises(ParseError, match="scalar coordinate but n_dims=2"):
        parse_scenario_dict(minimal_dict(n_dims=2))
    with pytest.raises(ParseError, match="expected 1 components"):
        parse_scenario_dict(minimal_dict(
            initial={"p": [[0.0, 1.0], [1.0, 0.0]], "q": [[0.0, 0.0], [0.0, 0.0]]}))


def test_round_trip_preserves_fingerprint():
    for name in list_bundled():
        scenario = parse_scenario(bundled_scenario_path(name))
        rebuilt = parse_scenario_dict(scenario_to_dict(scenario))
        assert scenario_fingerprint(rebuilt) == scenario_fingerprint(scenario)


positive = st.floats(min_value=0.1, max_value=5.0)


@st.composite
def scenario_dicts(draw):
    """Valid schema-shaped scenarios over both modes, 1-3 dimensions, every
    shape and gain kind, chain-plus-chord graphs and any recording grid."""
    n = draw(st.integers(min_value=1, max_value=6))
    dims = draw(st.integers(min_value=1, max_value=3))
    leader = draw(st.booleans())

    def coordinate():
        values = draw(st.lists(st.floats(min_value=-10.0, max_value=10.0),
                               min_size=dims, max_size=dims))
        return values[0] if dims == 1 else values

    def velocity():
        if draw(st.booleans()):
            return {"kind": "linear"}
        return {"kind": "sine_perturbed", "omega": draw(st.floats(min_value=0.0, max_value=2.0))}

    def gain():
        b0 = draw(positive)
        if draw(st.booleans()):
            return {"kind": "constant", "b0": b0}
        return {"kind": "cosine", "b0": b0,
                "amplitude": b0 * draw(st.floats(min_value=-0.9, max_value=0.9))}

    # The chain keeps the graph connected; chords are drawn on top of it.
    edges = [[i, i + 1, draw(positive)] for i in range(1, n)]
    chords = [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)]
    if chords:
        edges += [[i, j, draw(positive)] for i, j in
                  draw(st.lists(st.sampled_from(chords), max_size=3, unique=True))]
    dt = draw(st.sampled_from([1e-3, 0.01, 0.05, 0.1]))
    record_every = draw(st.integers(min_value=1, max_value=20))
    data = {
        "description": draw(st.text(max_size=12)),
        "mode": "leader" if leader else "leaderless",
        "n_agents": n,
        "n_dims": dims,
        "masses": [draw(positive) for _ in range(n)],
        "topology": {"edges": edges},
        "protocol": {
            "velocity": velocity(),
            "coupling": {"kind": draw(st.sampled_from(["linear", "linear_plus_cubic"]))},
            "gains": [gain() for _ in range(n)],
        },
        "initial": {"p": [coordinate() for _ in range(n)],
                    "q": [coordinate() for _ in range(n)]},
        "integrator": {"dt": dt, "record_every": record_every,
                       "t_end": dt * record_every * draw(st.integers(min_value=1, max_value=5))},
        "tolerances": {"position": draw(positive), "velocity": draw(positive)},
    }
    if leader:
        linked = draw(st.lists(st.integers(min_value=1, max_value=n), min_size=1, unique=True))
        data["topology"]["leader_links"] = [[i, draw(positive)] for i in linked]
        data["protocol"]["leader_velocity"] = velocity()
        data["protocol"]["leader_gain"] = gain()
        data["initial"]["leader"] = {"p": coordinate(), "q": coordinate()}
    return data


@given(scenario_dicts())
@settings(max_examples=60, deadline=None)
def test_round_trip_preserves_fingerprint_of_generated_scenarios(data):
    scenario = parse_scenario_dict(data)
    text = json.dumps(scenario_to_dict(scenario))
    rebuilt = parse_scenario_dict(json.loads(text))
    assert scenario_fingerprint(rebuilt) == scenario_fingerprint(scenario)


# What a mutation may put in place of any value: other types, unhashable
# kinds, non-finite numbers, zero, negative, huge and out-of-range sizes or
# indices, integers too large for a float or too long to format, and keys
# that are not strings.
MUTANTS = [None, True, False, "", "x", [], {}, [[]], [None], {"kind": []}, 1.5, -0.5,
           float("nan"), float("inf"), -float("inf"), 0, 1, -1, 7, 10**9, -10**9, 2**63,
           10**400, 10**5000, [10**5000], {10**5000: 0, "x": 0}]


def value_paths(value, path=()):
    """The path of every value nested in ``value``, its own first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from value_paths(item, (*path, key))


@st.composite
def mutated_scenario_dicts(draw):
    """A generated or bundled scenario dict with one to three values
    dropped or replaced, anywhere in it."""
    if draw(st.booleans()):
        data = draw(scenario_dicts())
    else:
        data = json.loads(bundled_scenario_path(draw(st.sampled_from(list_bundled()))).read_text())
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        paths = list(value_paths(data))[1:]
        if not paths:
            break
        *where, key = draw(st.sampled_from(paths))
        parent = data
        for step in where:
            parent = parent[step]
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(MUTANTS)))
    return data


@given(mutated_scenario_dicts())
@settings(max_examples=150, deadline=None)
def test_mutated_scenarios_parse_or_raise_a_named_error(data):
    try:
        parse_scenario_dict(data)
    except (ParseError, ValidationFailed):
        pass


def test_file_round_trip(tmp_path):
    scenario = parse_scenario(bundled_scenario_path("fig3a"))
    target = tmp_path / "copy.json"
    write_scenario(scenario, target)
    again = parse_scenario(target)
    assert scenario_fingerprint(again) == scenario_fingerprint(scenario)
    # Serialized form uses 1-based indices.
    data = json.loads(target.read_text())
    assert data["topology"]["edges"][0][:2] == [1, 2]
    assert data["topology"]["leader_links"] == [[1, 1.0]]


def test_unreadable_and_malformed_files(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        parse_scenario(tmp_path / "absent.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_scenario(garbled)
    # json.loads refuses an integer of more than 4300 digits with a plain ValueError.
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(minimal_dict()).replace('"n_dims": 1', '"n_dims": 1' + "0" * 5000))
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_scenario(huge)


def leader_dict(n_dims=1):
    def coordinate(v):
        return v if n_dims == 1 else [v] * n_dims
    return {
        "mode": "leader",
        "n_agents": 4,
        "n_dims": n_dims,
        "masses": [1.0] * 4,
        "topology": {"edges": [[1, 2, 1.0], [2, 3, 1.0], [3, 4, 1.0]],
                     "leader_links": [[1, 1.0], [3, 0.5]]},
        "protocol": {
            "velocity": {"kind": "linear"},
            "coupling": {"kind": "linear"},
            "gains": [{"kind": "cosine", "b0": 1.0, "amplitude": 0.1} for _ in range(4)],
            "leader_velocity": {"kind": "linear"},
            "leader_gain": {"kind": "constant", "b0": 1.0},
        },
        "initial": {"p": [coordinate(0.1 * k) for k in range(4)],
                    "q": [coordinate(0.0)] * 4,
                    "leader": {"p": coordinate(1.0), "q": coordinate(0.0)}},
        "integrator": {"dt": 1e-3, "t_end": 1.0, "record_every": 100},
    }


# One bad element at a nonzero index in each list the parser walks element by
# element, then unhashable kinds, integers too large for a float, a non-list
# of leader links and integers past any count or index (too long to format),
# each with the full message it must produce.
BAD_ELEMENTS = [
    (1, ("masses", 3), "x", "scenario.masses[3]: expected a number, got 'x'"),
    (1, ("topology", "edges", 2), [1, 2],
     "scenario.topology.edges[2]: expected [i, j, weight]"),
    (1, ("topology", "edges", 2, 0), 2.5,
     "scenario.topology.edges[2][0]: expected an integer, got 2.5"),
    (1, ("topology", "edges", 2, 1), "4",
     "scenario.topology.edges[2][1]: expected an integer, got '4'"),
    (1, ("topology", "edges", 2, 2), None,
     "scenario.topology.edges[2][2]: expected a number, got None"),
    (1, ("topology", "leader_links", 1), 3,
     "scenario.topology.leader_links[1]: expected [i, weight]"),
    (1, ("topology", "leader_links", 1, 0), True,
     "scenario.topology.leader_links[1][0]: expected an integer, got True"),
    (1, ("topology", "leader_links", 1, 1), "half",
     "scenario.topology.leader_links[1][1]: expected a number, got 'half'"),
    (1, ("protocol", "gains", 2), [],
     "scenario.protocol.gains[2]: expected an object, got list"),
    (1, ("protocol", "gains", 2, "kind"), "wavy",
     "scenario.protocol.gains[2].kind: unknown gain kind 'wavy'"),
    (1, ("protocol", "gains", 2, "b0"), "big",
     "scenario.protocol.gains[2].b0: expected a number, got 'big'"),
    (1, ("protocol", "gains", 2, "amplitude"), [0.1],
     "scenario.protocol.gains[2].amplitude: expected a number, got [0.1]"),
    (1, ("protocol", "gains", 2, "phase"), 0.0,
     "scenario.protocol.gains[2]: unknown key(s) ['phase']"),
    (1, ("initial", "p", 2), "x",
     "scenario.initial.p[2]: expected a number or a list of numbers"),
    (1, ("initial", "q", 3), [0.0, 0.0],
     "scenario.initial.q[3]: expected 1 components, got 2"),
    (2, ("initial", "p", 1, 1), "x",
     "scenario.initial.p[1][1]: expected a number, got 'x'"),
    (2, ("initial", "q", 3), 0.5,
     "scenario.initial.q[3]: scalar coordinate but n_dims=2"),
    (2, ("initial", "leader", "q", 1), False,
     "scenario.initial.leader.q[1]: expected a number, got False"),
    (1, ("protocol", "velocity", "kind"), [],
     "scenario.protocol.velocity.kind: unknown velocity kind []"),
    (1, ("protocol", "leader_velocity", "kind"), [],
     "scenario.protocol.leader_velocity.kind: unknown velocity kind []"),
    (1, ("protocol", "gains", 1, "kind"), [],
     "scenario.protocol.gains[1].kind: unknown gain kind []"),
    (1, ("protocol", "leader_gain", "kind"), {},
     "scenario.protocol.leader_gain.kind: unknown gain kind {}"),
    (1, ("integrator", "dt"), 10**400,
     "scenario.integrator.dt: integer too large for a float"),
    (1, ("masses", 2), -10**400, "scenario.masses[2]: integer too large for a float"),
    (1, ("topology", "edges", 1, 2), 10**400,
     "scenario.topology.edges[1][2]: integer too large for a float"),
    (1, ("initial", "p", 1), 10**400, "scenario.initial.p[1]: integer too large for a float"),
    (2, ("initial", "leader", "p", 0), 10**400,
     "scenario.initial.leader.p[0]: integer too large for a float"),
    (1, ("topology", "leader_links"), 5, "scenario.topology.leader_links: expected a list"),
    (1, ("topology", "leader_links"), None, "scenario.topology.leader_links: expected a list"),
    (1, ("n_agents",), 10**5000, "scenario.n_agents: integer out of range"),
    (1, ("n_agents",), -10**5000, "scenario.n_agents: integer out of range"),
    (1, ("n_dims",), 10**5000, "scenario.n_dims: integer out of range"),
    (1, ("n_dims",), -10**5000, "scenario.n_dims: integer out of range"),
    (1, ("integrator", "record_every"), -10**5000,
     "scenario.integrator.record_every: integer out of range"),
    (1, ("topology", "edges", 1, 0), 10**5000,
     "scenario.topology.edges[1][0]: integer out of range"),
]


# Values and keys that Python refuses to format, named by their type.
TOO_LONG_TO_SHOW = [
    (("mode",), 10**5000,
     "scenario.mode: expected 'leaderless' or 'leader', got <int too long to show>"),
    (("n_agents",), [10**5000],
     "scenario.n_agents: expected an integer, got <list too long to show>"),
    (("masses", 2), [10**5000],
     "scenario.masses[2]: expected a number, got <list too long to show>"),
    (("protocol", "velocity", "kind"), 10**5000,
     "scenario.protocol.velocity.kind: unknown velocity kind <int too long to show>"),
    (("protocol", "coupling"), {"kind": "linear", "x": 0, 10**5000: 0},
     "scenario.protocol.coupling: unknown key(s) ['x', <int too long to show>]"),
]


@pytest.mark.parametrize("where,value,message", TOO_LONG_TO_SHOW,
                         ids=[".".join(map(str, case[0])) for case in TOO_LONG_TO_SHOW])
def test_a_value_too_long_to_show_is_named_by_its_type(where, value, message):
    data = leader_dict()
    node = data
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(ParseError) as info:
        parse_scenario_dict(data)
    assert str(info.value) == message


def test_edge_parse_error_comes_before_an_earlier_topology_rule():
    # A self-loop at [1] breaks a topology rule; the float index at [3] is
    # a structural error, which is raised first.
    data = leader_dict()
    data["topology"]["edges"] = [[1, 2, 1.0], [2, 2, 1.0], [3, 4, 1.0], [4.0, 1, 1.0]]
    with pytest.raises(ParseError) as info:
        parse_scenario_dict(data)
    assert str(info.value) == "scenario.topology.edges[3][0]: expected an integer, got 4.0"


def test_topology_gets_the_files_own_entry_lists(monkeypatch):
    calls = []

    def spy(n_agents, edges, leader_links):
        calls.append((edges, leader_links))
        return build_topology(n_agents, edges, leader_links)

    monkeypatch.setattr(consensim.scenario_io, "build_topology", spy)
    data = leader_dict()
    parse_scenario_dict(data)
    [(edges, links)] = calls
    assert edges is data["topology"]["edges"]
    assert links is data["topology"]["leader_links"]


def test_topology_rule_comes_before_a_fault_in_a_later_section():
    data = leader_dict()
    data["topology"]["edges"][1] = [2, 2, 1.0]
    data["integrator"]["dt"] = "x"
    with pytest.raises(ValidationFailed, match="^SelfLoop: edge \\(2, 2\\)"):
        parse_scenario_dict(data)


def test_link_parse_error_comes_before_an_earlier_edge_rule():
    data = leader_dict()
    data["topology"]["edges"][0] = [1, 1, 1.0]
    data["topology"]["leader_links"][1] = [1, "half"]
    with pytest.raises(ParseError) as info:
        parse_scenario_dict(data)
    assert str(info.value) == "scenario.topology.leader_links[1][1]: expected a number, got 'half'"


def test_python_entries_that_build_topology_takes_are_accepted():
    data = leader_dict()
    data["topology"]["edges"] = [(1, 2, 1.0), (np.int64(2), 3, 1.0), [3, 4, 1.0]]
    data["topology"]["leader_links"] = [(1, 1.0), [np.int32(3), 0.5]]
    topology = parse_scenario_dict(data).topology
    assert topology.edges == parse_scenario_dict(leader_dict()).topology.edges
    assert topology.leader_links == ((0, 1.0), (2, 0.5))


def long_leader_dict(n=5000):
    """A leader ring of n agents: every list the parser checks in bulk (masses,
    edges, gains, coordinates) has n entries."""
    data = leader_dict()
    data.update(n_agents=n, masses=[1.0] * n)
    data["topology"]["edges"] = [[k, k % n + 1, 1.0] for k in range(1, n + 1)]
    data["protocol"]["gains"] = [{"kind": "cosine", "b0": 1.0, "amplitude": 0.1}
                                 for _ in range(n)]
    data["initial"].update(p=[1e-4 * k for k in range(n)], q=[0.0] * n)
    return data


@pytest.mark.parametrize("make,k", [(leader_dict, 2), (long_leader_dict, 4999)],
                         ids=["gains[2]", "gains[4999]"])
def test_a_non_finite_gain_is_refused_by_its_rule(make, k):
    data = make()
    data["protocol"]["gains"][k]["b0"] = float("nan")
    with pytest.raises(ValidationFailed) as info:
        parse_scenario_dict(json.loads(json.dumps(data)))
    assert str(info.value) == "ValueError: gain parameters must be finite"


def test_parse_builds_no_gain_object_per_agent(monkeypatch):
    calls = []
    check = GainProfile.__post_init__

    def counted(profile):
        calls.append(profile)
        check(profile)

    monkeypatch.setattr(GainProfile, "__post_init__", counted)
    scenario = parse_scenario_dict(long_leader_dict())
    assert scenario.n_agents == 5000
    assert len(calls) <= 1


# The same messages for a bad last element of 5000-long lists, which the
# parser first checks in bulk.
BAD_LAST_ELEMENTS = [
    (("masses", 4999), "x", "scenario.masses[4999]: expected a number, got 'x'"),
    (("masses", 4999), 10**400, "scenario.masses[4999]: integer too large for a float"),
    (("topology", "edges", 4999), [1, 2],
     "scenario.topology.edges[4999]: expected [i, j, weight]"),
    (("topology", "edges", 4999, 0), True,
     "scenario.topology.edges[4999][0]: expected an integer, got True"),
    (("topology", "edges", 4999, 1), 10**5000,
     "scenario.topology.edges[4999][1]: integer out of range"),
    (("topology", "edges", 4999, 2), "w",
     "scenario.topology.edges[4999][2]: expected a number, got 'w'"),
    (("protocol", "gains", 4999), [],
     "scenario.protocol.gains[4999]: expected an object, got list"),
    (("protocol", "gains", 4999, "kind"), "constant",
     "scenario.protocol.gains[4999]: unknown key(s) ['amplitude']"),
    (("protocol", "gains", 4999, "b0"), None,
     "scenario.protocol.gains[4999].b0: expected a number, got None"),
    (("protocol", "gains", 4999, "amplitude"), 10**400,
     "scenario.protocol.gains[4999].amplitude: integer too large for a float"),
    (("initial", "p", 4999), "x",
     "scenario.initial.p[4999]: expected a number or a list of numbers"),
    (("initial", "q", 4999), [0.0, 0.0], "scenario.initial.q[4999]: expected 1 components, got 2"),
]
CASES = ([(4, n_dims, where, value, message) for n_dims, where, value, message in BAD_ELEMENTS]
         + [(5000, 1, where, value, message) for where, value, message in BAD_LAST_ELEMENTS])


@pytest.mark.parametrize("n_agents,n_dims,where,value,message", CASES,
                         ids=[".".join(map(str, case[2])) for case in CASES])
def test_bad_element_message_names_its_path(n_agents, n_dims, where, value, message):
    def make():
        return leader_dict(n_dims) if n_agents == 4 else long_leader_dict(n_agents)
    data = make()
    assert parse_scenario_dict(make()).n_agents == n_agents
    node = data
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(ParseError) as info:
        parse_scenario_dict(data)
    assert str(info.value) == message
