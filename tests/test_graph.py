"""Topology construction, Laplacian structure, and reachability checks."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import consensim.analysis
import consensim.dynamics
import consensim.graph
from consensim import (DuplicateEdge, IndexOutOfRange, MalformedEntry, NonPositiveWeight,
                       SelfLoop, TopologyError, build_topology, bundled_scenario_path,
                       is_connected, laplacian, leader_reaches_all, list_bundled,
                       parse_scenario, parse_scenario_dict, predict_consensus,
                       validate_scenario)

# Chain of six with weights 0.2*(i+j) on consecutive pairs; the Laplacian
# diagonal below is the hand-computed degree sequence.
CHAIN6_EDGES = [(1, 2, 0.6), (2, 3, 1.0), (3, 4, 1.4), (4, 5, 1.8), (5, 6, 2.2)]
CHAIN6_DEGREES = [0.6, 1.6, 2.4, 3.2, 4.0, 2.2]


def reachable_from(n, adjacency, starts):
    """Frontier-set reachability, deliberately independent of the package's
    CSR-based search."""
    seen = set(starts)
    frontier = set(starts)
    while frontier:
        frontier = {j for i in frontier for j in adjacency[i]} - seen
        seen |= frontier
    return seen


def oracle_connected(n, pairs):
    if n == 1:
        return True
    adjacency = {i: set() for i in range(n)}
    for i, j in pairs:
        adjacency[i].add(j)
        adjacency[j].add(i)
    return len(reachable_from(n, adjacency, {0})) == n


def oracle_leader_reaches(n, pairs, linked):
    if not linked:
        return False
    adjacency = {i: set() for i in range(n)}
    for i, j in pairs:
        adjacency[i].add(j)
        adjacency[j].add(i)
    return len(reachable_from(n, adjacency, set(linked))) == n


def test_builds_and_normalizes_indices():
    topo = build_topology(3, [(2, 1, 0.5), (2, 3, 1.5)])
    assert topo.n_agents == 3
    assert topo.edges == ((0, 1, 0.5), (1, 2, 1.5))
    assert topo.leader_links == ()


def test_rejects_out_of_range_indices():
    with pytest.raises(IndexOutOfRange):
        build_topology(3, [(1, 4, 1.0)])
    with pytest.raises(IndexOutOfRange):
        build_topology(3, [(0, 2, 1.0)])
    with pytest.raises(IndexOutOfRange):
        build_topology(3, [(1, 2, 1.0)], leader_links=[(4, 1.0)])


def test_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_topology(3, [(2, 2, 1.0)])


def test_rejects_non_positive_weights():
    with pytest.raises(NonPositiveWeight):
        build_topology(3, [(1, 2, 0.0)])
    with pytest.raises(NonPositiveWeight):
        build_topology(3, [(1, 2, -2.0)])
    with pytest.raises(NonPositiveWeight):
        build_topology(3, [(1, 2, 1.0)], leader_links=[(1, -1.0)])


def test_refuses_integers_past_a_float_or_a_formatted_message_by_name():
    with pytest.raises(NonPositiveWeight, match=r"edge \(1, 2\) has a weight too large"):
        build_topology(2, [(1, 2, 10**400)])
    with pytest.raises(NonPositiveWeight, match="leader link to agent 1 has a weight too large"):
        build_topology(2, [(1, 2, 1.0)], leader_links=[(1, 10**400)])
    with pytest.raises(IndexOutOfRange, match="edge endpoint <int too long to show> outside"):
        build_topology(2, [(1, 10**5000, 1.0)])


def test_rejects_duplicate_edges_in_either_orientation():
    with pytest.raises(DuplicateEdge):
        build_topology(3, [(1, 2, 1.0), (2, 1, 0.5)])
    with pytest.raises(DuplicateEdge):
        build_topology(3, [(1, 2, 1.0)], leader_links=[(1, 1.0), (1, 2.0)])


def malformed_entry_message(edges, leader_links=()):
    with pytest.raises(MalformedEntry) as excinfo:
        build_topology(3, edges, leader_links)
    return str(excinfo.value)


def test_rejects_an_entry_of_another_type_by_its_position():
    # The first bad entry in list order is named, before the self-loop after it.
    assert (malformed_entry_message([(1, 2, 1.0), 5, (2, 2, 1.0)])
            == "edges[1] is of type int, expected (i, j, weight)")
    assert (malformed_entry_message([(1, 2, 1.0)], [None])
            == "leader_links[0] is of type NoneType, expected (i, weight)")


def test_rejects_an_entry_of_another_length_by_its_position():
    assert malformed_entry_message([(1, 2)]) == "edges[0] has 2 values, expected (i, j, weight)"
    assert (malformed_entry_message([(1, 2, 1.0)], [(1, 1.0), iter((2, 1.0, 3))])
            == "leader_links[1] has 3 values, expected (i, weight)")


def test_rejects_bad_agent_count():
    with pytest.raises(TopologyError):
        build_topology(0, [])


def test_chain_laplacian_matches_hand_computation():
    topo = build_topology(6, CHAIN6_EDGES)
    lap = laplacian(topo)
    np.testing.assert_allclose(np.diag(lap), CHAIN6_DEGREES, rtol=0, atol=0)
    for i, j, w in topo.edges:
        assert lap[i, j] == -w
        assert lap[j, i] == -w


def test_three_node_laplacian_entries():
    topo = build_topology(3, [(1, 2, 2.0), (1, 3, 0.5)])
    expected = np.array([[2.5, -2.0, -0.5],
                         [-2.0, 2.0, 0.0],
                         [-0.5, 0.0, 0.5]])
    np.testing.assert_array_equal(laplacian(topo), expected)


@st.composite
def random_topology(draw, max_n=8, min_weight=0.1):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
                  if pairs else st.just([]))
    weights = draw(st.lists(st.floats(min_value=min_weight, max_value=10.0),
                            min_size=len(chosen), max_size=len(chosen)))
    links = draw(st.lists(st.integers(min_value=1, max_value=n), unique=True, max_size=n))
    link_weights = draw(st.lists(st.floats(min_value=min_weight, max_value=10.0),
                                 min_size=len(links), max_size=len(links)))
    return build_topology(
        n,
        [(i, j, w) for (i, j), w in zip(chosen, weights)],
        leader_links=list(zip(links, link_weights)),
    )


@given(random_topology())
def test_laplacian_rows_sum_to_zero_and_symmetric(topo):
    lap = laplacian(topo)
    np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_array_equal(lap, lap.T)
    assert np.all(np.diag(lap) >= 0.0)


@given(random_topology(max_n=6))
@settings(max_examples=200)
def test_fiedler_value_agrees_with_connectivity(topo):
    # Second-smallest Laplacian eigenvalue is positive iff the graph is
    # connected; weights are bounded below so the threshold 1e-9 is safe.
    eigenvalues = np.linalg.eigvalsh(laplacian(topo))
    if topo.n_agents == 1:
        assert is_connected(topo)
        return
    assert (eigenvalues[1] > 1e-9) == is_connected(topo)


def test_connectivity_matches_oracle_exhaustively_small():
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            chosen = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
            topo = build_topology(n, [(i + 1, j + 1, 1.0) for i, j in chosen])
            assert is_connected(topo) == oracle_connected(n, chosen)


def test_leader_reachability_cases():
    no_links = build_topology(3, [(1, 2, 1.0), (2, 3, 1.0)])
    assert not leader_reaches_all(no_links)

    one_link = build_topology(3, [(1, 2, 1.0), (2, 3, 1.0)], leader_links=[(1, 1.0)])
    assert leader_reaches_all(one_link)

    split = build_topology(4, [(1, 2, 1.0), (3, 4, 1.0)], leader_links=[(1, 1.0)])
    assert not leader_reaches_all(split)

    bridged = build_topology(4, [(1, 2, 1.0), (3, 4, 1.0)],
                             leader_links=[(1, 1.0), (3, 1.0)])
    assert leader_reaches_all(bridged)


@given(random_topology())
@settings(max_examples=200)
def test_reachability_matches_oracle_randomized(topo):
    pairs = [(i, j) for i, j, _ in topo.edges]
    linked = [i for i, _ in topo.leader_links]
    assert is_connected(topo) == oracle_connected(topo.n_agents, pairs)
    assert leader_reaches_all(topo) == oracle_leader_reaches(topo.n_agents, pairs, linked)


def reference_index(i, n_agents, what):
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
        raise IndexOutOfRange(f"{what} {i!r} is not an integer")
    if not 1 <= i <= n_agents:
        raise IndexOutOfRange(f"{what} {i} outside 1..{n_agents}")
    return int(i)


def reference_build_topology(n_agents, edges):
    """Plain per-edge reference of build_topology's edge rules, one edge at a
    time in list order: the normalized edges, or the first edge's error."""
    seen = set()
    norm_edges = []
    for k, entry in enumerate(edges):
        try:
            values = tuple(entry)
        except TypeError:
            raise MalformedEntry(f"edges[{k}] is of type {type(entry).__name__}, "
                                 "expected (i, j, weight)") from None
        if len(values) != 3:
            raise MalformedEntry(f"edges[{k}] has {len(values)} values, expected (i, j, weight)")
        i, j, w = values
        i = reference_index(i, n_agents, "edge endpoint")
        j = reference_index(j, n_agents, "edge endpoint")
        if i == j:
            raise SelfLoop(f"edge ({i}, {j}) connects agent {i} to itself")
        w = float(w)
        if not math.isfinite(w) or w <= 0.0:
            raise NonPositiveWeight(f"edge ({i}, {j}) has weight {w}, must be finite and > 0")
        a, b = (i - 1, j - 1) if i < j else (j - 1, i - 1)
        if (a, b) in seen:
            raise DuplicateEdge(f"unordered pair ({a + 1}, {b + 1}) listed more than once")
        seen.add((a, b))
        norm_edges.append((a, b, w))
    return tuple(norm_edges)


def reference_leader_links(links):
    """The 0-based (agent, weight) pairs of valid 1-based leader links."""
    return tuple((int(i) - 1, float(w)) for i, w in links)


def view_types(topo):
    """The types of the entries of the tuple views."""
    return {tuple(map(type, entry)) for entry in topo.edges + topo.leader_links}


def outcome(build, n_agents, edges):
    try:
        result = build(n_agents, edges)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return "ok", getattr(result, "edges", result)


BAD_INDICES = [0, -3, 7, 10**30, 2**63, True, False, np.int64(0), 2.0, "1"]
BAD_WEIGHTS = [0.0, -0.0, -1.5, float("nan"), float("inf"), -float("inf")]
NOT_TRIPLES = [5, None, "ab", [1, 2], [1, 2, 1.0, 4], ()]


@st.composite
def faulty_edge_lists(draw, n=6):
    """A valid edge list over n agents with one to three faults injected at
    any position: a bad index, a self-loop, a bad weight, a duplicate in
    either orientation, or an entry that is not an (i, j, weight) triple."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=10))
    edges = [[i, j, draw(st.floats(min_value=0.1, max_value=5.0))] for i, j in chosen]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        k = draw(st.integers(min_value=0, max_value=len(edges) - 1))
        kind = draw(st.sampled_from(["index", "self_loop", "weight", "duplicate", "reversed",
                                     "not_a_triple"]))
        entry = edges[k]
        if kind == "not_a_triple" or not (isinstance(entry, list) and len(entry) == 3):
            edges[k] = draw(st.sampled_from(NOT_TRIPLES))
        elif kind == "index":
            entry[draw(st.integers(min_value=0, max_value=1))] = draw(st.sampled_from(BAD_INDICES))
        elif kind == "self_loop":
            entry[1] = entry[0]
        elif kind == "weight":
            entry[2] = draw(st.sampled_from(BAD_WEIGHTS))
        else:
            twin = entry[:2] if kind == "duplicate" else entry[1::-1]
            edges.insert(draw(st.integers(min_value=0, max_value=len(edges))), twin + [1.0])
    return edges


@given(faulty_edge_lists())
@settings(max_examples=300, deadline=None)
def test_bulk_edge_checks_raise_what_the_per_edge_reference_raises(edges):
    assert outcome(build_topology, 6, edges) == outcome(reference_build_topology, 6, edges)


def test_one_shot_iterator_entries_raise_the_rule_they_break():
    with pytest.raises(SelfLoop, match=r"edge \(2, 2\)"):
        build_topology(2, [iter((1, 2, 1.0)), iter((2, 2, 1.0))])
    assert build_topology(2, [iter((1, 2, 1.0))]).edges == ((0, 1, 1.0),)


@given(faulty_edge_lists())
@settings(max_examples=100, deadline=None)
def test_one_shot_iterator_entries_raise_what_their_lists_raise(edges):
    one_shot = [iter(entry) if isinstance(entry, (list, str)) else entry for entry in edges]
    assert outcome(build_topology, 6, one_shot) == outcome(build_topology, 6, edges)


@given(random_topology())
def test_valid_edge_lists_build_what_the_per_edge_reference_builds(topo):
    edges = [(i + 1, j + 1, w) for i, j, w in topo.edges][::-1]
    assert build_topology(topo.n_agents, edges).edges == reference_build_topology(
        topo.n_agents, edges)
    links = [(i + 1, w) for i, w in topo.leader_links][::-1]
    built = build_topology(topo.n_agents, edges, links)
    assert built.leader_links == reference_leader_links(links)
    assert view_types(built) <= {(int, int, float), (int, float)}


@pytest.mark.parametrize("name", list_bundled())
def test_bundled_tuple_views_are_what_the_per_edge_reference_builds(name):
    data = json.loads(bundled_scenario_path(name).read_text())
    topo = parse_scenario_dict(data).topology
    raw = data["topology"]
    assert topo.edges == reference_build_topology(topo.n_agents, raw["edges"])
    assert topo.leader_links == reference_leader_links(raw.get("leader_links", []))
    assert view_types(topo) <= {(int, int, float), (int, float)}


def test_each_reachability_question_is_searched_once_per_topology(monkeypatch):
    searches = []
    search = consensim.graph.first_unreached
    monkeypatch.setattr(consensim.graph, "first_unreached",
                        lambda topo, sources: searches.append(topo) or search(topo, sources))
    topo = build_topology(3, [(1, 2, 1.0), (2, 3, 1.0)], leader_links=[(2, 1.0)])
    for _ in range(3):
        assert is_connected(topo) and leader_reaches_all(topo)
    assert searches == [topo, topo]
    assert is_connected(build_topology(3, [(1, 2, 1.0), (2, 3, 1.0)]))
    assert len(searches) == 3


def test_a_failing_reachability_question_is_searched_once_per_topology(monkeypatch):
    # The refusals name the agent the search missed from the cached answer;
    # they do not search again to find it, from any module.
    searches = []
    search = consensim.graph.first_unreached
    for module in (consensim.graph, consensim.dynamics, consensim.analysis):
        if hasattr(module, "first_unreached"):
            monkeypatch.setattr(module, "first_unreached", lambda topo, sources:
                                searches.append(topo) or search(topo, sources))
    fig3b = parse_scenario(bundled_scenario_path("fig3b"), validate=False)
    fig2b = parse_scenario(bundled_scenario_path("fig2b"), validate=False)
    cut = dataclasses.replace(fig3b, topology=build_topology(
        5, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)], leader_links=[(2, 1.0)]))
    split = dataclasses.replace(fig2b, topology=build_topology(
        6, [(1, 2, 1.0), (2, 3, 1.0), (5, 6, 1.0), (3, 6, 1.0)]))
    for _ in range(2):
        assert not leader_reaches_all(cut.topology)
        assert "(none to agent 5)" in validate_scenario(cut).errors[-1]
        assert predict_consensus(cut).reason.endswith("(none to agent 5)")
        assert not is_connected(split.topology)
        assert "(no path from agent 1 to agent 4)" in validate_scenario(split).errors[-1]
        assert predict_consensus(split).reason.endswith("(no path from agent 1 to agent 4)")
    assert searches == [cut.topology, split.topology]
