"""Topology construction, Laplacian structure, and reachability checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import consensim.graph
from consensim import (DuplicateEdge, IndexOutOfRange, NonPositiveWeight, SelfLoop,
                       TopologyError, build_topology, is_connected, laplacian,
                       leader_reaches_all)

# Chain of six with weights 0.2*(i+j) on consecutive pairs; the Laplacian
# diagonal below is the hand-computed degree sequence.
CHAIN6_EDGES = [(1, 2, 0.6), (2, 3, 1.0), (3, 4, 1.4), (4, 5, 1.8), (5, 6, 2.2)]
CHAIN6_DEGREES = [0.6, 1.6, 2.4, 3.2, 4.0, 2.2]


def reachable_from(n, adjacency, starts):
    """Frontier-set reachability, deliberately independent of the package's
    deque-based search."""
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


def test_neighbor_map_is_symmetric_view():
    topo = build_topology(3, [(1, 2, 0.5), (2, 3, 1.5)])
    assert topo.neighbor_map[0] == ((1, 0.5),)
    assert set(topo.neighbor_map[1]) == {(0, 0.5), (2, 1.5)}
    assert topo.neighbor_map[2] == ((1, 1.5),)


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


def test_rejects_duplicate_edges_in_either_orientation():
    with pytest.raises(DuplicateEdge):
        build_topology(3, [(1, 2, 1.0), (2, 1, 0.5)])
    with pytest.raises(DuplicateEdge):
        build_topology(3, [(1, 2, 1.0)], leader_links=[(1, 1.0), (1, 2.0)])


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


def test_each_reachability_question_is_searched_once_per_topology(monkeypatch):
    searches = []
    search = consensim.graph._reaches_all
    monkeypatch.setattr(consensim.graph, "_reaches_all",
                        lambda topo, sources: searches.append(topo) or search(topo, sources))
    topo = build_topology(3, [(1, 2, 1.0), (2, 3, 1.0)], leader_links=[(2, 1.0)])
    for _ in range(3):
        assert is_connected(topo) and leader_reaches_all(topo)
    assert searches == [topo, topo]
    assert is_connected(build_topology(3, [(1, 2, 1.0), (2, 3, 1.0)]))
    assert len(searches) == 3
