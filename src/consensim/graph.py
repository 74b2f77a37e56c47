"""Weighted undirected interconnection topology plus optional leader links.

Edges are stored once per unordered pair. Agent indices are 0-based inside
the package; :func:`build_topology` and the scenario file format use 1-based
indices, converted at that boundary.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DuplicateEdge, IndexOutOfRange, NonPositiveWeight, SelfLoop, TopologyError


@dataclass(frozen=True)
class Topology:
    """Interconnection graph of ``n_agents`` agents.

    ``edges`` holds (i, j, weight) with 0-based i < j, one entry per unordered
    pair. ``leader_links`` holds (i, weight) for agents that receive the
    leader's position directly. Construct through :func:`build_topology`,
    which validates and normalizes.
    """

    n_agents: int
    edges: tuple[tuple[int, int, float], ...]
    leader_links: tuple[tuple[int, float], ...] = ()

    @cached_property
    def neighbor_map(self) -> tuple[tuple[tuple[int, float], ...], ...]:
        """For each agent, the (neighbor, weight) pairs, both directions."""
        nbrs: list[list[tuple[int, float]]] = [[] for _ in range(self.n_agents)]
        for i, j, w in self.edges:
            nbrs[i].append((j, w))
            nbrs[j].append((i, w))
        return tuple(tuple(entry) for entry in nbrs)

    @cached_property
    def connected(self) -> bool:
        """Whether the agent graph is connected; see :func:`is_connected`."""
        return _reaches_all(self, (0,))

    @cached_property
    def leader_reaches_all(self) -> bool:
        """Whether every agent has a path to a leader-linked agent; see
        :func:`leader_reaches_all`."""
        return _reaches_all(self, (i for i, _ in self.leader_links))

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``edges`` as read-only arrays (i, j, weight), one entry per pair."""
        table = np.array(self.edges, dtype=float).reshape(-1, 3)
        return _frozen(table[:, 0].astype(np.intp), table[:, 1].astype(np.intp),
                       np.ascontiguousarray(table[:, 2]))

    @cached_property
    def link_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``leader_links`` as read-only arrays (agent, weight)."""
        table = np.array(self.leader_links, dtype=float).reshape(-1, 2)
        return _frozen(table[:, 0].astype(np.intp), np.ascontiguousarray(table[:, 1]))


def build_topology(
    n_agents: int,
    edges,
    leader_links=(),
) -> Topology:
    """Build and validate a topology from 1-based (i, j, weight) triples.

    Args:
        n_agents: number of agents, >= 1.
        edges: iterable of (i, j, weight) with 1-based indices, one entry per
            unordered pair; weight must be strictly positive and finite.
        leader_links: iterable of (i, weight) for agents the leader feeds.

    Raises:
        IndexOutOfRange, SelfLoop, NonPositiveWeight, DuplicateEdge on the
        corresponding malformed input; TopologyError for a bad n_agents.
    """
    if isinstance(n_agents, bool) or not isinstance(n_agents, (int, np.integer)) or n_agents < 1:
        raise TopologyError(f"n_agents must be an integer >= 1, got {n_agents!r}")
    n_agents = int(n_agents)

    seen: set[tuple[int, int]] = set()
    norm_edges: list[tuple[int, int, float]] = []
    for entry in edges:
        i, j, w = entry
        i = _index(i, n_agents, "edge endpoint")
        j = _index(j, n_agents, "edge endpoint")
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

    seen_leader: set[int] = set()
    norm_links: list[tuple[int, float]] = []
    for entry in leader_links:
        i, w = entry
        i = _index(i, n_agents, "leader link target")
        w = float(w)
        if not math.isfinite(w) or w <= 0.0:
            raise NonPositiveWeight(f"leader link to agent {i} has weight {w}, must be finite and > 0")
        if i - 1 in seen_leader:
            raise DuplicateEdge(f"leader link to agent {i} listed more than once")
        seen_leader.add(i - 1)
        norm_links.append((i - 1, w))

    return Topology(n_agents=n_agents, edges=tuple(norm_edges), leader_links=tuple(norm_links))


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _index(i, n_agents: int, what: str) -> int:
    """The 1-based agent index ``i`` as a plain int, checked against 1..n_agents."""
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
        raise IndexOutOfRange(f"{what} {i!r} is not an integer")
    if not 1 <= i <= n_agents:
        raise IndexOutOfRange(f"{what} {i} outside 1..{n_agents}")
    return int(i)


def laplacian(topo: Topology) -> np.ndarray:
    """Weighted graph Laplacian: diagonal holds each agent's total coupling
    weight, off-diagonal entries are minus the pair weights. Symmetric with
    zero row sums by construction; leader links are not included."""
    lap = np.zeros((topo.n_agents, topo.n_agents))
    for i, j, w in topo.edges:
        lap[i, i] += w
        lap[j, j] += w
        lap[i, j] -= w
        lap[j, i] -= w
    return lap


def is_connected(topo: Topology) -> bool:
    """Whether the agent graph (ignoring the leader) is connected.

    Breadth-first search from agent 0, run once per topology; a single
    agent with no edges counts as connected.
    """
    return topo.connected


def leader_reaches_all(topo: Topology) -> bool:
    """Whether every agent has a path (through the agent graph) to some
    leader-linked agent. False when there are no leader links. Independent
    of :func:`is_connected`: the leader may reach all agents of a graph
    that is disconnected without it, and a connected graph with no leader
    links reaches nobody. Searched once per topology."""
    return topo.leader_reaches_all


def _reaches_all(topo: Topology, sources) -> bool:
    """Whether a breadth-first search from ``sources`` reaches every agent."""
    nbrs = topo.neighbor_map
    seen = [False] * topo.n_agents
    frontier = deque()
    for i in sources:
        if not seen[i]:
            seen[i] = True
            frontier.append(i)
    while frontier:
        i = frontier.popleft()
        for j, _ in nbrs[i]:
            if not seen[j]:
                seen[j] = True
                frontier.append(j)
    return all(seen)
