"""Weighted undirected interconnection topology plus optional leader links.

Edges are stored once per unordered pair. Agent indices are 0-based inside
the package; :func:`build_topology` and the scenario file format use 1-based
indices, converted at that boundary.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._real import is_real_type
from .errors import (DuplicateEdge, IndexOutOfRange, MalformedEntry, NonPositiveWeight, SelfLoop,
                     TopologyError)


@dataclass(frozen=True, eq=False)
class Topology:
    """Interconnection graph of ``n_agents`` agents, stored as read-only columns.

    ``edge_arrays`` holds (i, j, weight), intp, intp and float64, with 0-based
    i < j, one entry per unordered pair, in input order. ``link_arrays``
    holds (agent, weight) for agents that receive the leader's position
    directly. ``edges`` and ``leader_links`` are tuple views of them, built
    on demand. Construct through :func:`build_topology`, which validates and
    normalizes; compared and hashed by identity.
    """

    n_agents: int
    edge_arrays: tuple[np.ndarray, np.ndarray, np.ndarray]
    link_arrays: tuple[np.ndarray, np.ndarray]

    @cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """``edge_arrays`` as (i, j, weight) tuples."""
        return tuple(zip(*(column.tolist() for column in self.edge_arrays)))

    @cached_property
    def leader_links(self) -> tuple[tuple[int, float], ...]:
        """``link_arrays`` as (agent, weight) tuples."""
        return tuple(zip(*(column.tolist() for column in self.link_arrays)))

    @cached_property
    def connected(self) -> bool:
        """Whether the agent graph is connected; see :func:`is_connected`."""
        return _reaches_all(self, (0,))

    @cached_property
    def leader_reaches_all(self) -> bool:
        """Whether every agent has a path to a leader-linked agent; see
        :func:`leader_reaches_all`."""
        return _reaches_all(self, self.link_arrays[0].tolist())


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
        MalformedEntry, IndexOutOfRange, SelfLoop, NonPositiveWeight,
        DuplicateEdge on the corresponding malformed input, for the first
        bad entry in list order; TopologyError for a bad n_agents.
    """
    if isinstance(n_agents, bool) or not isinstance(n_agents, (int, np.integer)) or n_agents < 1:
        raise TopologyError(f"n_agents must be an integer >= 1, got {n_agents!r}")
    n_agents = int(n_agents)

    edges = list(edges)
    if not {list, tuple}.issuperset(map(type, edges)):
        # Read every other entry once, so that the column pass and the error
        # search see the same values even when an entry is a one-shot iterator.
        edges = list(map(_sequence, edges))
    columns = _edge_columns(edges, n_agents)
    if columns is None:
        _raise_first_bad_edge(edges, n_agents)

    links: dict[int, float] = {}  # 0-based agent: weight, in list order
    for k, entry in enumerate(leader_links):
        i, w = _fields(_sequence(entry), f"leader_links[{k}]", ("i", "weight"))
        i = _index(i, n_agents, "leader link target")
        w = _weight(w, f"leader link to agent {i}")
        if i - 1 in links:
            raise DuplicateEdge(f"leader link to agent {i} listed more than once")
        links[i - 1] = w

    return Topology(n_agents, _frozen(*columns),
                    _frozen(np.array(list(links), dtype=np.intp), np.array(list(links.values()))))


def _sequence(entry):
    """``entry`` as a list or tuple, read once; as it is when it cannot be
    iterated, so that :func:`_fields` refuses it where the entry stands."""
    if type(entry) in (list, tuple):
        return entry
    try:
        return tuple(entry)
    except TypeError:
        return entry


def _edge_columns(edges: list, n_agents: int):
    """The 0-based (a, b, weight) arrays, a < b, of 1-based (i, j, weight)
    triples, with every rule checked on whole columns; None when any edge
    breaks one."""
    try:
        # Sequences of three are transposed as they are; anything else is
        # unpacked entry by entry, which raises for what is not a triple.
        if not {3}.issuperset(map(operator.length_hint, edges)):
            edges = [(i, j, w) for i, j, w in edges]
        i, j, w = zip(*edges) if edges else ((), (), ())
    except (TypeError, ValueError):  # an entry that is not an (i, j, weight) triple
        return None
    ends = i + j
    if not (all(map(_is_index_type, set(map(type, ends))))
            and all(map(is_real_type, set(map(type, w))))):
        return None
    if ends and not 1 <= min(ends) <= max(ends) <= n_agents:
        return None
    try:
        w = np.array(w, dtype=float)
    except OverflowError:
        return None
    if any(map(operator.eq, i, j)) or not (np.isfinite(w).all() and (w > 0.0).all()):
        return None
    # Pairs are compared through builtins over the index columns: numpy's
    # minimum and sort kernels would add their code pages to every small
    # run's memory, to save about a millisecond on 5000 edges.
    low, high = list(map(min, i, j)), list(map(max, i, j))
    if len(set(zip(low, high))) < len(low):
        return None
    a, b = np.array(low, dtype=np.intp) - 1, np.array(high, dtype=np.intp) - 1
    return a, b, w


def _raise_first_bad_edge(edges: list, n_agents: int) -> None:
    """Raise the error of the first edge, in list order, that breaks a rule;
    the whole-column checks of :func:`_edge_columns` say only that one does."""
    seen: set[tuple[int, int]] = set()
    for k, entry in enumerate(edges):
        i, j, w = _fields(entry, f"edges[{k}]", ("i", "j", "weight"))
        i = _index(i, n_agents, "edge endpoint")
        j = _index(j, n_agents, "edge endpoint")
        if i == j:
            raise SelfLoop(f"edge ({i}, {j}) connects agent {i} to itself")
        _weight(w, f"edge ({i}, {j})")
        a, b = (i - 1, j - 1) if i < j else (j - 1, i - 1)
        if (a, b) in seen:
            raise DuplicateEdge(f"unordered pair ({a + 1}, {b + 1}) listed more than once")
        seen.add((a, b))


def _fields(entry, where: str, names: tuple[str, ...]):
    """``entry``, read by :func:`_sequence`, when it is a list or tuple of
    one value per name; MalformedEntry naming ``where``, its place in the
    input, otherwise."""
    expected = f"expected ({', '.join(names)})"
    if type(entry) not in (list, tuple):
        raise MalformedEntry(f"{where} is of type {type(entry).__name__}, {expected}")
    if len(entry) != len(names):
        raise MalformedEntry(f"{where} has {len(entry)} values, {expected}")
    return entry


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _is_index_type(cls: type) -> bool:
    return issubclass(cls, (int, np.integer)) and not issubclass(cls, bool)


def _index(i, n_agents: int, what: str) -> int:
    """The 1-based agent index ``i`` as a plain int, checked against 1..n_agents."""
    if not _is_index_type(type(i)):
        raise IndexOutOfRange(f"{what} {i!r} is not an integer")
    if not 1 <= i <= n_agents:
        raise IndexOutOfRange(f"{what} {i} outside 1..{n_agents}")
    return int(i)


def _weight(w, what: str) -> float:
    """The weight ``w`` as a float, checked to be a real number, finite and > 0."""
    if not is_real_type(type(w)):
        raise NonPositiveWeight(f"{what} has weight {w!r}, which is not a number")
    w = float(w)
    if not math.isfinite(w) or w <= 0.0:
        raise NonPositiveWeight(f"{what} has weight {w}, must be finite and > 0")
    return w


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

    Graph search from agent 0, run once per topology; a single
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
    """Whether a search from the agents ``sources`` reaches every agent."""
    return first_unreached(topo, sources) is None


def first_unreached(topo: Topology, sources) -> int | None:
    """The first agent (0-based) that a search from the agents ``sources``
    does not reach, None when it reaches every agent. The adjacency is built
    in CSR form: both directions of every edge sorted by their first end, so
    agent k's neighbors are ``neighbors[starts[k]:starts[k + 1]]``."""
    n = topo.n_agents
    i, j, _ = topo.edge_arrays
    ends = np.concatenate([i, j])
    # Any order serves the search. The stable sort's code is smaller than
    # the default SIMD sort's, so a small run maps fewer pages of numpy.
    neighbors = np.concatenate([j, i])[np.argsort(ends, kind="stable")].tolist()
    starts = [0] + np.cumsum(np.bincount(ends, minlength=n)).tolist()
    seen = [False] * n
    stack = []
    for k in sources:
        if not seen[k]:
            seen[k] = True
            stack.append(k)
    while stack:
        k = stack.pop()
        for m in neighbors[starts[k]:starts[k + 1]]:
            if not seen[m]:
                seen[m] = True
                stack.append(m)
    return None if all(seen) else seen.index(False)
