"""Communication and channel-reuse graphs (paper Section IV-B).

Two graphs are derived from the topology's PRR measurements:

* The **communication graph** ``G_c`` contains a bidirectional edge ``uv``
  iff ``PRR(u→v) ≥ PRR_t`` and ``PRR(v→u) ≥ PRR_t`` on **every** channel in
  use.  Routes are built on this graph; the bidirectionality requirement
  exists because each data transmission needs a link-layer ACK, and the
  all-channels requirement exists because channel hopping cycles every link
  through every channel.

* The **channel reuse graph** ``G_R`` contains a bidirectional edge ``uv``
  iff ``PRR(u→v) > 0`` or ``PRR(v→u) > 0`` on **any** channel.  Hop
  distance on this graph is the paper's proxy for interference: two
  concurrent same-channel transmissions are presumed safe when every
  sender is at least ρ hops from the other transmission's receiver.

Each graph computes its all-pairs hop matrix once (:func:`all_pairs_hops`).
The reuse graph's gates every reuse decision; the communication graph's
gives routes (:mod:`repro.routing`), components and connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.network.topology import Topology

#: Sentinel hop distance for unreachable node pairs.
UNREACHABLE = -1

#: :meth:`ChannelReuseGraph.effective_hops`' distance for unreachable
#: pairs: larger than any real hop count, so the channel constraint can
#: compare it against ρ directly, and small enough that int32
#: arithmetic cannot overflow.
INFINITE_DISTANCE = 2 ** 30


def communication_adjacency(topology: Topology,
                            prr_threshold: float = 0.9) -> np.ndarray:
    """Boolean adjacency matrix of the communication graph.

    ``adj[u, v]`` is True iff the bidirectional edge uv satisfies the
    all-channels PRR threshold.
    """
    forward = np.all(topology.prr >= prr_threshold, axis=2)
    adjacency = forward & forward.T
    np.fill_diagonal(adjacency, False)
    return adjacency


def reuse_adjacency(topology: Topology) -> np.ndarray:
    """Boolean adjacency matrix of the channel reuse graph.

    ``adj[u, v]`` is True iff PRR(u→v) or PRR(v→u) is positive on any
    channel — i.e. the nodes can hear each other at all, on any channel.
    """
    any_forward = np.any(topology.prr > 0.0, axis=2)
    adjacency = any_forward | any_forward.T
    np.fill_diagonal(adjacency, False)
    return adjacency


def all_pairs_hops(adjacency: np.ndarray) -> np.ndarray:
    """Hop counts along the edges ``adjacency[u, v]``, all sources at once.

    A level-synchronous BFS: row ``s`` of the frontier holds the nodes
    first reached from ``s`` at this level, and one float32 product with
    the adjacency, masked by the reached set, expands every row by a hop
    (exact: counts stay below 2^24).  int32, :data:`UNREACHABLE` where
    no path exists.
    """
    n = adjacency.shape[0]
    step = np.asarray(adjacency, dtype=bool).astype(np.float32)
    hops = np.full((n, n), UNREACHABLE, dtype=np.int32)
    reached = np.eye(n, dtype=bool)
    hops[reached] = 0
    frontier = reached.copy()
    distance = 0
    while frontier.any():
        distance += 1
        frontier = (frontier.astype(np.float32) @ step > 0.0) & ~reached
        hops[frontier] = distance
        reached |= frontier
    return hops


@dataclass(frozen=True)
class CommunicationGraph:
    """The graph on which routes are constructed.

    Attributes:
        adjacency: Boolean matrix; ``adjacency[u, v]`` iff edge uv exists.
        prr_threshold: The PRR_t admission threshold used to build it.
    """

    adjacency: np.ndarray
    prr_threshold: float

    @classmethod
    def from_topology(cls, topology: Topology,
                      prr_threshold: float = 0.9) -> "CommunicationGraph":
        """Build the communication graph from PRR measurements."""
        return cls(communication_adjacency(topology, prr_threshold), prr_threshold)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.adjacency.shape[0]

    # cached_property writes the instance __dict__ directly, which the
    # frozen dataclass's __setattr__ guard does not cover.
    @cached_property
    def hops(self) -> np.ndarray:
        """All-pairs hop counts: routes, components and connectivity."""
        return all_pairs_hops(self.adjacency)

    @cached_property
    def _neighbor_lists(self) -> Tuple[Tuple[int, ...], ...]:
        # Every step of a route walk asks.
        return tuple(tuple(np.flatnonzero(row).tolist())
                     for row in self.adjacency)

    def neighbors(self, u: int) -> Tuple[int, ...]:
        """Neighbors of node u, ascending by id."""
        return self._neighbor_lists[u]

    def degree(self, u: int) -> int:
        """Degree of node u."""
        return int(self.adjacency[u].sum())

    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.adjacency.sum()) // 2

    def is_connected(self, among: Optional[Sequence[int]] = None) -> bool:
        """Whether the graph (or a node subset) is connected."""
        nodes = list(among) if among is not None else list(range(self.num_nodes))
        if not nodes:
            return True
        return bool(np.all(self.hops[nodes[0], nodes] != UNREACHABLE))

    def largest_component(self) -> List[int]:
        """Node ids of the largest component (the lowest-id one of a tie)."""
        reachable = self.hops != UNREACHABLE
        remaining = np.ones(self.num_nodes, dtype=bool)
        best = np.empty(0, dtype=np.intp)
        for source in range(self.num_nodes):
            if remaining[source]:
                component = np.flatnonzero(reachable[source] & remaining)
                if len(component) > len(best):
                    best = component
                remaining[component] = False
        return best.tolist()


@dataclass(frozen=True)
class ChannelReuseGraph:
    """The graph used to gate channel reuse decisions.

    Precomputes the all-pairs hop matrix, because the scheduler queries
    pairwise reuse distances on every ``findSlot`` invocation.

    Attributes:
        adjacency: Boolean adjacency matrix.
        hops: All-pairs hop counts (UNREACHABLE where disconnected).
    """

    adjacency: np.ndarray
    hops: np.ndarray

    @classmethod
    def from_topology(cls, topology: Topology) -> "ChannelReuseGraph":
        """Build the channel reuse graph from PRR measurements."""
        adjacency = reuse_adjacency(topology)
        return cls(adjacency, all_pairs_hops(adjacency))

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.adjacency.shape[0]

    def hop_distance(self, u: int, v: int) -> int:
        """Hop distance between u and v (:data:`UNREACHABLE` if disconnected)."""
        return int(self.hops[u, v])

    def at_least_hops_apart(self, u: int, v: int, rho: float) -> bool:
        """Whether u and v are at least ``rho`` reuse-hops apart.

        Unreachable pairs are infinitely far apart and therefore always
        satisfy the constraint.  ``rho`` may be ``math.inf``.
        """
        distance = self.hops[u, v]
        if distance == UNREACHABLE:
            return True
        return distance >= rho

    def diameter(self) -> int:
        """Network diameter λ_R: the maximum finite hop distance.

        The paper uses λ_R as the starting reuse hop count when RC first
        introduces channel reuse.  Memoized (the dataclass is frozen and
        ``hops`` never changes): RC consults it on every ρ=∞ fallback,
        and the full-matrix max was a measurable slice of ``place()``.
        """
        cached = self.__dict__.get("_diameter")
        if cached is None:
            finite = self.hops[self.hops != UNREACHABLE]
            cached = int(finite.max()) if finite.size else 0
            # Direct __dict__ write: the frozen dataclass only blocks
            # attribute assignment through __setattr__.
            self.__dict__["_diameter"] = cached
        return cached

    def effective_hops(self) -> np.ndarray:
        """Hop matrix with :data:`UNREACHABLE` mapped to a huge distance.

        Unreachable pairs are infinitely far apart for the channel
        constraint, so the constraint checks, provenance and the
        auditor can compare this matrix against ρ directly.  Memoized
        like :meth:`diameter`.
        """
        cached = self.__dict__.get("_effective_hops")
        if cached is None:
            cached = np.where(self.hops == UNREACHABLE,
                              INFINITE_DISTANCE,
                              self.hops).astype(np.int32)
            self.__dict__["_effective_hops"] = cached
        return cached

    def effective_hop_rows(self) -> List[List[int]]:
        """:meth:`effective_hops` as a list of Python-int rows, memoized.

        The scalar channel-constraint check reads a handful of distances
        per candidate cell; indexing nested lists costs a fraction of a
        numpy scalar read.
        """
        cached = self.__dict__.get("_effective_hop_rows")
        if cached is None:
            cached = self.effective_hops().tolist()
            self.__dict__["_effective_hop_rows"] = cached
        return cached

    def neighbors(self, u: int) -> List[int]:
        """Neighbors of node u."""
        return [int(v) for v in np.flatnonzero(self.adjacency[u])]

    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.adjacency.sum()) // 2
