"""Shortest-path routing on the communication graph.

The WirelessHART network manager generates a single route per flow using a
shortest-path algorithm (paper Section VII).  Routes are read from the
graph's memoized hop matrix: each step goes to the lowest-id neighbor one
hop closer to the destination, so a given (topology, flow set) pair always
yields the same routes.
"""

from __future__ import annotations

from typing import List

from repro.network.graphs import UNREACHABLE, CommunicationGraph


class NoRouteError(Exception):
    """Raised when no route exists between two nodes."""

    def __init__(self, source: int, destination: int):
        super().__init__(f"no route from {source} to {destination}")
        self.source = source
        self.destination = destination


def shortest_path(graph: CommunicationGraph, source: int,
                  destination: int) -> List[int]:
    """Shortest path (in hops) from source to destination.

    Each step goes to the lowest-id neighbor whose distance *to* the
    destination (a column of ``graph.hops``: exact for any adjacency) is
    one less.  So the route is the lexicographically smallest shortest
    path, read from the source: the route of a BFS that scans neighbors
    in ascending id order and keeps first-discovered predecessors.

    Returns:
        The node sequence including both endpoints.

    Raises:
        NoRouteError: If destination is unreachable from source.
    """
    if source == destination:
        return [source]
    n = graph.num_nodes
    if not (0 <= source < n and 0 <= destination < n):
        raise ValueError("source/destination out of range")
    to_destination = graph.hops[:, destination].tolist()
    remaining = to_destination[source]
    if remaining == UNREACHABLE:
        raise NoRouteError(source, destination)
    path = [source]
    while remaining:
        remaining -= 1
        path.append(next(v for v in graph.neighbors(path[-1])
                         if to_destination[v] == remaining))
    return path
