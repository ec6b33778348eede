"""Shortest-path routing on the communication graph.

The WirelessHART network manager generates a single route per flow using a
shortest-path algorithm (paper Section VII).  We use BFS scanning
neighbors in ascending id order, and each node keeps the predecessor
that discovered it first, so that a given (topology, flow set) pair
always yields the same routes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List


from repro.network.graphs import CommunicationGraph


class NoRouteError(Exception):
    """Raised when no route exists between two nodes."""

    def __init__(self, source: int, destination: int):
        super().__init__(f"no route from {source} to {destination}")
        self.source = source
        self.destination = destination


def shortest_path(graph: CommunicationGraph, source: int,
                  destination: int) -> List[int]:
    """Shortest path (in hops) from source to destination.

    Ties between equal-length paths go to the first-discovered
    predecessor, not the smallest one: with neighbors scanned in
    ascending id order, the route is the equal-length path whose node
    sequence, read from the source, is lexicographically smallest.

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

    parent: Dict[int, int] = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if u == destination:
            break
        for v in graph.neighbors(u):  # neighbors() is ascending by id
            if v not in parent:
                parent[v] = u
                queue.append(v)
    if destination not in parent:
        raise NoRouteError(source, destination)

    path = [destination]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def shortest_path_tree(graph: CommunicationGraph,
                       root: int) -> Dict[int, List[int]]:
    """Shortest paths from ``root`` to every reachable node.

    Returns:
        A dict mapping each reachable node to its path from the root.
        Useful for batch routing toward an access point.
    """
    parent: Dict[int, int] = {root: root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in parent:
                parent[v] = u
                queue.append(v)

    paths: Dict[int, List[int]] = {}
    for node in parent:
        path = [node]
        while path[-1] != root:
            path.append(parent[path[-1]])
        path.reverse()
        paths[node] = path
    return paths

