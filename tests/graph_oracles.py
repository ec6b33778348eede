"""Per-source BFS: an independent oracle for the graph layer.

The library computes one hop matrix per graph, by a BFS that expands
every source's frontier at once, and reads hop counts, routes,
components and connectivity from it.  This module derives each of them
with one BFS per source instead: a frontier loop for hop counts, and a
queue BFS that keeps each node's first-discovered predecessor for routes
(neighbors scanned in ascending id order).  It also keeps two batch
forms of library reads: a shortest-path tree built from the library's
own routes, and a per-node degree read from the PRR cube.  Nothing in
the library calls it; ``tests/test_hop_matrix.py`` checks the library
against it.
"""

from collections import deque
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.network.graphs import UNREACHABLE, CommunicationGraph
from repro.routing.shortest_path import NoRouteError, shortest_path


def bfs_hops_from(adjacency: np.ndarray, source: int) -> np.ndarray:
    """Hop counts from ``source`` to every node via BFS.

    Returns an int array where unreachable nodes get :data:`UNREACHABLE`.
    """
    n = adjacency.shape[0]
    hops = np.full(n, UNREACHABLE, dtype=np.int32)
    hops[source] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    distance = 0
    while frontier.any():
        distance += 1
        # All nodes adjacent to the frontier, not yet visited.
        reached = adjacency[frontier].any(axis=0) & (hops == UNREACHABLE)
        hops[reached] = distance
        frontier = reached
    return hops


def all_pairs_hops(adjacency: np.ndarray) -> np.ndarray:
    """All-pairs hop-count matrix, one BFS per source."""
    n = adjacency.shape[0]
    hops = np.empty((n, n), dtype=np.int32)
    for source in range(n):
        hops[source] = bfs_hops_from(adjacency, source)
    return hops


def _bfs_parents(graph: CommunicationGraph, source: int,
                 stop: Optional[int] = None) -> Dict[int, int]:
    """First-discovered predecessors, in discovery order."""
    parent: Dict[int, int] = {source: source}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if u == stop:
            break
        for v in graph.neighbors(u):  # neighbors() is ascending by id
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def _walk_back(parent: Dict[int, int], source: int, node: int) -> List[int]:
    path = [node]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def bfs_route(graph: CommunicationGraph, source: int,
              destination: int) -> List[int]:
    """The BFS-parent route from source to destination."""
    if source == destination:
        return [source]
    n = graph.num_nodes
    if not (0 <= source < n and 0 <= destination < n):
        raise ValueError("source/destination out of range")
    parent = _bfs_parents(graph, source, stop=destination)
    if destination not in parent:
        raise NoRouteError(source, destination)
    return _walk_back(parent, source, destination)


def bfs_tree(graph: CommunicationGraph, root: int) -> Dict[int, List[int]]:
    """BFS-parent routes from ``root`` to every reachable node."""
    parent = _bfs_parents(graph, root)
    return {node: _walk_back(parent, root, node) for node in parent}


def best_segment(graph: CommunicationGraph, endpoint: int,
                 access_points: Sequence[int], toward_ap: bool) -> List[int]:
    """One route per access point; the first shortest in id order wins."""
    best_path = None
    for ap in sorted(access_points):
        try:
            path = bfs_route(graph, endpoint, ap)
        except NoRouteError:
            continue
        if best_path is None or len(path) < len(best_path):
            best_path = path
    if best_path is None:
        raise NoRouteError(endpoint, access_points[0])
    return best_path if toward_ap else list(reversed(best_path))


def is_connected(graph: CommunicationGraph,
                 among: Optional[Sequence[int]] = None) -> bool:
    """Whether every node (of ``among``) is reachable from the first."""
    nodes = list(among) if among is not None else list(range(graph.num_nodes))
    if not nodes:
        return True
    hops = bfs_hops_from(graph.adjacency, nodes[0])
    return all(hops[v] != UNREACHABLE for v in nodes)


def largest_component(graph: CommunicationGraph) -> List[int]:
    """One BFS per unclaimed source; the first largest component wins."""
    remaining: Set[int] = set(range(graph.num_nodes))
    best: List[int] = []
    while remaining:
        source = next(iter(remaining))
        hops = bfs_hops_from(graph.adjacency, source)
        component = [v for v in remaining if hops[v] != UNREACHABLE]
        if len(component) > len(best):
            best = component
        remaining -= set(component)
    return sorted(best)


def shortest_path_tree(graph: CommunicationGraph,
                       root: int) -> Dict[int, List[int]]:
    """The library's shortest paths from ``root`` to every reachable node.

    Returns:
        A dict mapping each reachable node to its
        :func:`~repro.routing.shortest_path.shortest_path` from the root,
        in BFS discovery order (by hop count, then by path).
    """
    reachable = np.flatnonzero(graph.hops[root] != UNREACHABLE).tolist()
    paths = sorted((shortest_path(graph, root, node) for node in reachable),
                   key=lambda path: (len(path), path))
    return {path[-1]: path for path in paths}


def degree(topology, node_id: int, prr_threshold: float) -> int:
    """Number of neighbors reachable bidirectionally at the threshold.

    A neighbor counts if PRR ≥ threshold in both directions on *all*
    channels, mirroring the communication-graph admission rule.
    """
    forward_ok = np.all(topology.prr[node_id, :, :] >= prr_threshold, axis=1)
    backward_ok = np.all(topology.prr[:, node_id, :] >= prr_threshold, axis=1)
    both = forward_ok & backward_ok
    both[node_id] = False
    return int(both.sum())
