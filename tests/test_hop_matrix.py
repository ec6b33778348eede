"""The memoized hop matrix against per-source BFS (``graph_oracles``).

Hop counts, routes, access-point picks, shortest-path trees, components
and connectivity are read from one all-pairs hop matrix per graph.  Each
property compares such a read with one BFS per source, on random
adjacency: symmetric, directed and acyclic, from empty to complete
(dense ties), with isolated nodes, on 1 to 12 nodes.  Degrees, computed
for all nodes at once, are compared with the per-node count.  Explicit
examples run first and pin the cases each property exists for; the
first failing one is reported, because on a cyclic graph a BFS whose
frontier is not masked by the reached set never ends.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import graph_oracles as oracle
from repro.mac.channels import ChannelMap
from repro.network.graphs import (
    ChannelReuseGraph,
    CommunicationGraph,
    all_pairs_hops,
)
from repro.network.node import Node, NodeRole
from repro.network.topology import Topology
from repro.routing.shortest_path import shortest_path
from repro.routing.traffic import _best_segment


def _matrix(n, edges):
    adjacency = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adjacency[u, v] = True
    return adjacency


#: 0→1→2 and the shortcut 0→2: 2 is reached at level 1 and again,
#: through 1, at level 2.
SHORTCUT_DAG = _matrix(3, [(0, 1), (1, 2), (0, 2)])
#: A directed cycle: the distance from 2 to 0 is 1, from 0 to 2 is 2.
DIRECTED_CYCLE = _matrix(3, [(0, 1), (1, 2), (2, 0)])
#: The square 0-1-3, 0-2-3: two equal routes from 0 to 3.
SQUARE = _matrix(4, [(0, 1), (1, 0), (0, 2), (2, 0),
                     (1, 3), (3, 1), (2, 3), (3, 2)])
#: Two components of three nodes and one isolated node.
TWO_TRIANGLES = _matrix(7, [(u, v) for group in ((0, 1, 2), (4, 5, 6))
                            for u in group for v in group if u != v])


@st.composite
def adjacencies(draw):
    """Random boolean adjacency, sparse to complete, some nodes isolated."""
    n = draw(st.integers(1, 12))
    density = draw(st.sampled_from((0.0, 0.15, 0.3, 0.6, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    adjacency = rng.random((n, n)) < density
    shape = draw(st.sampled_from(("directed", "symmetric", "acyclic")))
    if shape == "symmetric":
        adjacency |= adjacency.T
    elif shape == "acyclic":
        adjacency = np.triu(adjacency, k=1)
    isolated = sorted(draw(st.sets(st.integers(0, n - 1), max_size=2)))
    adjacency[isolated, :] = False
    adjacency[:, isolated] = False
    return adjacency


def _outcome(function, *args):
    """A call's return value, or the type of what it raised."""
    try:
        return function(*args)
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        return type(error)


@settings(max_examples=150, deadline=None,
          report_multiple_bugs=False)
@given(adjacency=adjacencies())
@example(adjacency=SHORTCUT_DAG)
@example(adjacency=DIRECTED_CYCLE)
@example(adjacency=np.zeros((1, 1), dtype=bool))
def test_all_pairs_hops_matches_per_source_bfs(adjacency):
    hops = all_pairs_hops(adjacency)
    expected = oracle.all_pairs_hops(adjacency)
    assert hops.dtype == expected.dtype == np.int32
    assert np.array_equal(hops, expected)


@settings(max_examples=100, deadline=None,
          report_multiple_bugs=False)
@given(adjacency=adjacencies())
@example(adjacency=SHORTCUT_DAG)
@example(adjacency=DIRECTED_CYCLE)
@example(adjacency=SQUARE)
@example(adjacency=TWO_TRIANGLES)
def test_every_route_matches_the_bfs_route(adjacency):
    graph = CommunicationGraph(adjacency, 0.9)
    n = graph.num_nodes
    pairs = [(s, d) for s in range(n) for d in range(n)]
    pairs += [(-1, 0), (0, n), (n, n - 1), (n, n), (n + 3, n + 3)]
    for source, destination in pairs:
        assert (_outcome(shortest_path, graph, source, destination)
                == _outcome(oracle.bfs_route, graph, source, destination))


@settings(max_examples=100, deadline=None,
          report_multiple_bugs=False)
@given(adjacency=adjacencies())
@example(adjacency=SHORTCUT_DAG)
@example(adjacency=DIRECTED_CYCLE)
@example(adjacency=SQUARE)
def test_trees_match_the_bfs_tree_in_discovery_order(adjacency):
    graph = CommunicationGraph(adjacency, 0.9)
    for root in range(graph.num_nodes):
        assert (list(oracle.shortest_path_tree(graph, root).items())
                == list(oracle.bfs_tree(graph, root).items()))


@settings(max_examples=100, deadline=None)
@given(adjacency=adjacencies(), data=st.data())
@example(adjacency=SQUARE, data=None)
@example(adjacency=TWO_TRIANGLES, data=None)
def test_nearest_access_point_matches_one_route_per_ap(adjacency, data):
    graph = CommunicationGraph(adjacency, 0.9)
    n = graph.num_nodes
    if data is None:
        access_points = [2, 1] if n == 4 else [5, 1]
    else:
        access_points = data.draw(st.lists(st.integers(0, n - 1),
                                           min_size=1, max_size=3))
    for endpoint in range(n):
        for toward_ap in (True, False):
            args = (graph, endpoint, access_points, toward_ap)
            assert (_outcome(_best_segment, *args)
                    == _outcome(oracle.best_segment, *args))


@settings(max_examples=100, deadline=None)
@given(adjacency=adjacencies(), data=st.data())
@example(adjacency=TWO_TRIANGLES, data=None)
@example(adjacency=DIRECTED_CYCLE, data=None)
def test_components_and_connectivity_match(adjacency, data):
    graph = CommunicationGraph(adjacency, 0.9)
    n = graph.num_nodes
    assert graph.largest_component() == oracle.largest_component(graph)
    assert graph.is_connected() == oracle.is_connected(graph)
    subsets = [[], [n - 1, 0]]
    if data is not None:
        subsets.append(data.draw(st.lists(st.integers(0, n - 1),
                                          max_size=4)))
    for among in subsets:
        assert (graph.is_connected(among)
                == oracle.is_connected(graph, among))


@st.composite
def prr_topologies(draw):
    """Random directed PRRs, many of them exactly at the threshold."""
    n = draw(st.integers(1, 10))
    channels = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    prr = rng.choice((0.0, 0.3, 0.9, 0.95, 1.0), size=(n, n, channels),
                     p=(0.2, 0.1, 0.2, 0.2, 0.3))
    prr[np.arange(n), np.arange(n), :] = 0.0
    nodes = [Node(i, NodeRole.FIELD_DEVICE) for i in range(n)]
    return Topology(nodes, ChannelMap.first_n(channels), prr)


@settings(max_examples=100, deadline=None)
@given(topology=prr_topologies(), threshold=st.sampled_from((0.3, 0.9, 1.0)))
def test_degrees_match_per_node_degree(topology, threshold):
    degrees = topology.degrees(threshold)
    expected = np.array([oracle.degree(topology, i, threshold)
                         for i in range(topology.num_nodes)])
    assert degrees.dtype == expected.dtype
    assert np.array_equal(degrees, expected)


@pytest.mark.parametrize("testbed", ["indriya", "wustl"])
def test_testbed_graphs_match(testbed, request):
    """The real testbeds' graphs at three thresholds and channel counts."""
    topology, _ = request.getfixturevalue(testbed)
    for channels in (1, 4, 16):
        restricted = topology.restrict_channels(
            list(topology.channel_map)[:channels])
        reuse = ChannelReuseGraph.from_topology(restricted)
        assert np.array_equal(reuse.hops,
                              oracle.all_pairs_hops(reuse.adjacency))
        for threshold in (0.5, 0.9, 0.99):
            graph = CommunicationGraph.from_topology(restricted, threshold)
            assert np.array_equal(graph.hops,
                                  oracle.all_pairs_hops(graph.adjacency))
            assert (graph.largest_component()
                    == oracle.largest_component(graph))
            degrees = restricted.degrees(threshold)
            assert degrees.tolist() == [
                oracle.degree(restricted, i, threshold)
                for i in range(restricted.num_nodes)]
