"""Tests for repro.routing (shortest paths + traffic patterns)."""

import numpy as np
import pytest

from repro.flows.flow import Flow, FlowSet
from repro.network.graphs import (
    UNREACHABLE,
    CommunicationGraph,
    all_pairs_hops,
)
from repro.routing.shortest_path import NoRouteError, shortest_path
from repro.routing.traffic import (
    TrafficType,
    assign_routes,
    route_centralized,
    route_peer_to_peer,
)

from conftest import build_topology
from graph_oracles import shortest_path_tree


@pytest.fixture
def grid_graph(grid_topology):
    return CommunicationGraph.from_topology(grid_topology, 0.9)


class TestShortestPath:
    def test_direct_neighbor(self, grid_graph):
        assert shortest_path(grid_graph, 0, 1) == [0, 1]

    def test_corner_to_corner_length(self, grid_graph):
        path = shortest_path(grid_graph, 0, 8)
        assert len(path) - 1 == 4  # links on the path

    def test_deterministic_tie_break(self, grid_graph):
        """Among equal-length paths, the first-discovered parents win."""
        assert shortest_path(grid_graph, 0, 8) == shortest_path(grid_graph, 0, 8)
        assert shortest_path(grid_graph, 0, 4) == [0, 1, 4]

    def test_tie_break_keeps_first_discovered_predecessor(self):
        """Both 9 and 3 reach 7 at depth 2; BFS discovers 9 first (via
        1 < 5), so the route keeps 9 although 3 is the smaller id."""
        topo = build_topology(10, [(0, 1), (0, 5), (1, 9), (5, 3),
                                   (9, 7), (3, 7)])
        graph = CommunicationGraph.from_topology(topo, 0.9)
        assert graph.neighbors(7) == (3, 9)
        assert all(list(graph.neighbors(u)) == sorted(graph.neighbors(u))
                   for u in range(graph.num_nodes))
        assert shortest_path(graph, 0, 7) == [0, 1, 9, 7]
        assert shortest_path_tree(graph, 0)[7] == [0, 1, 9, 7]

    @pytest.mark.parametrize("seed", range(3))
    def test_route_is_lexicographically_smallest(self, seed):
        """The documented consequence: read from the source, the route
        is the smallest of the equal-length paths."""
        rng = np.random.default_rng(seed)
        edges = [(u, v) for u in range(12) for v in range(u + 1, 12)
                 if rng.random() < 0.25]
        graph = CommunicationGraph.from_topology(
            build_topology(12, edges), 0.9)
        hops = all_pairs_hops(graph.adjacency)
        for source in range(12):
            for target in range(12):
                if hops[source, target] == UNREACHABLE:
                    continue
                # Greedy smallest next hop that stays on a shortest path.
                expected = [source]
                while expected[-1] != target:
                    here = expected[-1]
                    expected.append(min(
                        v for v in graph.neighbors(here)
                        if hops[v, target] == hops[here, target] - 1))
                assert shortest_path(graph, source, target) == expected

    def test_self_path(self, grid_graph):
        assert shortest_path(grid_graph, 3, 3) == [3]

    def test_no_route_raises(self):
        topo = build_topology(4, [(0, 1), (2, 3)])
        graph = CommunicationGraph.from_topology(topo, 0.9)
        with pytest.raises(NoRouteError):
            shortest_path(graph, 0, 3)

    def test_out_of_range(self, grid_graph):
        with pytest.raises(ValueError):
            shortest_path(grid_graph, 0, 99)

    def test_tree_contains_all_reachable(self, grid_graph):
        tree = shortest_path_tree(grid_graph, 0)
        assert set(tree) == set(range(9))
        assert tree[8] == shortest_path(grid_graph, 0, 8)

    def test_tree_paths_start_at_root(self, grid_graph):
        tree = shortest_path_tree(grid_graph, 4)
        for node, path in tree.items():
            assert path[0] == 4
            assert path[-1] == node


class TestPeerToPeerRouting:
    def test_route_assigned(self, grid_graph):
        f = Flow(0, 0, 8, 100, 100)
        routed = route_peer_to_peer(grid_graph, f)
        assert routed.route[0] == 0
        assert routed.route[-1] == 8
        assert routed.num_hops == 4


class TestCentralizedRouting:
    def test_route_passes_through_ap(self, grid_graph):
        f = Flow(0, 0, 8, 100, 100)
        routed = route_centralized(grid_graph, f, access_points=[4])
        assert 4 in routed.route
        # 0→4 uplink (2 hops) + 4→8 downlink (2 hops)
        assert routed.num_hops == 4

    def test_uplink_and_downlink_may_use_different_aps(self, grid_graph):
        f = Flow(0, 0, 8, 100, 100)
        routed = route_centralized(grid_graph, f, access_points=[1, 7])
        # Best uplink AP for node 0 is 1; best downlink AP for 8 is 7.
        assert routed.route[:2] == (0, 1)
        assert routed.route[-2:] == (7, 8)
        # The 1→7 wire hop costs nothing: only 2 wireless links.
        assert routed.num_hops == 2

    def test_same_ap_wire_handoff_collapsed(self, grid_graph):
        f = Flow(0, 3, 5, 100, 100)
        routed = route_centralized(grid_graph, f, access_points=[4])
        # Route is 3→4 (uplink), then 4→5 (downlink); 4 appears twice in
        # the node sequence but yields exactly two wireless links.
        assert routed.links == ((3, 4), (4, 5))

    def test_requires_access_points(self, grid_graph):
        with pytest.raises(ValueError):
            route_centralized(grid_graph, Flow(0, 0, 8, 100, 100), [])

    def test_unreachable_ap_raises(self):
        topo = build_topology(4, [(0, 1), (2, 3)])
        graph = CommunicationGraph.from_topology(topo, 0.9)
        with pytest.raises(NoRouteError):
            route_centralized(graph, Flow(0, 0, 1, 100, 100),
                              access_points=[3])

    def test_centralized_longer_than_p2p(self, grid_graph):
        """Centralized routes detour through the AP (paper: ~2x length)."""
        f = Flow(0, 3, 5, 100, 100)
        p2p = route_peer_to_peer(grid_graph, f)
        central = route_centralized(grid_graph, f, access_points=[7])
        assert central.num_hops >= p2p.num_hops


class TestAssignRoutes:
    def test_assign_preserves_order(self, grid_graph):
        fs = FlowSet([Flow(2, 0, 8, 100, 100), Flow(1, 6, 2, 100, 100)])
        routed = assign_routes(fs, grid_graph, TrafficType.PEER_TO_PEER)
        assert [f.flow_id for f in routed] == [2, 1]
        assert routed.all_routed()

    def test_assign_centralized(self, grid_graph):
        fs = FlowSet([Flow(0, 0, 8, 100, 100)])
        routed = assign_routes(fs, grid_graph, TrafficType.CENTRALIZED,
                               access_points=[4])
        assert 4 in routed[0].route
