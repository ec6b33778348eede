"""Tests for repro.network.graphs (communication & reuse graphs)."""

import numpy as np
import pytest

from repro.network.graphs import (
    ChannelReuseGraph,
    CommunicationGraph,
    UNREACHABLE,
    all_pairs_hops,
)

from conftest import build_topology
from graph_oracles import bfs_hops_from


class TestCommunicationGraph:
    def test_line_edges(self, line_topology):
        graph = CommunicationGraph.from_topology(line_topology, 0.9)
        assert graph.num_edges() == 5
        assert graph.adjacency[0, 1]
        assert not graph.adjacency[0, 2]

    def test_weak_links_excluded(self, line_with_weak_links):
        """An edge needs PRR ≥ threshold on all channels in both directions."""
        graph = CommunicationGraph.from_topology(line_with_weak_links, 0.9)
        assert not graph.adjacency[0, 2]
        assert not graph.adjacency[3, 5]

    def test_threshold_effect(self, line_with_weak_links):
        relaxed = CommunicationGraph.from_topology(line_with_weak_links, 0.2)
        assert relaxed.adjacency[0, 2]

    def test_one_bad_channel_excludes_edge(self):
        topo = build_topology(2, [(0, 1)], num_channels=3)
        prr = topo.prr.copy()
        prr[0, 1, 2] = 0.5  # one direction, one channel below threshold
        topo = build_topology(2, [(0, 1)], num_channels=3)
        topo.prr[0, 1, 2] = 0.5
        graph = CommunicationGraph.from_topology(topo, 0.9)
        assert not graph.adjacency[0, 1]

    def test_asymmetric_link_excluded(self):
        topo = build_topology(2, [(0, 1)])
        topo.prr[1, 0, :] = 0.0  # reverse direction dead
        graph = CommunicationGraph.from_topology(topo, 0.9)
        assert not graph.adjacency[0, 1]

    def test_neighbors_sorted(self, grid_topology):
        graph = CommunicationGraph.from_topology(grid_topology, 0.9)
        assert graph.neighbors(4) == (1, 3, 5, 7)

    def test_degree(self, grid_topology):
        graph = CommunicationGraph.from_topology(grid_topology, 0.9)
        assert graph.degree(4) == 4
        assert graph.degree(0) == 2

    def test_connectivity(self, line_topology):
        graph = CommunicationGraph.from_topology(line_topology, 0.9)
        assert graph.is_connected()

    def test_largest_component(self):
        topo = build_topology(5, [(0, 1), (2, 3), (3, 4)])
        graph = CommunicationGraph.from_topology(topo, 0.9)
        assert not graph.is_connected()
        assert graph.largest_component() == [2, 3, 4]

    def test_edges_list(self, line_topology):
        graph = CommunicationGraph.from_topology(line_topology, 0.9)
        us, vs = np.nonzero(np.triu(graph.adjacency, k=1))
        assert list(zip(us.tolist(), vs.tolist())) == [
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]


class TestReuseGraph:
    def test_weak_links_included(self, line_with_weak_links):
        """G_R includes any pair with PRR > 0 on any channel, either way."""
        graph = ChannelReuseGraph.from_topology(line_with_weak_links)
        assert graph.hop_distance(0, 2) == 1

    def test_one_direction_suffices(self):
        topo = build_topology(2, [], weak_links=[(0, 1)])
        topo.prr[1, 0, :] = 0.0
        graph = ChannelReuseGraph.from_topology(topo)
        assert graph.hop_distance(0, 1) == 1

    def test_any_channel_suffices(self):
        topo = build_topology(2, [], num_channels=3)
        topo.prr[0, 1, 2] = 0.05  # audible on a single channel only
        graph = ChannelReuseGraph.from_topology(topo)
        assert graph.hop_distance(0, 1) == 1

    def test_hop_distances_on_line(self, line_topology):
        graph = ChannelReuseGraph.from_topology(line_topology)
        assert graph.hop_distance(0, 5) == 5
        assert graph.hop_distance(2, 2) == 0

    def test_diameter(self, line_topology):
        assert ChannelReuseGraph.from_topology(line_topology).diameter() == 5

    def test_weak_shortcut_reduces_distance(self, line_with_weak_links):
        graph = ChannelReuseGraph.from_topology(line_with_weak_links)
        assert graph.hop_distance(0, 5) == 3  # 0-2, 2-3, 3-5 shortcuts

    def test_at_least_hops_apart(self, line_topology):
        graph = ChannelReuseGraph.from_topology(line_topology)
        assert graph.at_least_hops_apart(0, 3, 3)
        assert graph.at_least_hops_apart(0, 3, 2)
        assert not graph.at_least_hops_apart(0, 3, 4)

    def test_infinite_rho_never_satisfied_for_connected(self, line_topology):
        graph = ChannelReuseGraph.from_topology(line_topology)
        assert not graph.at_least_hops_apart(0, 5, float("inf"))

    def test_unreachable_always_far_enough(self):
        topo = build_topology(4, [(0, 1), (2, 3)])
        graph = ChannelReuseGraph.from_topology(topo)
        assert graph.hop_distance(0, 2) == UNREACHABLE
        assert graph.at_least_hops_apart(0, 2, 100)
        assert graph.at_least_hops_apart(0, 2, float("inf"))


class TestBfs:
    def test_bfs_from_source(self, line_topology):
        from repro.network.graphs import communication_adjacency

        adjacency = communication_adjacency(line_topology, 0.9)
        hops = bfs_hops_from(adjacency, 0)
        assert list(hops) == [0, 1, 2, 3, 4, 5]

    def test_all_pairs_symmetric(self, grid_topology):
        from repro.network.graphs import communication_adjacency

        adjacency = communication_adjacency(grid_topology, 0.9)
        hops = all_pairs_hops(adjacency)
        assert np.array_equal(hops, hops.T)
        assert hops[0, 8] == 4  # corner to corner of 3x3 grid

    def test_disconnected_marked(self):
        adjacency = np.zeros((3, 3), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        hops = bfs_hops_from(adjacency, 0)
        assert hops[2] == UNREACHABLE
