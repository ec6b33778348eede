"""Tests for repro.network.node and repro.network.topology."""

import numpy as np
import pytest

from repro.mac.channels import ChannelMap
from repro.network.node import Node, NodeRole, Position
from repro.network.topology import Topology

from conftest import build_topology


class TestPosition:
    def test_distance(self):
        assert Position(0, 0, 0).distance_to(Position(3, 4, 0)) == 5.0

    def test_distance_3d(self):
        assert Position(0, 0, 0).distance_to(Position(2, 3, 6)) == 7.0

    def test_as_tuple(self):
        assert Position(1.0, 2.0, 3.0).as_tuple() == (1.0, 2.0, 3.0)


class TestNode:
    def test_roles(self):
        ap = Node(0, NodeRole.ACCESS_POINT)
        fd = Node(1)
        assert (ap.role is NodeRole.ACCESS_POINT
                and ap.role is not NodeRole.FIELD_DEVICE)
        assert (fd.role is NodeRole.FIELD_DEVICE
                and fd.role is not NodeRole.ACCESS_POINT)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError):
            Node(-1)

    def test_str(self):
        assert "field_device" in str(Node(3))


class TestTopologyValidation:
    def test_shape_mismatch_rejected(self):
        nodes = [Node(0), Node(1)]
        with pytest.raises(ValueError):
            Topology(nodes, ChannelMap.first_n(2), np.zeros((2, 2, 3)))

    def test_non_dense_ids_rejected(self):
        nodes = [Node(0), Node(2)]
        with pytest.raises(ValueError):
            Topology(nodes, ChannelMap.first_n(1), np.zeros((2, 2, 1)))

    def test_out_of_range_prr_rejected(self):
        nodes = [Node(0), Node(1)]
        prr = np.zeros((2, 2, 1))
        prr[0, 1, 0] = 1.5
        with pytest.raises(ValueError):
            Topology(nodes, ChannelMap.first_n(1), prr)

    def test_nonzero_self_link_rejected(self):
        nodes = [Node(0), Node(1)]
        prr = np.zeros((2, 2, 1))
        prr[0, 0, 0] = 0.5
        with pytest.raises(ValueError):
            Topology(nodes, ChannelMap.first_n(1), prr)


class TestTopologyQueries:
    def test_link_prr_by_physical_channel(self, line_topology):
        channel = line_topology.channel_map.logical(11)
        assert line_topology.prr[0, 1, channel] == 0.99
        assert line_topology.prr[0, 3, channel] == 0.0

    def test_min_max_mean(self, line_with_weak_links):
        prr = line_with_weak_links.prr
        assert prr[0, 2, :].min() == 0.3
        assert prr[0, 2, :].max() == 0.3
        assert prr[0, 1, :].mean() == pytest.approx(0.99)

    def test_degree_counts_bidirectional_strong_neighbors(self, line_topology):
        assert line_topology.degrees(0.9)[0] == 1
        assert line_topology.degrees(0.9)[2] == 2

    def test_weak_links_do_not_count_toward_degree(self, line_with_weak_links):
        assert line_with_weak_links.degrees(0.9)[0] == 1

    def test_degrees_vector(self, line_topology):
        assert list(line_topology.degrees(0.9)) == [1, 2, 2, 2, 2, 1]

    def test_summary_keys(self, line_topology):
        summary = line_topology.summary()
        assert summary["num_nodes"] == 6
        assert summary["max_degree"] == 2


class TestRestrictChannels:
    def test_restrict_keeps_selected_channels(self, line_topology):
        restricted = line_topology.restrict_channels([12])
        assert restricted.num_channels == 1
        assert restricted.prr[0, 1, restricted.channel_map.logical(12)] \
            == 0.99

    def test_restrict_unknown_channel_rejected(self, line_topology):
        with pytest.raises(ValueError):
            line_topology.restrict_channels([25])

    def test_restrict_reorders(self, line_topology):
        restricted = line_topology.restrict_channels([12, 11])
        assert list(restricted.channel_map) == [12, 11]


class TestAccessPoints:
    def test_positions_array(self, line_topology):
        positions = line_topology.positions()
        assert positions.shape == (6, 3)
        assert positions[3, 0] == 3.0
