"""Tests for repro.testbeds (layout, synthesis, named testbeds)."""

import dataclasses

import numpy as np
import pytest

from repro.mac.channels import ChannelMap
from repro.network.graphs import ChannelReuseGraph, CommunicationGraph
from repro.testbeds import (
    FloorPlan,
    INDRIYA_NUM_NODES,
    PRR_FLOOR,
    SynthesisParams,
    WUSTL_NUM_NODES,
    WUSTL_PARAMS,
    apply_neighbor_table_limit,
    grid_positions,
    make_indriya,
    make_testbed,
    make_wustl,
)
from repro.testbeds.layout import _split_evenly


class TestFloorPlan:
    def test_floor_of(self):
        plan = FloorPlan(3, 40.0, 20.0, floor_height_m=4.0)
        from repro.network.node import Position

        assert plan.floor_of(Position(0, 0, 0.0)) == 0
        assert plan.floor_of(Position(0, 0, 8.0)) == 2

    def test_floors_crossed(self):
        plan = FloorPlan(3, 40.0, 20.0)
        from repro.network.node import Position

        assert abs(plan.floor_of(Position(0, 0, 0))
                   - plan.floor_of(Position(0, 0, 8.0))) == 2

    def test_invalid_plan(self):
        with pytest.raises(ValueError):
            FloorPlan(0, 40.0, 20.0)
        with pytest.raises(ValueError):
            FloorPlan(3, -1.0, 20.0)


class TestGridPositions:
    def test_count_and_bounds(self):
        plan = FloorPlan(3, 40.0, 20.0)
        positions = grid_positions(25, plan, np.random.default_rng(0))
        assert len(positions) == 25
        for p in positions:
            assert 0.0 <= p.x <= 40.0
            assert 0.0 <= p.y <= 20.0

    def test_spread_across_floors(self):
        plan = FloorPlan(3, 40.0, 20.0, floor_height_m=4.0)
        positions = grid_positions(30, plan, np.random.default_rng(0))
        floors = {plan.floor_of(p) for p in positions}
        assert floors == {0, 1, 2}

    def test_deterministic_given_seed(self):
        plan = FloorPlan(2, 30.0, 15.0)
        a = grid_positions(10, plan, np.random.default_rng(5))
        b = grid_positions(10, plan, np.random.default_rng(5))
        assert [p.as_tuple() for p in a] == [p.as_tuple() for p in b]

    def test_split_evenly(self):
        assert _split_evenly(10, 3) == [4, 3, 3]
        assert _split_evenly(9, 3) == [3, 3, 3]

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            grid_positions(0, FloorPlan(1, 10, 10), np.random.default_rng(0))


class TestSynthesis:
    def test_topology_matches_environment(self):
        plan = FloorPlan(1, 30.0, 20.0)
        topo, env = make_testbed(12, plan, seed=3, num_channels=4)
        assert topo.num_nodes == 12
        assert env.rssi_dbm.shape == (12, 12, 4)
        # Measured PRRs equal the environment's clean PRRs (floored),
        # up to neighbor-table truncation (truncated pairs read zero).
        clean = env.prr_matrix()
        mask = topo.prr > 0
        assert np.allclose(topo.prr[mask], clean[mask])

    def test_prr_floor_applied(self):
        plan = FloorPlan(1, 30.0, 20.0)
        topo, _ = make_testbed(12, plan, seed=3, num_channels=2)
        nonzero = topo.prr[topo.prr > 0]
        assert nonzero.size == 0 or nonzero.min() >= PRR_FLOOR

    def test_reciprocity_of_shadowing(self):
        """Static shadowing/fading are symmetric; only the small asymmetry
        term differs between directions."""
        plan = FloorPlan(1, 30.0, 20.0)
        params = SynthesisParams(asymmetry_sigma_db=0.0)
        topo, env = make_testbed(10, plan, seed=3, num_channels=2,
                                 params=params)
        assert np.allclose(env.rssi_dbm, np.transpose(env.rssi_dbm, (1, 0, 2)))

    def test_determinism(self):
        plan = FloorPlan(2, 30.0, 20.0)
        t1, e1 = make_testbed(15, plan, seed=9, num_channels=3)
        t2, e2 = make_testbed(15, plan, seed=9, num_channels=3)
        assert np.array_equal(t1.prr, t2.prr)
        assert np.array_equal(e1.rssi_dbm, e2.rssi_dbm)

    def test_different_seeds_differ(self):
        plan = FloorPlan(2, 30.0, 20.0)
        t1, _ = make_testbed(15, plan, seed=1, num_channels=3)
        t2, _ = make_testbed(15, plan, seed=2, num_channels=3)
        assert not np.array_equal(t1.prr, t2.prr)

    def test_diagonal_is_silent(self):
        plan = FloorPlan(1, 30.0, 20.0)
        topo, env = make_testbed(8, plan, seed=0, num_channels=2)
        n = topo.num_nodes
        assert np.all(topo.prr[np.arange(n), np.arange(n), :] == 0)
        assert np.all(np.isneginf(env.rssi_dbm[np.arange(n), np.arange(n), :]))


class TestNeighborTableLimit:
    def test_limit_reduces_pairs(self):
        prr = np.random.default_rng(0).uniform(0.01, 1.0, (20, 20, 2))
        idx = np.arange(20)
        prr[idx, idx, :] = 0.0
        limited = apply_neighbor_table_limit(prr, 5)
        assert (limited > 0).sum() < (prr > 0).sum()

    def test_strongest_neighbors_kept(self):
        # Give nodes 2 and 3 a stronger partner so they don't re-report
        # node 0 from their own (size-1) tables.
        prr = np.zeros((4, 4, 1))
        prr[0, 1, 0] = 0.9
        prr[0, 2, 0] = 0.5
        prr[0, 3, 0] = 0.1
        prr[2, 3, 0] = 0.8
        prr[3, 2, 0] = 0.8
        limited = apply_neighbor_table_limit(prr, 1)
        assert limited[0, 1, 0] == 0.9       # node 0 keeps its strongest
        assert limited[2, 3, 0] == 0.8
        assert limited[0, 2, 0] == 0.0       # unreported by both sides
        assert limited[0, 3, 0] == 0.0

    def test_either_endpoint_reporting_keeps_pair(self):
        # Node 1 ranks node 0 highest even if node 0's table is full of
        # stronger neighbors; the manager merges both reports.
        prr = np.zeros((4, 4, 1))
        prr[0, 2, 0] = 0.9
        prr[0, 3, 0] = 0.8
        prr[1, 0, 0] = 0.2  # node 1's only neighbor is node 0
        limited = apply_neighbor_table_limit(prr, 1)
        assert limited[1, 0, 0] == 0.2

    def test_limit_is_symmetric_zeroing(self):
        prr = np.random.default_rng(1).uniform(0.01, 1.0, (15, 15, 2))
        idx = np.arange(15)
        prr[idx, idx, :] = 0.0
        limited = apply_neighbor_table_limit(prr, 3)
        dropped = (limited.sum(axis=2) == 0)
        assert np.array_equal(dropped, dropped.T)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            apply_neighbor_table_limit(np.zeros((2, 2, 1)), 0)


class TestNamedTestbeds:
    def test_indriya_scale(self, indriya):
        topo, env = indriya
        assert topo.num_nodes == INDRIYA_NUM_NODES
        assert topo.num_channels == 16
        assert topo.name == "indriya"

    def test_wustl_scale(self, wustl):
        topo, env = wustl
        assert topo.num_nodes == WUSTL_NUM_NODES
        assert topo.name == "wustl"

    def test_both_communication_graphs_connected(self, indriya, wustl):
        """The benchmark harness relies on connected graphs at the channel
        counts the paper evaluates."""
        for (topo, _), channels in ((indriya, 16), (wustl, 4)):
            restricted = topo.restrict_channels(
                list(topo.channel_map)[:channels])
            graph = CommunicationGraph.from_topology(restricted, 0.9)
            assert graph.is_connected()

    def test_reuse_graph_denser_than_communication(self, wustl):
        """Interference range exceeds communication range."""
        topo, _ = wustl
        comm = CommunicationGraph.from_topology(topo, 0.9)
        reuse = ChannelReuseGraph.from_topology(topo)
        assert reuse.num_edges() > comm.num_edges()

    def test_multi_hop(self, indriya):
        topo, _ = indriya
        reuse = ChannelReuseGraph.from_topology(topo)
        assert reuse.diameter() >= 3

    def test_wustl_params_used_by_default(self, wustl):
        topo, _ = wustl
        topo2, _ = make_wustl(params=WUSTL_PARAMS)
        assert np.array_equal(topo.prr, topo2.prr)
