"""Tests for the analytic delay bound, and NR against it as an oracle."""

import numpy as np
import pytest

from repro.core.nr import NoReusePolicy
from repro.core.scheduler import FixedPriorityScheduler
from repro.experiments.common import build_workload, prepare_network
from repro.flows.flow import Flow, FlowSet
from repro.flows.generator import PeriodRange
from repro.network.graphs import ChannelReuseGraph, CommunicationGraph
from repro.routing.traffic import TrafficType, assign_routes

from conftest import build_topology
from nr_response_time import (
    analyze_flow_set,
    conflict_bound,
    conflicting_demand,
    is_schedulable_by_analysis,
    response_time_bound,
    slot_demand,
    workload_bound,
)


def routed(specs, topology):
    graph = CommunicationGraph.from_topology(topology, 0.9)
    flows = [Flow(i, s, d, p, dl) for i, (s, d, p, dl) in enumerate(specs)]
    ordered = FlowSet(flows).deadline_monotonic()
    return assign_routes(ordered, graph, TrafficType.PEER_TO_PEER)


class TestDemandTerms:
    def test_slot_demand(self, line_topology):
        fs = routed([(0, 3, 100, 100)], line_topology)
        assert slot_demand(fs[0]) == 6  # 3 hops x 2 attempts

    def test_slot_demand_requires_route(self):
        with pytest.raises(ValueError):
            slot_demand(Flow(0, 0, 3, 100, 100))

    def test_conflicting_demand_disjoint(self, line_topology):
        fs = routed([(0, 1, 100, 100), (4, 5, 100, 100)], line_topology)
        assert conflicting_demand(fs[0], fs[1]) == 0

    def test_conflicting_demand_overlapping(self, line_topology):
        fs = routed([(0, 2, 100, 100), (2, 4, 100, 100)], line_topology)
        # fs[1]'s link (2,3) touches node 2 of fs[0]'s route.
        assert conflicting_demand(fs[0], fs[1]) == 2

    def test_workload_bound_scales_with_window(self, line_topology):
        fs = routed([(0, 2, 100, 100)], line_topology)
        assert workload_bound(fs[0], 100) == 8   # 2 releases x 4 slots
        assert workload_bound(fs[0], 300) == 16  # 4 releases

    def test_conflict_bound_zero_when_disjoint(self, line_topology):
        fs = routed([(0, 1, 100, 100), (4, 5, 100, 100)], line_topology)
        assert conflict_bound(fs[0], fs[1], 500) == 0


class TestResponseTime:
    def test_highest_priority_flow_bound_is_own_demand(self, line_topology):
        fs = routed([(0, 3, 100, 50)], line_topology)
        result = response_time_bound(fs, 0, num_channels=2)
        assert result.bound_slots == 6
        assert result.schedulable

    def test_unschedulable_when_demand_exceeds_deadline(self, line_topology):
        fs = routed([(0, 5, 100, 8)], line_topology)  # needs 10 slots
        result = response_time_bound(fs, 0, num_channels=2)
        # C_i alone exceeds the deadline after the first update check.
        assert not result.schedulable

    def test_interference_increases_bound(self, grid_topology):
        light = routed([(0, 2, 100, 100)], grid_topology)
        heavy = routed([(0, 2, 100, 90), (2, 8, 100, 100)], grid_topology)
        alone = response_time_bound(light, 0, num_channels=2)
        with_interference = response_time_bound(heavy, 1, num_channels=2)
        assert with_interference.bound_slots is None or \
            with_interference.bound_slots > alone.bound_slots

    def test_more_channels_reduce_contention(self, grid_topology):
        fs = routed([(0, 1, 100, 100), (3, 4, 100, 100),
                     (6, 7, 100, 100)], grid_topology)
        few = response_time_bound(fs, 2, num_channels=1)
        many = response_time_bound(fs, 2, num_channels=8)
        if few.bound_slots is not None and many.bound_slots is not None:
            assert many.bound_slots <= few.bound_slots

    def test_invalid_channels(self, line_topology):
        fs = routed([(0, 2, 100, 100)], line_topology)
        with pytest.raises(ValueError):
            response_time_bound(fs, 0, num_channels=0)

    def test_analyze_flow_set_covers_all(self, grid_topology):
        fs = routed([(0, 2, 100, 100), (6, 8, 200, 200)], grid_topology)
        results = analyze_flow_set(fs, num_channels=4)
        assert set(results) == {f.flow_id for f in fs}


class TestAnalysisIsSufficient:
    """The headline property: analysis-accepted workloads really are
    schedulable by the constructive NR scheduler."""

    @pytest.mark.parametrize("seed", range(8))
    def test_no_false_positives_on_random_workloads(self, wustl, seed):
        topology, _ = wustl
        network = prepare_network(topology, channels=(11, 12, 13, 14))
        rng = np.random.default_rng(seed)
        flows = build_workload(network, 10, PeriodRange(0, 1),
                               TrafficType.PEER_TO_PEER, rng)
        if not is_schedulable_by_analysis(flows, num_channels=4):
            pytest.skip("analysis inconclusive for this seed")
        scheduler = FixedPriorityScheduler(
            network.topology.num_nodes, 4, network.reuse, NoReusePolicy())
        assert scheduler.run(flows).schedulable

    def test_analysis_more_pessimistic_than_scheduler(self, wustl):
        """Across a load range, analysis accepts a subset of what the
        constructive scheduler accepts."""
        topology, _ = wustl
        network = prepare_network(topology, channels=(11, 12, 13, 14))
        analysis_yes = scheduler_yes = 0
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            flows = build_workload(network, 30, PeriodRange(-1, 1),
                                   TrafficType.PEER_TO_PEER, rng)
            if is_schedulable_by_analysis(flows, num_channels=4):
                analysis_yes += 1
            scheduler = FixedPriorityScheduler(
                network.topology.num_nodes, 4, network.reuse,
                NoReusePolicy())
            if scheduler.run(flows).schedulable:
                scheduler_yes += 1
        assert analysis_yes <= scheduler_yes
