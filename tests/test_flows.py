"""Tests for repro.flows (flow model + workload generation)."""

import numpy as np
import pytest

from repro.flows.flow import Flow, FlowSet
from repro.flows.generator import (
    PeriodRange,
    generate_fixed_period_flow_set,
    generate_flow_set,
    pick_access_points,
)
from repro.network.graphs import CommunicationGraph


def flow(fid, src=0, dst=5, period=100, deadline=None, route=()):
    if deadline is None:
        deadline = period
    return Flow(fid, src, dst, period, deadline, tuple(route))


def total_instances(flow_set):
    """Packet releases of a flow set in one hyperperiod."""
    hyperperiod = flow_set.hyperperiod()
    return sum(hyperperiod // f.period_slots for f in flow_set)


class TestFlow:
    def test_valid_flow(self):
        f = flow(0, period=100, deadline=80)
        assert f.period_slots == 100
        assert f.deadline_slots == 80

    def test_deadline_must_not_exceed_period(self):
        with pytest.raises(ValueError):
            flow(0, period=100, deadline=101)

    def test_deadline_positive(self):
        with pytest.raises(ValueError):
            flow(0, period=100, deadline=0)

    def test_source_destination_distinct(self):
        with pytest.raises(ValueError):
            Flow(0, 3, 3, 100, 100)

    def test_route_endpoints_checked(self):
        with pytest.raises(ValueError):
            flow(0, src=0, dst=5, route=[1, 2, 5])
        with pytest.raises(ValueError):
            flow(0, src=0, dst=5, route=[0, 2, 4])

    def test_links(self):
        f = flow(0, route=[0, 2, 4, 5])
        assert f.links == ((0, 2), (2, 4), (4, 5))
        assert f.num_hops == 3

    def test_links_collapse_wired_handoff(self):
        """Centralized routes repeat the AP node at the wire crossing."""
        f = flow(0, route=[0, 3, 3, 5])
        assert f.links == ((0, 3), (3, 5))

    def test_with_route(self):
        f = flow(0).with_route([0, 1, 5])
        assert f.has_route
        assert f.links == ((0, 1), (1, 5))

    def test_wire_after_excludes_hop(self):
        """Different up/downlink APs: the AP->AP hop is wired."""
        f = flow(0, src=0, dst=5).with_route([0, 2, 3, 5], wire_after=1)
        assert f.links == ((0, 2), (3, 5))
        assert f.num_hops == 2

    def test_with_route_recomputes_cached_links(self):
        """``links`` is computed once per flow: a re-routed copy must not
        inherit the original's tuple."""
        f = flow(0, route=[0, 2, 5])
        assert f.links == ((0, 2), (2, 5))
        rerouted = f.with_route([0, 3, 4, 5])
        assert rerouted.links == ((0, 3), (3, 4), (4, 5))
        assert rerouted.num_hops == 3
        assert f.links == ((0, 2), (2, 5))
        assert f.with_route([0, 2, 3, 5], wire_after=1).links == (
            (0, 2), (3, 5))

    @pytest.mark.parametrize("read_first", [False, True])
    def test_pickle_round_trip_keeps_links(self, read_first):
        """Flows cross process boundaries (``parallel_map``, the
        service's workers), with or without the cached tuple."""
        import pickle

        f = flow(4, route=[0, 3, 3, 5])
        if read_first:
            assert f.links == ((0, 3), (3, 5))
        copy = pickle.loads(pickle.dumps(f))
        assert copy == f
        assert hash(copy) == hash(f)
        assert copy.links == f.links == ((0, 3), (3, 5))
        assert copy.num_hops == 2

    def test_wire_after_requires_route(self):
        with pytest.raises(ValueError):
            Flow(0, 0, 5, 100, 100, wire_after=0)

    def test_wire_after_out_of_range(self):
        with pytest.raises(ValueError):
            Flow(0, 0, 5, 100, 100, route=(0, 2, 5), wire_after=2)

    def test_instances(self):
        f = flow(0, period=50, deadline=40)
        instances = list(f.instances(200))
        assert len(instances) == 4
        assert instances[0].release_slot == 0
        assert instances[0].deadline_slot == 39
        assert instances[3].release_slot == 150
        assert instances[3].deadline_slot == 189

    def test_instances_require_multiple(self):
        with pytest.raises(ValueError):
            list(flow(0, period=60).instances(100))

    def test_instance_window(self):
        f = flow(0, period=100, deadline=70)
        inst = next(f.instances(100))
        assert (inst.release_slot, inst.deadline_slot) == (0, 69)


class TestFlowSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            FlowSet([flow(1), flow(1)])

    def test_hyperperiod_lcm(self):
        fs = FlowSet([flow(0, period=50), flow(1, period=400),
                      flow(2, period=100)])
        assert fs.hyperperiod() == 400

    def test_empty_hyperperiod(self):
        assert FlowSet([]).hyperperiod() == 0

    def test_deadline_monotonic_order(self):
        fs = FlowSet([flow(0, period=100, deadline=90),
                      flow(1, period=100, deadline=30),
                      flow(2, period=100, deadline=60)])
        ordered = fs.deadline_monotonic()
        assert [f.flow_id for f in ordered] == [1, 2, 0]

    def test_dm_tie_broken_by_id(self):
        fs = FlowSet([flow(1, period=100, deadline=50),
                      flow(0, period=100, deadline=50)])
        assert [f.flow_id for f in fs.deadline_monotonic()] == [0, 1]

    def test_total_instances(self):
        fs = FlowSet([flow(0, period=50), flow(1, period=100)])
        assert total_instances(fs) == 3

    def test_utilization(self):
        fs = FlowSet([flow(0, period=100, route=[0, 1, 5])])
        assert fs.utilization() == pytest.approx(2 * 2 / 100)
        assert fs.utilization(attempts_per_link=1) == pytest.approx(2 / 100)

    def test_utilization_requires_routes(self):
        with pytest.raises(ValueError):
            FlowSet([flow(0)]).utilization()

    def test_all_routed(self):
        assert not FlowSet([flow(0)]).all_routed()
        assert FlowSet([flow(0, route=[0, 5])]).all_routed()


class TestPeriodRange:
    def test_periods(self):
        assert PeriodRange(-1, 2).periods_slots() == [50, 100, 200, 400]

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            PeriodRange(3, 1)

    def test_too_fine_rejected(self):
        with pytest.raises(ValueError):
            PeriodRange(-3, 0)

    def test_single_period(self):
        assert PeriodRange(0, 0).periods_slots() == [100]


class TestGenerator:
    def test_pick_access_points_highest_degree(self, grid_topology):
        graph = CommunicationGraph.from_topology(grid_topology, 0.9)
        aps = pick_access_points(graph, count=2)
        assert aps[0] == 4  # grid center has degree 4
        assert len(aps) == 2

    def test_generate_flow_set_properties(self, grid_topology):
        graph = CommunicationGraph.from_topology(grid_topology, 0.9)
        rng = np.random.default_rng(0)
        fs, aps = generate_flow_set(graph, 10,
                                    PeriodRange(0, 2), rng)
        assert len(fs) == 10
        assert len(aps) == 2
        for f in fs:
            assert f.source != f.destination
            assert f.source not in aps and f.destination not in aps
            assert f.period_slots in (100, 200, 400)
            assert f.period_slots // 2 <= f.deadline_slots <= f.period_slots
            assert not f.has_route

    def test_generate_deterministic(self, grid_topology):
        graph = CommunicationGraph.from_topology(grid_topology, 0.9)
        a, _ = generate_flow_set(graph, 5, PeriodRange(0, 1),
                                 np.random.default_rng(7))
        b, _ = generate_flow_set(graph, 5, PeriodRange(0, 1),
                                 np.random.default_rng(7))
        assert [(f.source, f.destination, f.period_slots, f.deadline_slots)
                for f in a] == \
               [(f.source, f.destination, f.period_slots, f.deadline_slots)
                for f in b]

    def test_generate_zero_flows_rejected(self, grid_topology):
        graph = CommunicationGraph.from_topology(grid_topology, 0.9)
        with pytest.raises(ValueError):
            generate_flow_set(graph, 0, PeriodRange(0, 1),
                              np.random.default_rng(0))

    def test_fixed_period_mix(self, grid_topology):
        graph = CommunicationGraph.from_topology(grid_topology, 0.9)
        fs, _ = generate_fixed_period_flow_set(
            graph, ((0.5, 3), (1.0, 2)),
            np.random.default_rng(0))
        periods = sorted(f.period_slots for f in fs)
        assert periods == [50, 50, 50, 100, 100]
        assert all(f.deadline_slots == f.period_slots for f in fs)

    def test_fixed_period_random_deadlines(self, grid_topology):
        graph = CommunicationGraph.from_topology(grid_topology, 0.9)
        fs, _ = generate_fixed_period_flow_set(
            graph, ((1.0, 20),), np.random.default_rng(0),
            deadline_equals_period=False)
        assert any(f.deadline_slots < f.period_slots for f in fs)
        assert all(f.deadline_slots >= 50 for f in fs)
