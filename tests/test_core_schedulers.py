"""Tests for find_slot and the NR / RA / RC placement policies."""

import math

import pytest

from repro.core.constraints import (
    NO_REUSE,
    max_admissible_rho,
    validate_schedule,
)
from repro.core.nr import NoReusePolicy
from repro.core.ra import AggressiveReusePolicy
from repro.core.rc import ConservativeReusePolicy, RHO_RESET_FLOW
from repro.core.schedule import Schedule
from repro.core.scheduler import (
    FixedPriorityScheduler,
    OFFSET_FIRST,
    OFFSET_LEAST_LOADED,
    find_slot,
)
from repro.flows.flow import Flow, FlowSet
from repro.network.graphs import ChannelReuseGraph, CommunicationGraph
from repro.routing.traffic import TrafficType, assign_routes

from test_core_schedule import request


@pytest.fixture
def line_reuse_graph(line_topology):
    return ChannelReuseGraph.from_topology(line_topology)


class TestFindSlot:
    def test_earliest_free_slot(self, line_reuse_graph):
        schedule = Schedule(6, 10, 2)
        assert find_slot(schedule, line_reuse_graph, request(0, 1),
                         NO_REUSE, earliest=0) == (0, 0)

    def test_respects_earliest(self, line_reuse_graph):
        schedule = Schedule(6, 10, 2)
        assert find_slot(schedule, line_reuse_graph, request(0, 1),
                         NO_REUSE, earliest=4) == (4, 0)

    def test_skips_conflicting_slot(self, line_reuse_graph):
        schedule = Schedule(6, 10, 2)
        schedule.add(request(1, 2), 0, 0)
        found = find_slot(schedule, line_reuse_graph, request(0, 1),
                          NO_REUSE, earliest=0)
        assert found == (1, 0)

    def test_no_reuse_skips_full_slot(self, line_reuse_graph):
        schedule = Schedule(6, 10, 1)
        schedule.add(request(4, 5), 0, 0)
        found = find_slot(schedule, line_reuse_graph, request(0, 1),
                          NO_REUSE, earliest=0)
        assert found == (1, 0)

    def test_reuse_allows_sharing_full_slot(self, line_reuse_graph):
        schedule = Schedule(6, 10, 1)
        schedule.add(request(4, 5), 0, 0)
        found = find_slot(schedule, line_reuse_graph, request(0, 1),
                          rho=3, earliest=0)
        assert found == (0, 0)

    def test_reuse_still_respects_rho(self, line_reuse_graph):
        schedule = Schedule(6, 10, 1)
        schedule.add(request(2, 3), 0, 0)
        found = find_slot(schedule, line_reuse_graph, request(0, 1),
                          rho=2, earliest=0)
        assert found == (1, 0)  # hop(0,3)=3 ok but hop(2,1)=1 < 2

    def test_none_when_past_deadline(self, line_reuse_graph):
        schedule = Schedule(6, 10, 1)
        req = request(0, 1, deadline=3)
        for slot in range(4):
            schedule.add(request(1, 2, deadline=9), slot, 0)
        assert find_slot(schedule, line_reuse_graph, req, NO_REUSE, 0) is None

    def test_none_when_earliest_past_deadline(self, line_reuse_graph):
        schedule = Schedule(6, 10, 1)
        req = request(0, 1, deadline=3)
        assert find_slot(schedule, line_reuse_graph, req, NO_REUSE, 4) is None

    def test_first_offset_rule(self, line_reuse_graph):
        schedule = Schedule(6, 10, 3)
        schedule.add(request(4, 5), 0, 0)
        found = find_slot(schedule, line_reuse_graph, request(0, 1),
                          rho=3, earliest=0, offset_rule=OFFSET_FIRST)
        assert found == (0, 0)  # reuses offset 0 even though 1, 2 are free

    def test_least_loaded_offset_rule(self, line_reuse_graph):
        """RC prefers the emptiest feasible channel (paper Section V-C)."""
        schedule = Schedule(6, 10, 3)
        schedule.add(request(4, 5), 0, 0)
        found = find_slot(schedule, line_reuse_graph, request(0, 1),
                          rho=3, earliest=0, offset_rule=OFFSET_LEAST_LOADED)
        assert found == (0, 1)  # empty offset beats shared offset

    def test_unknown_offset_rule(self, line_reuse_graph):
        schedule = Schedule(6, 10, 2)
        schedule.add(request(4, 5), 0, 0)
        with pytest.raises(ValueError):
            find_slot(schedule, line_reuse_graph, request(0, 1), 2, 0,
                      offset_rule="bogus")

    @pytest.mark.parametrize("walked", [False, True],
                             ids=["scalar", "vector"])
    def test_unknown_offset_rule_rejected_with_no_feasible_slot(
            self, line_reuse_graph, walked):
        """A bogus rule is rejected at the finite-ρ entry, even when no
        slot could be feasible, whether the schedule is untouched
        ("scalar") or its window was first read as the per-slot vector
        of largest admissible ρ that RC's fused descent walks
        ("vector"): that read leaves the schedule as it was, and
        find_slot runs the scalar scan either way."""
        schedule = Schedule(6, 10, 1)
        for slot in range(10):
            schedule.add(request(1, 2), slot, 0)
        if walked:
            # Each slot's one cell holds (1, 2), 0 hops from receiver 1.
            assert [max_admissible_rho(schedule, line_reuse_graph, 0, 1,
                                       slot)
                    for slot in range(10)] == [0] * 10
            assert len(schedule.entries) == 10
        with pytest.raises(ValueError):
            find_slot(schedule, line_reuse_graph, request(0, 1), 2, 0,
                      offset_rule="bogus")


def make_flow_set(specs, graph):
    """specs: list of (src, dst, period, deadline)."""
    flows = [Flow(i, s, d, p, dl) for i, (s, d, p, dl) in enumerate(specs)]
    ordered = FlowSet(flows).deadline_monotonic()
    return assign_routes(ordered, graph, TrafficType.PEER_TO_PEER)


@pytest.fixture
def line_graphs(line_topology):
    return (CommunicationGraph.from_topology(line_topology, 0.9),
            ChannelReuseGraph.from_topology(line_topology))


class TestSchedulerEngine:
    def test_single_flow_scheduled_in_order(self, line_graphs):
        comm, reuse = line_graphs
        fs = make_flow_set([(0, 2, 100, 100)], comm)
        scheduler = FixedPriorityScheduler(6, 2, reuse, NoReusePolicy())
        result = scheduler.run(fs)
        assert result.schedulable
        slots = [e.slot for e in result.schedule.entries]
        assert slots == sorted(slots)
        assert slots == [0, 1, 2, 3]  # 2 hops x 2 attempts, strictly serial

    def test_precedence_strictly_increasing(self, line_graphs):
        comm, reuse = line_graphs
        fs = make_flow_set([(0, 5, 400, 400)], comm)
        scheduler = FixedPriorityScheduler(6, 2, reuse, NoReusePolicy())
        result = scheduler.run(fs)
        slots = [e.slot for e in result.schedule.entries]
        assert all(b > a for a, b in zip(slots, slots[1:]))

    def test_all_instances_scheduled(self, line_graphs):
        comm, reuse = line_graphs
        fs = make_flow_set([(0, 2, 50, 50), (3, 5, 100, 100)], comm)
        scheduler = FixedPriorityScheduler(6, 2, reuse, NoReusePolicy())
        result = scheduler.run(fs)
        assert result.schedulable
        # Hyperperiod 100: flow at P=50 has 2 instances of 4 attempts,
        # flow at P=100 has 1 instance of 4 attempts.
        assert len(result.schedule) == 12

    def test_releases_respected(self, line_graphs):
        comm, reuse = line_graphs
        fs = make_flow_set([(0, 2, 50, 50)], comm)
        scheduler = FixedPriorityScheduler(6, 2, reuse, NoReusePolicy())
        result = scheduler.run(fs)
        second_instance = [e for e in result.schedule.entries
                           if e.request.instance == 1]
        assert all(e.slot >= 50 for e in second_instance)

    def test_deadline_miss_returns_unschedulable(self, line_graphs):
        comm, reuse = line_graphs
        # 5 hops x 2 attempts = 10 slots needed, deadline 8.
        fs = make_flow_set([(0, 5, 100, 8)], comm)
        scheduler = FixedPriorityScheduler(6, 2, reuse, NoReusePolicy())
        result = scheduler.run(fs)
        assert not result.schedulable
        assert result.failed_flow == 0
        assert result.failed_instance == 0

    def test_unrouted_flow_set_rejected(self, line_graphs):
        _, reuse = line_graphs
        fs = FlowSet([Flow(0, 0, 5, 100, 100)])
        scheduler = FixedPriorityScheduler(6, 2, reuse, NoReusePolicy())
        with pytest.raises(ValueError):
            scheduler.run(fs)

    def test_elapsed_time_recorded(self, line_graphs):
        comm, reuse = line_graphs
        fs = make_flow_set([(0, 2, 100, 100)], comm)
        result = FixedPriorityScheduler(6, 2, reuse, NoReusePolicy()).run(fs)
        assert result.elapsed_s > 0.0


class TestNrPolicy:
    def test_never_reuses(self, line_graphs):
        comm, reuse = line_graphs
        # Two node-disjoint flows, one channel: NR must serialize.
        fs = make_flow_set([(0, 1, 100, 100), (4, 5, 100, 100)], comm)
        result = FixedPriorityScheduler(6, 1, reuse, NoReusePolicy()).run(fs)
        assert result.schedulable
        assert result.schedule.num_reused_cells() == 0
        assert result.schedule.makespan() == 4  # fully serialized


class TestRaPolicy:
    def test_reuses_whenever_possible(self, line_graphs):
        comm, reuse = line_graphs
        fs = make_flow_set([(0, 1, 100, 100), (4, 5, 100, 100)], comm)
        result = FixedPriorityScheduler(
            6, 1, reuse, AggressiveReusePolicy(rho_t=3)).run(fs)
        assert result.schedulable
        # hop(0,5)=5, hop(4,1)=3: flows can share every slot.
        assert result.schedule.num_reused_cells() == 2
        assert result.schedule.makespan() == 2

    def test_respects_rho_t(self, line_graphs):
        comm, reuse = line_graphs
        fs = make_flow_set([(0, 1, 100, 100), (3, 4, 100, 100)], comm)
        result = FixedPriorityScheduler(
            6, 1, reuse, AggressiveReusePolicy(rho_t=4)).run(fs)
        assert result.schedulable
        # hop(3,1)=2 < 4: no reuse possible.
        assert result.schedule.num_reused_cells() == 0
        assert validate_schedule(result.schedule, reuse, 4) is None

    def test_invalid_rho_t(self):
        with pytest.raises(ValueError):
            AggressiveReusePolicy(rho_t=0)


class TestRcPolicy:
    def test_no_reuse_when_deadlines_loose(self, line_graphs):
        """RC must not reuse when the workload fits without it."""
        comm, reuse = line_graphs
        fs = make_flow_set([(0, 1, 100, 100), (4, 5, 100, 100)], comm)
        result = FixedPriorityScheduler(
            6, 1, reuse, ConservativeReusePolicy(rho_t=2)).run(fs)
        assert result.schedulable
        assert result.schedule.num_reused_cells() == 0

    def test_reuses_when_needed(self, line_graphs):
        """When both flows need the same two slots on one channel, the
        lower-priority flow can only make its deadline by sharing."""
        comm, reuse = line_graphs
        fs = make_flow_set([(0, 1, 100, 2), (4, 5, 100, 2)], comm)
        result = FixedPriorityScheduler(
            6, 1, reuse, ConservativeReusePolicy(rho_t=2)).run(fs)
        assert result.schedulable
        assert result.schedule.num_reused_cells() >= 1

    def test_schedulable_where_nr_fails(self, line_graphs):
        comm, reuse = line_graphs
        fs = make_flow_set([(0, 1, 100, 2), (4, 5, 100, 2)], comm)
        nr = FixedPriorityScheduler(6, 1, reuse, NoReusePolicy()).run(fs)
        rc = FixedPriorityScheduler(
            6, 1, reuse, ConservativeReusePolicy(rho_t=2)).run(fs)
        assert not nr.schedulable
        assert rc.schedulable

    def test_prefers_larger_hop_distance(self, line_topology):
        """RC starts reuse at λ_R and only shrinks ρ as needed."""
        comm = CommunicationGraph.from_topology(line_topology, 0.9)
        reuse = ChannelReuseGraph.from_topology(line_topology)
        # Both flows need the same two slots on one channel; RC pairs
        # the two transmissions, which are far apart on the line.
        fs = make_flow_set([(0, 1, 100, 2), (4, 5, 100, 2)], comm)
        result = FixedPriorityScheduler(
            6, 1, reuse, ConservativeReusePolicy(rho_t=2)).run(fs)
        assert result.schedulable
        reused = result.schedule.reused_cells()
        assert reused
        # The shared cells pair 0->1 with 4->5: hop(0,5)=5, hop(4,1)=3.
        for _, _, txs in reused:
            links = {t.request.link for t in txs}
            assert links == {(0, 1), (4, 5)}

    def test_never_violates_rho_t(self, line_graphs):
        comm, reuse = line_graphs
        fs = make_flow_set(
            [(0, 1, 100, 4), (2, 3, 100, 4), (4, 5, 100, 4)], comm)
        result = FixedPriorityScheduler(
            6, 1, reuse, ConservativeReusePolicy(rho_t=2)).run(fs)
        if result.schedulable:
            assert validate_schedule(result.schedule, reuse, 2) is None

    def test_flow_reset_mode(self, line_graphs):
        comm, reuse = line_graphs
        fs = make_flow_set([(0, 1, 100, 100), (4, 5, 100, 2)], comm)
        policy = ConservativeReusePolicy(rho_t=2, rho_reset=RHO_RESET_FLOW)
        result = FixedPriorityScheduler(6, 1, reuse, policy).run(fs)
        assert result.schedulable

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ConservativeReusePolicy(rho_t=0)
        with pytest.raises(ValueError):
            ConservativeReusePolicy(rho_reset="sometimes")
        with pytest.raises(ValueError, match="unknown offset rule"):
            ConservativeReusePolicy(offset_rule="bogus")

    def test_least_loaded_channel_choice(self, line_topology):
        """Among feasible offsets RC picks the one with fewest entries."""
        comm = CommunicationGraph.from_topology(line_topology, 0.9)
        reuse = ChannelReuseGraph.from_topology(line_topology)
        schedule = Schedule(6, 10, 2)
        schedule.add(request(0, 1), 0, 0)
        found = find_slot(schedule, reuse, request(4, 5, deadline=9),
                          rho=2, earliest=0,
                          offset_rule=OFFSET_LEAST_LOADED)
        assert found == (0, 1)
