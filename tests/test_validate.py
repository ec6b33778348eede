"""Tests for repro.validate: the auditor and the differential fuzzer."""

import json
import math

import numpy as np
import pytest

from repro.core.rc import (ConservativeReusePolicy, RHO_RESET_FLOW,
                           stepwise_descent)
from repro.core.schedule import Schedule
from repro.core.scheduler import FixedPriorityScheduler
from repro.experiments.common import (build_workload, make_policy,
                                      prepare_network)
from repro.flows.generator import PeriodRange
from repro.routing.traffic import TrafficType
from repro.testbeds.layout import FloorPlan
from repro.testbeds.synth import make_testbed
from repro.validate import AuditReport, audit_schedule, run_fuzz
from repro.validate.fuzz import _schedule_signature, run_case

from core_oracles import violation_kinds
from test_core_schedule import request


@pytest.fixture(scope="module")
def scheduled_network():
    """A deterministic synth network + workload where RA reuses heavily
    and RC still produces shared cells (seed chosen for that)."""
    topology, environment = make_testbed(
        16, FloorPlan(num_floors=1, floor_width_m=50, floor_depth_m=30),
        12, name="validate-fixture")
    network = prepare_network(topology, num_channels=3)
    flow_set = build_workload(network, 6, PeriodRange(-2, -1),
                              TrafficType.PEER_TO_PEER,
                              np.random.default_rng(12))
    return network, environment, flow_set


def run_policy(network, flow_set, policy):
    scheduler = FixedPriorityScheduler(
        num_nodes=network.topology.num_nodes,
        num_offsets=network.num_channels,
        reuse_graph=network.reuse,
        policy=policy)
    return scheduler.run(flow_set)


@pytest.fixture
def line_reuse_graph(line_topology):
    """Reuse graph of the 6-node line (hop distance = index difference)."""
    return prepare_network(line_topology).reuse


class TestAuditorCleanSchedules:
    def test_ra_schedule_audits_ok(self, scheduled_network):
        network, _, flow_set = scheduled_network
        result = run_policy(network, flow_set, make_policy("RA", 1))
        assert result.schedulable
        report = audit_schedule(result.schedule, network.reuse, 1,
                                flow_set=flow_set)
        assert report.ok
        assert report.num_entries == len(result.schedule)
        assert report.num_shared_cells == result.schedule.num_reused_cells()
        assert report.min_effective_rho() >= 1

    def test_rc_schedule_respects_its_floor(self, scheduled_network):
        network, _, flow_set = scheduled_network
        result = run_policy(network, flow_set, make_policy("RC", 2))
        assert result.schedulable
        report = audit_schedule(result.schedule, network.reuse, 2,
                                flow_set=flow_set)
        assert report.ok
        assert report.num_shared_cells > 0
        assert report.min_effective_rho() >= 2

    def test_empty_schedule_audits_ok(self, line_reuse_graph):
        report = audit_schedule(Schedule(6, 10, 2), line_reuse_graph, 2)
        assert report.ok
        assert report.num_entries == 0
        assert report.min_effective_rho() is None

    def test_graph_size_mismatch_rejected(self, line_reuse_graph):
        with pytest.raises(ValueError):
            audit_schedule(Schedule(7, 10, 2), line_reuse_graph, 2)


class TestAuditorCorruptions:
    """Each hand-corrupted schedule must be caught with a precise
    diagnostic naming the offending cell, node, or request."""

    def test_node_conflict(self, line_reuse_graph):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        # Node 1 double-booked in slot 0; force_add bypasses the guard
        # exactly like a corrupt artifact would.
        schedule.force_add(request(1, 2, flow_id=1), 0, 1)
        report = audit_schedule(schedule, line_reuse_graph, 2)
        assert violation_kinds(report) == ["node_conflict"]
        [violation] = report.violations
        assert violation.slot == 0
        assert "node 1" in violation.message
        assert "0->1" in violation.message and "1->2" in violation.message

    def test_rho_floor_violation(self, line_reuse_graph):
        schedule = Schedule(6, 20, 2)
        # Links (0,1) and (2,3) share cell (0,0): effective rho =
        # min(hops(0,3)=3, hops(2,1)=1) = 1, below a floor of 2.
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(2, 3, flow_id=1), 0, 0)
        report = audit_schedule(schedule, line_reuse_graph, 2)
        assert violation_kinds(report) == ["rho_floor"]
        assert report.cell_rho[(0, 0)] == 1
        assert report.min_effective_rho() == 1
        [violation] = report.violations
        assert (violation.slot, violation.offset) == (0, 0)
        assert "effective rho 1 below floor 2" in violation.message

    def test_rho_floor_satisfied_at_distance(self, line_reuse_graph):
        schedule = Schedule(6, 20, 2)
        # Links (0,1) and (4,5): effective rho = min(5, 3) = 3 >= 2.
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(4, 5, flow_id=1), 0, 0)
        report = audit_schedule(schedule, line_reuse_graph, 2)
        assert report.ok
        assert report.cell_rho[(0, 0)] == 3

    def test_out_of_deadline_placement(self, line_reuse_graph):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1, release=0, deadline=5), 7, 0)
        report = audit_schedule(schedule, line_reuse_graph, 2)
        assert violation_kinds(report) == ["window"]
        [violation] = report.violations
        assert violation.slot == 7
        assert "after deadline 5" in violation.message

    def test_before_release_placement(self, line_reuse_graph):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1, release=4, deadline=10), 2, 0)
        report = audit_schedule(schedule, line_reuse_graph, 2)
        assert violation_kinds(report) == ["window"]
        assert "before release 4" in report.violations[0].message

    def test_occupancy_lane_mismatch(self, line_reuse_graph):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(4, 5, flow_id=1), 0, 0)
        # The cell's occupants out of placement order.
        schedule._cells[(0, 0)] = schedule._cells[(0, 0)][::-1]
        report = audit_schedule(schedule, line_reuse_graph, 2)
        assert violation_kinds(report) == ["occupancy"]
        [violation] = report.violations
        assert (violation.slot, violation.offset) == (0, 0)
        assert "lists entries [1, 0]" in violation.message
        assert "places [0, 1]" in violation.message

    def test_used_mask_drift(self, line_reuse_graph):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 3, 1)
        schedule._used_mask[3] = 0  # the bit of offset 1 lost
        report = audit_schedule(schedule, line_reuse_graph, 2)
        assert violation_kinds(report) == ["occupancy"]
        [violation] = report.violations
        assert violation.slot == 3
        assert "mask says [] but entries occupy [1]" in violation.message

    def test_full_slot_drift(self, line_reuse_graph):
        schedule = Schedule(6, 40, 2)
        schedule.add(request(0, 1), 33, 0)
        schedule.add(request(4, 5, flow_id=1), 33, 1)
        schedule._full &= ~(1 << 33)  # both offsets taken, bit lost
        report = audit_schedule(schedule, line_reuse_graph, 2)
        assert violation_kinds(report) == ["occupancy"]
        [violation] = report.violations
        assert violation.slot == 33
        assert ("full-slot bitset marks it open but entries occupy "
                "[0, 1] of 2 offsets") in violation.message

    def test_precedence_inversion(self, line_reuse_graph):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1, hop=0, attempt=0), 5, 0)
        schedule.add(request(0, 1, hop=0, attempt=1), 3, 0)
        report = audit_schedule(schedule, line_reuse_graph, 2)
        assert violation_kinds(report) == ["precedence"]
        assert "does not follow" in report.violations[0].message

    def test_busy_matrix_drift(self, line_reuse_graph):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule._busy[5] |= 1 << 9  # bit flipped by "cosmic ray"
        report = audit_schedule(schedule, line_reuse_graph, 2)
        assert violation_kinds(report) == ["busy_matrix"]
        assert "node 5" in report.violations[0].message

    def test_busy_bits_on_two_nodes(self, line_reuse_graph):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule._busy[4] ^= 1 << 7
        schedule._busy[2] ^= 1 << 11
        report = audit_schedule(schedule, line_reuse_graph, 2)
        assert violation_kinds(report) == ["busy_matrix"]
        [violation] = report.violations
        # The lower node's lowest differing slot, though node 4 differs
        # at an earlier slot.
        assert violation.slot == 11
        assert ("at (node 2, slot 11) and 1 more place(s)"
                in violation.message)

    def test_used_mask_bit_above_the_offsets(self, line_reuse_graph):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 3, 0)
        schedule._used_mask[3] |= 1 << 2  # offset 2 of a 2-offset grid
        report = audit_schedule(schedule, line_reuse_graph, 2)
        assert violation_kinds(report) == ["occupancy"]
        [violation] = report.violations
        assert violation.slot == 3
        assert "mask says [0, 2] but entries occupy [0]" in violation.message

    def test_barred_link_sharing_a_cell(self, line_reuse_graph):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(4, 5, flow_id=1), 0, 0)
        report = audit_schedule(schedule, line_reuse_graph, 2,
                                barred_links=[(1, 0)])
        assert "barred_reuse" in violation_kinds(report)
        assert "(0, 1)" in report.violations[0].message

    def test_completeness_missing_placement(self, scheduled_network):
        network, _, flow_set = scheduled_network
        result = run_policy(network, flow_set, make_policy("RA", 1))
        assert result.schedulable
        rebuilt = Schedule(result.schedule.num_nodes,
                           result.schedule.num_slots,
                           result.schedule.num_offsets)
        dropped = result.schedule.entries[-1]
        for entry in result.schedule.entries[:-1]:
            rebuilt.add(entry.request, entry.slot, entry.offset)
        report = audit_schedule(rebuilt, network.reuse, 1,
                                flow_set=flow_set)
        assert "completeness" in violation_kinds(report)
        assert any("missing 1 placement" in v.message
                   and v.flow_id == dropped.request.flow_id
                   for v in report.violations)


    @staticmethod
    def _corrupted(schedule, drop=False):
        """A copy of ``schedule`` with its first request placed twice and
        a request of flow 99 (outside the flow set) added, optionally
        without its last entry."""
        entries = schedule.entries[:-1] if drop else schedule.entries
        corrupt = Schedule(schedule.num_nodes, schedule.num_slots,
                           schedule.num_offsets)
        for entry in entries:
            corrupt.add(entry.request, entry.slot, entry.offset)
        first = schedule.entries[0]
        corrupt.force_add(first.request, first.slot, first.offset)
        corrupt.force_add(request(first.request.sender,
                                  first.request.receiver, flow_id=99),
                          first.slot, first.offset)
        return corrupt

    def test_completeness_duplicate_and_unexpected(self, scheduled_network):
        network, _, flow_set = scheduled_network
        result = run_policy(network, flow_set, make_policy("RA", 1))
        corrupt = self._corrupted(result.schedule)
        report = audit_schedule(corrupt, network.reuse, 1,
                                flow_set=flow_set)
        extra = [v for v in report.violations if v.kind == "completeness"]
        first = result.schedule.entries[0].request
        assert [(v.flow_id, v.message) for v in extra] == [
            (first.flow_id, f"{first}: placed 1 extra time(s) (duplicate "
                            f"for this flow set)"),
            (99, f"F99[0] hop 0.0 {first.sender}->{first.receiver}: placed "
                 f"1 extra time(s) (unexpected for this flow set)")]

    def test_partial_schedule_flags_extras_not_gaps(self, scheduled_network):
        network, _, flow_set = scheduled_network
        result = run_policy(network, flow_set, make_policy("RA", 1))
        corrupt = self._corrupted(result.schedule, drop=True)
        messages = {
            complete: [v.message for v in audit_schedule(
                corrupt, network.reuse, 1, flow_set=flow_set,
                expect_complete=complete).violations
                if v.kind == "completeness"]
            for complete in (True, False)}
        for complete in (True, False):
            assert sum("(duplicate for this flow set)" in m
                       for m in messages[complete]) == 1
            assert sum("(unexpected for this flow set)" in m
                       for m in messages[complete]) == 1
        dropped = result.schedule.entries[-1].request
        assert f"{dropped}: missing 1 placement(s)" in messages[True]
        assert not any("missing" in m for m in messages[False])


class TestAuditReport:
    def test_to_dict_serializes_infinity_as_none(self, line_reuse_graph):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(4, 5, flow_id=1), 0, 0)
        report = audit_schedule(schedule, line_reuse_graph, math.inf)
        assert not report.ok  # effective rho 3 < inf floor
        payload = report.to_dict()
        assert payload["rho_floor"] is None
        assert payload["cell_rho"] == {"0,0": 3}
        json.dumps(payload)  # artifact must be JSON-clean

    def test_summary_lists_violations(self, line_reuse_graph):
        schedule = Schedule(6, 20, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule.force_add(request(1, 2, flow_id=1), 0, 1)
        report = audit_schedule(schedule, line_reuse_graph, 2)
        text = report.summary()
        assert "audit FAILED" in text
        assert "[node_conflict]" in text

    def test_violation_cap_truncates(self, line_reuse_graph):
        from repro.validate.audit import MAX_VIOLATIONS

        schedule = Schedule(6, MAX_VIOLATIONS + 50, 2)
        for slot in range(1, MAX_VIOLATIONS + 11):
            # Every placement lands after its deadline of slot 0.
            schedule.add(request(0, 1, instance=slot, release=0,
                                 deadline=0), slot, 0)
        report = audit_schedule(schedule, line_reuse_graph, 2)
        assert report.truncated
        assert len(report.violations) == MAX_VIOLATIONS


class TestDifferentialFuzzer:
    def test_smoke_run_is_clean(self):
        report = run_fuzz(4, seed=0)
        assert report.ok, report.to_dict()
        assert report.num_cases == 4
        assert len(report.cases) == 4
        assert "fuzz OK" in report.summary()

    def test_cases_are_deterministic(self):
        first = run_case(1, seed=0)
        second = run_case(1, seed=0)
        assert first.to_dict() == second.to_dict()

    def test_failure_artifact_carries_reproduce_command(self):
        case = run_case(0, seed=7)
        payload = case.to_dict()
        assert payload["reproduce"] == "repro fuzz --cases 1 --seed 7"
        json.dumps(payload)

    def test_rejects_nonpositive_cases(self):
        with pytest.raises(ValueError):
            run_fuzz(0)


class TestRcFlowResetParity:
    """RC's stepwise loop and its fused descent must agree bit for bit
    when rho persists across a flow's transmissions (rho_reset="flow"),
    including the post-descent clamp back to rho_t."""

    def test_stepwise_vs_fused_schedules_identical(self, scheduled_network):
        network, _, flow_set = scheduled_network

        def rc():
            return ConservativeReusePolicy(rho_t=2,
                                           rho_reset=RHO_RESET_FLOW)

        with stepwise_descent():
            stepwise = run_policy(network, flow_set, rc())
        fused = run_policy(network, flow_set, rc())

        assert _schedule_signature(stepwise) == _schedule_signature(fused)
        report = audit_schedule(fused.schedule, network.reuse, 2,
                                flow_set=flow_set,
                                expect_complete=fused.schedulable)
        assert report.ok, report.summary()
