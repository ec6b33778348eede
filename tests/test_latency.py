"""Tests for repro.analysis.latency."""

import numpy as np
import pytest

from repro.analysis.latency import (
    InstanceLatency,
    LatencySummary,
    instance_latencies,
)
from repro.core.schedule import Schedule
from repro.experiments.common import (
    build_workload,
    prepare_network,
    schedule_workload,
)
from repro.flows.flow import Flow, FlowSet
from repro.flows.generator import PeriodRange
from repro.routing.traffic import TrafficType

from test_core_schedule import request


def two_hop_flow_schedule():
    flow = Flow(0, 0, 2, 100, 80, (0, 1, 2))
    flow_set = FlowSet([flow])
    schedule = Schedule(3, 100, 1)
    schedule.add(request(0, 1, hop=0, attempt=0, deadline=79), 0, 0)
    schedule.add(request(0, 1, hop=0, attempt=1, deadline=79), 1, 0)
    schedule.add(request(1, 2, hop=1, attempt=0, deadline=79), 4, 0)
    schedule.add(request(1, 2, hop=1, attempt=1, deadline=79), 7, 0)
    return flow_set, schedule


class TestInstanceLatencies:
    def test_latency_measured_to_last_slot(self):
        flow_set, schedule = two_hop_flow_schedule()
        latencies = instance_latencies(schedule, flow_set)
        assert len(latencies) == 1
        latency = latencies[0]
        assert latency.finish_slot == 7
        assert latency.latency_slots == 8
        assert latency.latency_ms == 80.0
        assert latency.slack_slots == 72

    def test_multiple_instances(self):
        flow = Flow(0, 0, 1, 50, 50, (0, 1))
        flow_set = FlowSet([flow])
        schedule = Schedule(2, 100, 1)
        schedule.add(request(0, 1, instance=0, deadline=49), 3, 0)
        schedule.add(request(0, 1, instance=0, attempt=1, deadline=49), 4, 0)
        schedule.add(request(0, 1, instance=1, deadline=99, release=50), 50, 0)
        schedule.add(request(0, 1, instance=1, attempt=1, deadline=99,
                             release=50), 51, 0)
        latencies = instance_latencies(schedule, flow_set)
        assert [l.latency_slots for l in latencies] == [5, 2]

    def test_unknown_flow_rejected(self):
        _, schedule = two_hop_flow_schedule()
        with pytest.raises(ValueError):
            instance_latencies(schedule, FlowSet([]))


class TestLatencySummary:
    def test_summary_values(self):
        latencies = [InstanceLatency(0, i, 0, l - 1, l, 100)
                     for i, l in enumerate([2, 4, 6, 8, 10])]
        summary = LatencySummary.from_latencies(latencies)
        assert summary.mean == 6.0
        assert summary.median == 6.0
        assert summary.maximum == 10
        assert summary.min_slack == 90
        assert summary.n == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencySummary.from_latencies([])


class TestLatencyOnRealSchedules:
    def test_reuse_compresses_latency(self, wustl):
        """Channel reuse's payoff: RC/RA finish instances no later than
        NR on the same heavy workload."""
        topology, _ = wustl
        network = prepare_network(topology, channels=(11, 12, 13, 14))
        rng = np.random.default_rng(4)
        flows = build_workload(network, 60, PeriodRange(-1, 1),
                               TrafficType.PEER_TO_PEER, rng)
        summaries = {}
        for policy in ("NR", "RA", "RC"):
            result = schedule_workload(network, flows, policy)
            if not result.schedulable:
                continue
            latencies = instance_latencies(result.schedule, flows)
            summaries[policy] = LatencySummary.from_latencies(latencies)
            # Everything respects the deadline by construction.
            assert summaries[policy].min_slack >= 0
        if "NR" in summaries and "RA" in summaries:
            assert summaries["RA"].mean <= summaries["NR"].mean + 1e-9
