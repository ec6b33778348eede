"""The request plan: one expansion per flow set, shared by every run.

:func:`repro.core.transmissions.request_plan` memoizes a flow set's
expanded requests on the flow set.  Every run over a flow set must read
exactly what a run over a fresh, equal flow set reads, and the auditor's
completeness check must stay independent of the memo.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import transmissions
from repro.core.rc import ConservativeReusePolicy
from repro.core.reschedule import reschedule_without_reuse_on
from repro.core.scheduler import FixedPriorityScheduler
from repro.core.transmissions import (
    ATTEMPTS_PER_LINK,
    PlannedFlow,
    request_plan,
)
from repro.experiments.common import (
    build_workload,
    make_policy,
    prepare_network,
    schedule_workload,
)
from repro.flows.flow import Flow, FlowSet
from repro.flows.generator import PeriodRange
from repro.routing.traffic import TrafficType
from repro.testbeds.layout import FloorPlan
from repro.testbeds.synth import make_testbed
from repro.validate import audit_schedule

from test_flows import total_instances

POLICIES = ("NR", "RA", "RC")


@pytest.fixture(scope="module")
def network():
    """A small synth network where RA and RC both share cells."""
    topology, _ = make_testbed(
        16, FloorPlan(num_floors=1, floor_width_m=50, floor_depth_m=30),
        12, name="plan-fixture")
    return prepare_network(topology, num_channels=3)


def workload(network) -> FlowSet:
    """A newly built flow set; every call returns an equal one."""
    return build_workload(network, 6, PeriodRange(-2, -1),
                          TrafficType.PEER_TO_PEER,
                          np.random.default_rng(12))


@pytest.fixture
def expansions(monkeypatch):
    """Counts :func:`expand_instance` calls made through the plan."""
    calls = []
    original = transmissions.expand_instance

    def counted(instance, attempts_per_link=ATTEMPTS_PER_LINK):
        calls.append((instance.flow.flow_id, instance.instance))
        return original(instance, attempts_per_link)

    monkeypatch.setattr(transmissions, "expand_instance", counted)
    return calls


def outcome(result):
    return (result.schedulable, result.failed_flow, result.failed_instance,
            len(result.schedule), result.schedule.canonical_hash())


def rc_run(network, flow_set, attempts):
    return FixedPriorityScheduler(
        network.topology.num_nodes, network.num_channels, network.reuse,
        ConservativeReusePolicy(), attempts_per_link=attempts).run(flow_set)


def test_policies_share_one_expansion(network, expansions):
    flow_set = workload(network)
    shared = {policy: schedule_workload(network, flow_set, policy)
              for policy in POLICIES}
    assert len(expansions) == total_instances(flow_set)
    assert sorted(expansions) == sorted(set(expansions))
    # RA and RC reuse here, so the three schedules differ.
    assert shared["RA"].schedule.num_reused_cells() > 0
    assert shared["RC"].schedule.num_reused_cells() > 0
    fresh_set = workload(network)
    assert fresh_set is not flow_set and fresh_set.flows == flow_set.flows
    for policy in POLICIES:
        fresh = schedule_workload(network, workload(network), policy)
        assert outcome(shared[policy]) == outcome(fresh), policy


def test_attempt_counts_keep_separate_plans(network, expansions):
    flow_set = workload(network)
    for attempts in (1, 2, 1):
        shared = rc_run(network, flow_set, attempts)
        fresh = rc_run(network, workload(network), attempts)
        assert outcome(shared) == outcome(fresh), attempts
    per_set = total_instances(flow_set)
    # Shared set: one plan per attempt count; fresh sets: one each run.
    assert len(expansions) == 2 * per_set + 3 * per_set
    assert len(request_plan(flow_set, 1)[0].instances[0].requests) * 2 \
        == len(request_plan(flow_set, 2)[0].instances[0].requests)


def test_rebuild_after_compile_matches_a_fresh_rebuild(network, expansions):
    flow_set = workload(network)
    compiled = schedule_workload(network, flow_set, "RA")
    victims = {entry.request.link
               for _, _, cell in compiled.schedule.occupied_cells()
               if len(cell) > 1 for entry in cell}
    assert victims
    compiled_calls = len(expansions)

    def rebuild(flows):
        return reschedule_without_reuse_on(
            flows, network.topology.num_nodes, network.num_channels,
            network.reuse, make_policy("RA"), victims)

    shared = rebuild(flow_set)
    assert len(expansions) == compiled_calls   # the compile's plan
    assert outcome(shared) == outcome(rebuild(workload(network)))
    assert shared.schedule.canonical_hash() \
        != compiled.schedule.canonical_hash()


@pytest.mark.parametrize("policy", POLICIES)
def test_wired_only_flow_places_nothing(line_topology, policy):
    network = prepare_network(line_topology)
    wired = Flow(0, 2, 3, 8, 8, route=(2, 3), wire_after=0)
    flow_set = FlowSet([wired])
    (planned,) = request_plan(flow_set)
    assert planned.flow == wired
    assert [(i.instance, i.release_slot, i.requests)
            for i in planned.instances] == [(0, 0, ())]
    result = schedule_workload(network, flow_set, policy)
    assert result.schedulable
    assert len(result.schedule) == 0
    report = audit_schedule(result.schedule, network.reuse, 2,
                            flow_set=flow_set, expect_complete=True)
    assert report.ok, report.violations


def test_auditor_does_not_read_the_plan(network):
    flow_set = workload(network)
    plan = request_plan(flow_set)
    flow, instances = plan[0]
    first = instances[0]
    dropped = first.requests[-1]
    # Corrupt the memo: the first release loses its last request.
    flow_set._request_plans[ATTEMPTS_PER_LINK] = (PlannedFlow(
        flow, (first._replace(requests=first.requests[:-1]),)
        + instances[1:]),) + plan[1:]
    result = schedule_workload(network, flow_set, "NR")
    assert result.schedulable
    assert dropped not in {e.request for e in result.schedule.entries}
    report = audit_schedule(result.schedule, network.reuse, 2,
                            flow_set=flow_set, expect_complete=True)
    assert [(v.kind, v.message) for v in report.violations] == [
        ("completeness", f"{dropped}: missing 1 placement(s)")]
