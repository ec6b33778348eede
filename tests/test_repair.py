"""Tests for the incremental repair scheduler (repro.core.repair).

The fixture workload is the benchmark's 30-flow Indriya case — big
enough for real channel reuse (so victim blasts are non-trivial) while
scheduling in ~100 ms.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ra import DEFAULT_RHO_T
from repro.core.rc import stepwise_descent
from repro.core.repair import (
    ChangeSet,
    ChannelChange,
    REASON_BARRED,
    REASON_PRECEDENCE,
    compute_blast_radius,
    repair_schedule,
    smallest_reused_link,
)
from repro.experiments.common import (
    build_workload,
    prepare_network,
    schedule_workload,
)
from repro.flows.generator import PeriodRange
from repro.obs import recording
from repro.obs.explain import explain_from_provenance, format_blast
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.recorder import Recorder
from repro.routing.traffic import TrafficType
from repro.validate.audit import audit_schedule


@pytest.fixture(scope="module")
def bench_case(indriya):
    """(network, flow_set, RC scheduling result) for 30 Indriya flows."""
    topology, _ = indriya
    network = prepare_network(topology, num_channels=5)
    flow_set = build_workload(network, 30, PeriodRange(0, 4),
                              TrafficType.CENTRALIZED,
                              np.random.default_rng(1))
    result = schedule_workload(network, flow_set, "RC")
    assert result.schedulable
    assert result.schedule.num_reused_cells() > 0
    return network, flow_set, result


def entries_signature(schedule):
    return [(e.request.flow_id, e.request.instance, e.request.hop_index,
             e.request.attempt, e.slot, e.offset)
            for e in schedule.entries]


# ----------------------------------------------------------------------
# Schedule.evict / Schedule.clone bookkeeping
# ----------------------------------------------------------------------

class TestEvict:
    def test_evicted_bookkeeping_passes_audit(self, bench_case):
        network, flow_set, result = bench_case
        rng = np.random.default_rng(7)
        indices = sorted(rng.choice(len(result.schedule.entries), size=50,
                                    replace=False).tolist())
        clone = result.schedule.clone()
        evicted = clone.evict(indices)
        assert len(evicted) == 50
        assert len(clone) == len(result.schedule) - 50
        # The auditor cross-checks busy matrix, occupancy planes and used
        # masks against a full recompute — the strongest available
        # eviction oracle.
        report = audit_schedule(clone, network.reuse, DEFAULT_RHO_T,
                                flow_set=flow_set, expect_complete=False)
        assert report.ok, report.summary()

    def test_clone_leaves_original_untouched(self, bench_case):
        network, flow_set, result = bench_case
        before = entries_signature(result.schedule)
        clone = result.schedule.clone()
        clone.evict(list(range(20)))
        assert entries_signature(result.schedule) == before
        report = audit_schedule(result.schedule, network.reuse,
                                DEFAULT_RHO_T, flow_set=flow_set)
        assert report.ok, report.summary()

    def test_evict_validates_indices(self, bench_case):
        _, _, result = bench_case
        clone = result.schedule.clone()
        with pytest.raises(IndexError):
            clone.evict([len(clone.entries)])
        assert clone.evict([]) == []


# ----------------------------------------------------------------------
# Blast-radius computation
# ----------------------------------------------------------------------

class TestBlastRadius:
    def test_victim_blast_is_precedence_suffix(self, bench_case):
        network, _, result = bench_case
        schedule = result.schedule
        victim = smallest_reused_link(schedule)
        blast = compute_blast_radius(
            schedule, ChangeSet(victims=(victim,)), DEFAULT_RHO_T,
            reuse_graph=network.reuse)
        assert blast.seeds > 0
        assert set(blast.reasons.values()) <= {REASON_BARRED,
                                               REASON_PRECEDENCE}
        # Closure property: within each (flow, instance), the evicted
        # transmissions are a suffix in (hop, attempt) order, so every
        # survivor's precedence bound stays valid as placed.
        doomed = set(blast.indices)
        first_hit = {}
        for index in blast.indices:
            request = schedule.entries[index].request
            key = (request.flow_id, request.instance)
            rank = (request.hop_index, request.attempt)
            first_hit[key] = min(first_hit.get(key, rank), rank)
        for index, entry in enumerate(schedule.entries):
            request = entry.request
            key = (request.flow_id, request.instance)
            if key not in first_hit:
                continue
            later = (request.hop_index, request.attempt) >= first_hit[key]
            assert (index in doomed) == later

    def test_recheck_without_graph_rejected(self, bench_case):
        _, _, result = bench_case
        with pytest.raises(ValueError, match="reuse graph"):
            compute_blast_radius(result.schedule, ChangeSet(rho_t=3),
                                 3.0)


# ----------------------------------------------------------------------
# repair_schedule: the three change kinds
# ----------------------------------------------------------------------

class TestRepairSchedule:
    def test_single_victim_repair_audits_clean(self, bench_case):
        network, flow_set, result = bench_case
        victim = smallest_reused_link(result.schedule)
        before = entries_signature(result.schedule)
        outcome = repair_schedule(
            result.schedule, flow_set, network.reuse,
            ChangeSet(victims=(victim,)), rho_t=DEFAULT_RHO_T)
        assert outcome.schedulable
        assert outcome.evicted > 0
        assert entries_signature(result.schedule) == before
        report = audit_schedule(outcome.schedule, network.reuse,
                                DEFAULT_RHO_T, flow_set=flow_set,
                                expect_complete=True,
                                barred_links={victim})
        assert report.ok, report.summary()

    def test_repair_kernel_equivalence(self, bench_case):
        """Repair ignores how its input was compiled: the fused
        descent's schedule and the stepwise oracle's repair to the same
        product."""
        network, flow_set, result = bench_case
        with stepwise_descent():
            oracle = schedule_workload(network, flow_set, "RC")
        victim = smallest_reused_link(result.schedule)
        change = ChangeSet(victims=(victim,))
        fused, stepwise = (
            repair_schedule(compiled.schedule, flow_set, network.reuse,
                            change, rho_t=DEFAULT_RHO_T)
            for compiled in (result, oracle))
        assert fused.schedulable == stepwise.schedulable
        assert (entries_signature(fused.schedule)
                == entries_signature(stepwise.schedule))

    def test_rho_escalation_repair(self, bench_case):
        network, flow_set, result = bench_case
        escalated = DEFAULT_RHO_T + 1
        outcome = repair_schedule(
            result.schedule, flow_set, network.reuse,
            ChangeSet(rho_t=escalated), rho_t=escalated)
        assert outcome.schedulable
        report = audit_schedule(outcome.schedule, network.reuse,
                                float(escalated), flow_set=flow_set,
                                expect_complete=True)
        assert report.ok, report.summary()

    def test_channel_blacklist_repair(self, bench_case, indriya):
        network, flow_set, result = bench_case
        topology, _ = indriya
        narrowed = prepare_network(topology, num_channels=4)
        # 5-channel map -> first-4 map: offsets 0-3 survive in place.
        change = ChangeSet(channel=ChannelChange(
            reuse_graph=narrowed.reuse, num_offsets=4,
            offset_map=(0, 1, 2, 3, None)))
        outcome = repair_schedule(
            result.schedule, flow_set, network.reuse, change,
            rho_t=DEFAULT_RHO_T)
        assert outcome.schedulable
        assert outcome.schedule.num_offsets == 4
        assert all(e.offset < 4 for e in outcome.schedule.entries)
        report = audit_schedule(outcome.schedule, narrowed.reuse,
                                DEFAULT_RHO_T, flow_set=flow_set,
                                expect_complete=True)
        assert report.ok, report.summary()

    def test_placement_failure_reported(self, bench_case, monkeypatch):
        network, flow_set, result = bench_case
        victim = smallest_reused_link(result.schedule)
        import repro.core.repair as repair_mod
        monkeypatch.setattr(repair_mod, "find_slot",
                            lambda *args, **kwargs: None)
        outcome = repair_schedule(
            result.schedule, flow_set, network.reuse,
            ChangeSet(victims=(victim,)), rho_t=DEFAULT_RHO_T)
        assert not outcome.schedulable
        assert outcome.failed_request is not None


# ----------------------------------------------------------------------
# Provenance: blast records and their explain rendering
# ----------------------------------------------------------------------

class TestRepairProvenance:
    def test_blast_and_replacement_recorded(self, bench_case):
        network, flow_set, result = bench_case
        victim = smallest_reused_link(result.schedule)
        prov = ProvenanceRecorder()
        with recording(Recorder(provenance=prov)):
            outcome = repair_schedule(
                result.schedule, flow_set, network.reuse,
                ChangeSet(victims=(victim,)), rho_t=DEFAULT_RHO_T)
        assert outcome.schedulable
        records = prov.records()
        blasts = [r for r in records if r.get("kind") == "blast"]
        assert len(blasts) == 1
        assert len(blasts[0]["evicted"]) == outcome.evicted
        assert any(item["reason"] == REASON_BARRED
                   for item in blasts[0]["evicted"])
        repairs = [r for r in records if r.get("kind") == "decision"
                   and r.get("policy") == "RC+repair"]
        assert len(repairs) == outcome.evicted

    def test_explain_surfaces_evictions(self, bench_case):
        network, flow_set, result = bench_case
        victim = smallest_reused_link(result.schedule)
        prov = ProvenanceRecorder()
        with recording(Recorder(provenance=prov)):
            repair_schedule(
                result.schedule, flow_set, network.reuse,
                ChangeSet(victims=(victim,)), rho_t=DEFAULT_RHO_T)
        records = prov.records()
        blast = next(r for r in records if r.get("kind") == "blast")
        item = blast["evicted"][0]
        lines = explain_from_provenance(records, item["sender"],
                                        item["receiver"])
        assert any("evicted slot" in line for line in lines)
        # format_blast headers report the full blast even when filtered.
        header = format_blast(blast, [item])[0]
        assert f"{len(blast['evicted'])} cell(s) evicted" in header
