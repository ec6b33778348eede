"""Tests for the observability layer (repro.obs) and its integrations."""

import collections
import contextlib
import json
import math

import pytest

from repro import obs
from repro.core.laxity import LaxityTable
from repro.core.nr import NoReusePolicy
from repro.core.ra import AggressiveReusePolicy
from repro.core.rc import (ConservativeReusePolicy, RHO_RESET_FLOW,
                           RHO_RESET_TRANSMISSION, stepwise_descent)
from repro.core.schedule import Schedule
from repro.core.scheduler import FixedPriorityScheduler
from repro.core.transmissions import RequestWindow, TransmissionRequest
from repro.flows.flow import Flow, FlowSet
from repro.io import (
    load_jsonl,
    load_metrics,
    save_jsonl,
    save_metrics,
    scheduling_result_to_dict,
)
from repro.network.graphs import ChannelReuseGraph, CommunicationGraph
from repro.obs.metrics import TIME_BUCKETS_S, Histogram, MetricsRegistry
from repro.obs.provenance import ProvenanceRecorder
from repro.obs import recorder as _obs
from repro.obs.recorder import NullRecorder, Recorder
from repro.obs.report import format_report
from repro.routing.traffic import TrafficType, assign_routes


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_get_or_create_and_increment(self):
        registry = MetricsRegistry()
        registry.inc("a.b")
        registry.inc("a.b", 2.5)
        assert registry.counter_value("a.b") == 3.5
        assert registry.counter_value("missing") == 0.0

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.inc("a", -1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("g", 4)
        registry.set_gauge("g", 2)
        assert registry.snapshot()["gauges"]["g"] == 2.0

    def test_histogram_bucketing(self):
        hist = Histogram("h", buckets=(1, 2, 5))
        for value in (0.5, 1.0, 1.5, 3, 10):
            hist.observe(value)
        # Upper bounds are inclusive: 1.0 lands in the <=1 bucket.
        assert hist.counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.min == 0.5 and hist.max == 10
        assert hist.mean() == pytest.approx(16.0 / 5)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2, 1))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1, 1))

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.set_gauge("g", 7)
        registry.observe("h", 3, buckets=(1, 4))
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["counters"]["c"] == 2
        assert snapshot["histograms"]["h"]["counts"] == [0, 1, 0]

    def test_merge_snapshot_adds_counters_and_bins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, n in ((a, 1), (b, 2)):
            registry.inc("c", n)
            registry.observe("h", n, buckets=(1, 4))
            registry.set_gauge("g", n)
        a.merge_snapshot(b.snapshot())
        merged = a.snapshot()
        assert merged["counters"]["c"] == 3
        assert merged["histograms"]["h"]["counts"] == [1, 1, 0]
        assert merged["histograms"]["h"]["count"] == 2
        assert merged["histograms"]["h"]["min"] == 1
        assert merged["histograms"]["h"]["max"] == 2
        assert merged["gauges"]["g"] == 2  # last write wins

    def test_merge_rejects_bucket_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("h", 1, buckets=(1, 2))
        b.observe("h", 1, buckets=(1, 3))
        with pytest.raises(ValueError) as excinfo:
            a.merge_snapshot(b.snapshot())
        # The error names the metric and both bucket-bound lists.
        message = str(excinfo.value)
        assert "'h'" in message
        assert "[1.0, 2.0]" in message and "[1.0, 3.0]" in message
        # A failed merge leaves the target histogram untouched.
        assert a.snapshot()["histograms"]["h"]["counts"] == [1, 0, 0]
        assert a.snapshot()["histograms"]["h"]["count"] == 1

    def test_merge_rejects_bin_count_mismatch(self):
        a = MetricsRegistry()
        a.observe("h", 1, buckets=(1, 2))
        bad = {"histograms": {"h": {
            "buckets": [1, 2], "counts": [0, 0], "count": 0,
            "sum": 0.0, "min": None, "max": None}}}
        with pytest.raises(ValueError) as excinfo:
            a.merge_snapshot(bad)
        assert "'h'" in str(excinfo.value)
        assert a.snapshot()["histograms"]["h"]["counts"] == [1, 0, 0]

    def test_merge_snapshots_static(self):
        snaps = []
        for n in (1, 2, 4):
            registry = MetricsRegistry()
            registry.inc("c", n)
            snaps.append(registry.snapshot())
        assert MetricsRegistry.merge_snapshots(snaps)["counters"]["c"] == 7

    def test_reset(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}


# ----------------------------------------------------------------------
# Recorder runtime
# ----------------------------------------------------------------------

class TestRecorderRuntime:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()
        assert isinstance(_obs.RECORDER, NullRecorder)

    def test_null_recorder_discards_everything(self):
        recorder = NullRecorder()
        recorder.count("c")
        recorder.observe("h", 1)
        recorder.set_gauge("g", 1)
        recorder.sample("s", 0.0, 1.0)
        assert recorder.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}

    def test_recording_scopes_and_restores(self):
        assert not obs.is_enabled()
        with obs.recording() as recorder:
            assert obs.is_enabled()
            assert _obs.RECORDER is recorder
            recorder.count("x")
        assert not obs.is_enabled()
        assert isinstance(_obs.RECORDER, NullRecorder)

    def test_recording_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.recording():
                raise RuntimeError("boom")
        assert not obs.is_enabled()

    def test_nested_recording_restores_outer(self):
        with obs.recording() as outer:
            inner_rec = Recorder()
            with obs.recording(inner_rec):
                assert _obs.RECORDER is inner_rec
            assert _obs.RECORDER is outer

    # stage() is the one timing scope, in its three recorder states.

    def test_stage_records_nothing_when_disabled(self):
        with obs.stage("unit.noop") as span:
            assert span is None
        assert _obs.RECORDER.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}

    def test_stage_observes_histogram_without_span_layer(self):
        with obs.recording() as recorder:
            with obs.stage("unit.test") as span:
                assert span is None
        histograms = recorder.snapshot()["histograms"]
        assert list(histograms) == ["span.unit.test.seconds"]
        assert histograms["span.unit.test.seconds"]["count"] == 1
        assert recorder.snapshot()["counters"] == {}

    def test_stage_records_one_child_span_and_one_observation(self):
        spans = obs.SpanRecorder(threshold_ms=0.0, process="t")
        with obs.recording(obs.Recorder(spans=spans)) as recorder:
            parent = spans.start("work")
            with obs.activate(parent):
                with obs.stage("unit.child", point=3) as child:
                    assert obs.current_span() is child
            spans.close_trace(parent.trace_id, parent.end())
        children = [record for record in spans.to_records()
                    if record.get("parent") == parent.span_id]
        assert [c["name"] for c in children] == ["unit.child"]
        assert children[0]["attrs"] == {"point": 3}
        histograms = recorder.snapshot()["histograms"]
        assert histograms["span.unit.child.seconds"]["count"] == 1


# ----------------------------------------------------------------------
# Instrumented scheduler integration
# ----------------------------------------------------------------------

def _routed(topology, flows):
    communication = CommunicationGraph.from_topology(topology, 0.9)
    return assign_routes(FlowSet(flows).deadline_monotonic(),
                         communication, TrafficType.PEER_TO_PEER, [])


def _routed_line_flows(topology, num_flows=3, period=64):
    return _routed(topology, [Flow(i, 0, 5, period, period)
                              for i in range(num_flows)])


def _scheduler(topology, policy, num_offsets=2):
    reuse = ChannelReuseGraph.from_topology(topology)
    return FixedPriorityScheduler(
        num_nodes=topology.num_nodes, num_offsets=num_offsets,
        reuse_graph=reuse, policy=policy)


def _known_answer(topology, flows, policy=ConservativeReusePolicy,
                  **options):
    """Schedule ``flows`` with ``policy(**options)`` (RC by default) on
    one channel with every recording on — RC under both descents, which
    must agree exactly.  Returns the run's outcome, counters,
    ``rc.fallback_rho``, ``(slot, rho, laxity)`` per Eq. 1 evaluation
    and ``(from, to)`` per ρ step, both read from the provenance
    records, and the records themselves."""
    routed = _routed(topology, flows)
    scopes = ((stepwise_descent, contextlib.nullcontext)
              if policy is ConservativeReusePolicy
              else (contextlib.nullcontext,))
    runs = []
    for scope in scopes:
        prov = ProvenanceRecorder()
        with scope(), \
                obs.recording(Recorder(provenance=prov)) as recorder:
            result = _scheduler(topology, policy(**options),
                                num_offsets=1).run(routed)
        snapshot = recorder.snapshot()
        decisions = prov.decisions()
        runs.append({
            "schedulable": result.schedulable,
            "failed_flow": result.failed_flow,
            "cells": [(e.slot, e.offset) for e in result.schedule.entries],
            "counters": snapshot["counters"],
            "result_counters": result.counters,
            "rho_hist": snapshot["histograms"].get("rc.fallback_rho"),
            "laxity": [(e["slot"], e["rho"], e["laxity"])
                       for d in decisions for e in d["laxity"]],
            "fallbacks": [(e["from"], e["to"])
                          for d in decisions for e in d["descent"]],
            "provenance": prov.records(),
        })
    assert all(run == runs[0] for run in runs)
    return runs[0]


class TestSchedulerIntegration:
    def test_result_counters_populated_when_recording(self, line_topology):
        flows = _routed_line_flows(line_topology)
        with obs.recording() as recorder:
            result = _scheduler(line_topology, NoReusePolicy()).run(flows)
        assert result.schedulable
        assert result.counters["placements"] == len(result.schedule.entries)
        assert result.counters["placements_tried"] >= \
            result.counters["placements"]
        assert result.counters["slots_scanned"] > 0
        counters = recorder.snapshot()["counters"]
        assert counters["policy.NR.placements"] == \
            result.counters["placements"]
        assert counters["policy.NR.schedulable"] == 1

    def test_result_counters_json_serializable_through_io(
            self, line_topology, tmp_path):
        flows = _routed_line_flows(line_topology)
        with obs.recording():
            result = _scheduler(line_topology, NoReusePolicy()).run(flows)
        payload = scheduling_result_to_dict(result)
        text = json.dumps(payload)  # must not raise
        restored = json.loads(text)
        assert restored["counters"] == result.counters
        assert restored["policy"] == "NR"
        assert len(restored["schedule"]["entries"]) == \
            result.counters["placements"]

    def test_rc_fallback_events_and_counters(self, line_topology):
        """Known answers for RC's ρ descent, derived by hand.

        Six-node line, one channel: hop distance is the index
        difference, so λ_R = 5.  Flow 0 (0→1) goes first and takes
        slots 0 and 1 at ρ = ∞ (laxity (1 − 0) − 0 − 1 = 0, then
        1 − 1 = 0).  Flow 1 (4→5) may share a cell with it only at
        ρ ≤ min(hops[4, 1], hops[0, 5]) = min(3, 5) = 3.
        """
        # Case A: deadline 2, so flow 1 has slots 0..1, whose only
        # channel flow 0 holds.  Each attempt steps ∞ → 5 → 4 → 3 and
        # lands at ρ = 3 with laxity 0: attempt 0 scans 2 + 2 + 2 + 1
        # slots ((1 − 0) − 0 − 1 = 0), attempt 1 (earliest 1)
        # 1 + 1 + 1 + 1 (1 − 1 = 0).  With flow 0's 1 + 1 that is 13
        # slots in 2 + 4 + 4 = 10 probes.
        run = _known_answer(line_topology, [Flow(0, 0, 1, 4, 2),
                                            Flow(1, 4, 5, 4, 2)])
        assert run["schedulable"]
        assert run["cells"] == [(0, 0), (1, 0), (0, 0), (1, 0)]
        assert run["counters"]["scheduler.slots_scanned"] == 13
        assert run["counters"]["scheduler.placements_tried"] == 10
        assert run["counters"]["scheduler.reuse_placements"] == 2
        assert run["counters"].get("rc.laxity_triggers", 0) == 0
        assert run["counters"]["rc.reuse_fallbacks"] == 6
        assert run["result_counters"]["reuse_fallbacks"] == 6
        assert (run["rho_hist"]["count"], run["rho_hist"]["min"],
                run["rho_hist"]["max"]) == (2, 3, 3)
        assert run["laxity"] == [(0, None, 0), (1, None, 0),
                                 (0, 3, 0), (1, 3, 0)]
        assert run["fallbacks"] == [(None, 5), (5, 4), (4, 3)] * 2

        # Case B: deadline 3 opens slot 2.  Attempt 0 finds it free at
        # ∞, but (2 − 2) − 0 − 1 = −1 leaves attempt 1 no room; ρ = 5
        # and 4 land on the same empty cell with the same −1 (one
        # trigger); ρ = 3 reaches slot 0 with (2 − 0) − 0 − 1 = 1.
        # Attempt 1 (earliest 1) then takes slot 2 at ∞, laxity 0.
        run = _known_answer(line_topology, [Flow(0, 0, 1, 4, 2),
                                            Flow(1, 4, 5, 4, 3)])
        assert run["schedulable"]
        assert run["cells"] == [(0, 0), (1, 0), (0, 0), (2, 0)]
        assert run["laxity"] == [(0, None, 0), (1, None, 0),
                                 (2, None, -1), (2, 5, -1), (2, 4, -1),
                                 (0, 3, 1), (2, None, 0)]
        assert run["counters"]["rc.laxity_triggers"] == 1
        assert run["result_counters"]["laxity_triggers"] == 1
        assert run["counters"]["rc.reuse_fallbacks"] == 3
        assert run["counters"]["scheduler.slots_scanned"] == 2 + 10 + 2
        assert run["counters"]["scheduler.placements_tried"] == 2 + 4 + 1
        assert run["rho_hist"]["count"] == 1
        assert run["rho_hist"]["sum"] == 3

    @pytest.mark.parametrize("policy", [NoReusePolicy,
                                        AggressiveReusePolicy,
                                        ConservativeReusePolicy])
    @pytest.mark.parametrize("fixture, flows, reused", [
        # Flow 1 (4→5, slots 0..1) fits only by sharing both of flow
        # 0's (0→1) cells, at ρ <= min(hops[4, 1], hops[0, 5]): 3 on the
        # line, where NR cannot share at all.  On the ring the wrap edge
        # makes hops[0, 5] = 1 < ρ_t, so no policy schedules it.
        ("line_topology", [Flow(0, 0, 1, 4, 2), Flow(1, 4, 5, 4, 2)],
         {"NR": None, "RA": 2, "RC": 2}),
        ("ring_topology", [Flow(0, 0, 1, 4, 2), Flow(1, 4, 5, 4, 2)],
         {"NR": None, "RA": None, "RC": None}),
        # Star: every leaf→hub→leaf hop touches the hub, so the twelve
        # transmissions take twelve slots and nothing is shared.
        ("star_topology", [Flow(0, 1, 2, 16, 16), Flow(1, 3, 4, 16, 16),
                           Flow(2, 5, 1, 16, 16)],
         {"NR": 0, "RA": 0, "RC": 0}),
    ])
    def test_reuse_decisions_on_canonical_topologies(
            self, request, fixture, flows, reused, policy):
        """Schedulable or not, and how many cells the schedule shares
        (None: unschedulable), per policy."""
        run = _known_answer(request.getfixturevalue(fixture), flows,
                            policy)
        expected = reused[policy.name]
        assert run["schedulable"] == (expected is not None)
        if expected is not None:
            shared = collections.Counter(run["cells"])
            assert sum(count > 1 for count in shared.values()) == expected

    @pytest.mark.parametrize("fixture, flow, fallbacks", [
        # Grid (λ_R = 4): hops[7, 1] = 2, so each attempt of 7→8 steps
        # ∞ → 4 → 3 → 2 before it may share flow 0's cell ...
        ("grid_topology", Flow(1, 7, 8, 4, 2), [(None, 4), (4, 3), (3, 2)]),
        # ... while 8→5 (hops[8, 1] = hops[0, 5] = 3) stops at 3.
        ("grid_topology", Flow(1, 8, 5, 4, 2), [(None, 4), (4, 3)]),
        # Ring (λ_R = 3): 4→3 shares at λ_R itself (hops 3 both ways).
        ("ring_topology", Flow(1, 4, 3, 4, 2), [(None, 3)]),
    ])
    def test_rc_descent_on_canonical_topologies(self, request, fixture,
                                                flow, fallbacks):
        """RC's ρ descent by hand: flow 0 (0→1) holds slots 0 and 1 on
        the one channel, and both attempts of ``flow`` walk the same
        steps down to the largest ρ at which they may share."""
        run = _known_answer(request.getfixturevalue(fixture),
                            [Flow(0, 0, 1, 4, 2), flow])
        assert run["schedulable"]
        assert run["cells"] == [(0, 0), (1, 0), (0, 0), (1, 0)]
        assert run["fallbacks"] == fallbacks * 2
        assert run["counters"]["rc.reuse_fallbacks"] == 2 * len(fallbacks)
        landed = fallbacks[-1][1]
        assert (run["rho_hist"]["count"], run["rho_hist"]["sum"]) == (
            2, 2 * landed)

    @pytest.mark.parametrize("rho_reset",
                             [RHO_RESET_TRANSMISSION, RHO_RESET_FLOW])
    def test_rc_degenerate_diameter_breaks_without_fallback(
            self, topology_builder, rho_reset):
        """λ_R below ρ_t: the descent stops after its ∞ probe.

        Four-node line (λ_R = 3), ρ_t = 4, one channel.  Flow 0 (0→1)
        takes slots 0 and 1.  Flow 1 (2→3, slots 0..2) finds slot 2 at
        ∞ with laxity (2 − 2) − 0 − 1 = −1, cannot descend and keeps
        it; its second attempt then has an empty window (earliest 3)
        and the flow is rejected.  The flow-scoped reset persists
        max(λ_R, ρ_t) = 4, so that last probe runs at ρ = 4, not ∞.
        """
        line = topology_builder(4, [(0, 1), (1, 2), (2, 3)])
        run = _known_answer(line, [Flow(0, 0, 1, 4, 2),
                                   Flow(1, 2, 3, 4, 3)],
                            rho_t=4, rho_reset=rho_reset)
        assert not run["schedulable"] and run["failed_flow"] == 1
        assert run["cells"] == [(0, 0), (1, 0), (2, 0)]
        assert run["laxity"] == [(0, None, 0), (1, None, 0),
                                 (2, None, -1)]
        assert run["fallbacks"] == []
        assert "rc.reuse_fallbacks" not in run["counters"]
        assert run["rho_hist"] is None
        assert run["counters"]["rc.laxity_triggers"] == 1
        assert run["counters"]["scheduler.placements_tried"] == 4
        assert run["counters"]["scheduler.slots_scanned"] == 2 + 3
        last = run["provenance"][-2]["probes"]
        assert [probe["rho"] for probe in last] == (
            [None] if rho_reset == RHO_RESET_TRANSMISSION else [4])
        assert last[0]["exhausted"] == "window"

    def test_rc_empty_window_probes_every_rho(self, line_topology):
        """A direct ``place`` whose window is empty (earliest past the
        deadline, as the reuse barrier's retry can ask) probes ∞, 5, 4,
        3, 2 and finds nothing, identically on both descents.  ρ then
        persists as ∞ per transmission and as ρ_t = 2 per flow, where
        the next probe starts."""
        reuse = ChannelReuseGraph.from_topology(line_topology)
        requests = [TransmissionRequest(1, 0, 0, attempt, 4, 5, 0, 1)
                    for attempt in range(2)]
        remaining = RequestWindow(LaxityTable(requests), 1)
        for rho_reset, persisted in ((RHO_RESET_TRANSMISSION, math.inf),
                                     (RHO_RESET_FLOW, 2)):
            runs = {}
            for descent, recording in (("stepwise", True),
                                       ("fused", True),
                                       ("fused", False)):
                policy = ConservativeReusePolicy(rho_reset=rho_reset)
                prov = ProvenanceRecorder()
                scope = (obs.recording(Recorder(provenance=prov))
                         if recording else contextlib.nullcontext())
                placed, rhos = [], []
                with (stepwise_descent() if descent == "stepwise"
                      else contextlib.nullcontext()), scope:
                    for _ in range(2):
                        prov.begin_decision("RC", requests[0], 2)
                        placed.append(policy.place(
                            Schedule(6, 4, 1), reuse, requests[0], 2,
                            remaining))
                        prov.end_decision(None)
                        rhos.append(policy._rho)
                runs[descent, recording] = (placed, rhos, prov.records())
            assert runs["stepwise", True] == runs["fused", True]
            placed, rhos, records = runs["fused", True]
            assert runs["fused", False][:2] == (placed, rhos)
            assert placed == [None, None]
            assert rhos == [persisted, persisted]
            first, second = records[0], records[1]
            assert [p["rho"] for p in first["probes"]] == [None, 5, 4, 3, 2]
            assert all(p["result"] is None and p["chain"] == []
                       for p in first["probes"])
            assert len(first["descent"]) == 4
            assert [p["rho"] for p in second["probes"]] == (
                [None, 5, 4, 3, 2] if rho_reset == RHO_RESET_TRANSMISSION
                else [2])

    def test_per_policy_counters(self, line_topology):
        flows = _routed_line_flows(line_topology)
        with obs.recording() as recorder:
            _scheduler(line_topology, NoReusePolicy()).run(flows)
        counters = recorder.snapshot()["counters"]
        assert counters["policy.NR.runs"] == 1
        assert counters["policy.NR.schedulable"] == 1
        assert counters["policy.NR.place_calls"] == \
            counters["policy.NR.placements"]

    def test_disabled_run_adds_no_events_and_empty_counters(
            self, line_topology):
        assert not obs.is_enabled()
        flows = _routed_line_flows(line_topology)
        result = _scheduler(line_topology, NoReusePolicy()).run(flows)
        assert result.schedulable
        # Benchmark-style guarantee: the NullRecorder path records
        # nothing at all.
        assert result.counters == {}
        assert _obs.RECORDER.snapshot()["counters"] == {}

    def test_enabled_and_disabled_runs_agree_on_schedule(self, grid_topology):
        flows = _routed_line_flows(grid_topology, num_flows=2)
        baseline = _scheduler(grid_topology, ConservativeReusePolicy(),
                              num_offsets=1).run(flows)
        with obs.recording():
            observed = _scheduler(grid_topology, ConservativeReusePolicy(),
                                  num_offsets=1).run(flows)
        assert observed.schedulable == baseline.schedulable
        assert [(e.slot, e.offset) for e in observed.schedule.entries] == \
            [(e.slot, e.offset) for e in baseline.schedule.entries]


# ----------------------------------------------------------------------
# Metrics persistence + report rendering
# ----------------------------------------------------------------------

class TestPersistenceAndReport:
    def test_metrics_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("scheduler.placements", 12)
        registry.observe("rc.fallback_rho", 2, buckets=(1, 2, 3))
        path = tmp_path / "metrics.json"
        save_metrics(registry.snapshot(), path)
        assert load_metrics(path) == registry.snapshot()

    def test_jsonl_roundtrip_skips_blank_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        save_jsonl([{"a": 1}, {"b": [1, 2]}], path)
        path.write_text(path.read_text() + "\n\n")
        assert load_jsonl(path) == [{"a": 1}, {"b": [1, 2]}]

    def test_format_report_sections(self):
        registry = MetricsRegistry()
        registry.inc("scheduler.slots_scanned", 100)
        registry.inc("policy.RC.runs")
        registry.inc("policy.RC.schedulable")
        registry.inc("policy.RC.placements", 40)
        registry.inc("sim.attempts", 10)
        registry.inc("sim.successes", 9)
        registry.inc("detection.ks_tests", 4)
        registry.inc("detection.verdict.reject", 2)
        for _ in range(2):
            registry.observe("span.schedule.RC.seconds", 0.25,
                             TIME_BUCKETS_S)
        registry.observe("rc.fallback_rho", 2, buckets=(1, 2, 3))
        text = format_report(registry.snapshot())
        assert "slots scanned" in text
        assert "RC" in text and "40" in text
        assert "attempt success rate" in text and "0.9" in text
        assert "verdict reject" in text
        assert "wall time per stage" in text
        assert "schedule.RC" in text

    def test_format_report_empty(self):
        assert "empty" in format_report(
            {"counters": {}, "gauges": {}, "histograms": {}})
