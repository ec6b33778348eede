"""Tests for decision provenance, the run ledger, and the query CLIs.

Covers the Section V-A constraint classifier on hand-picked cells of a
hand-built schedule, the :class:`ProvenanceRecorder` lifecycle and its
bit-identity across RC's two descents, the append-only run ledger, and the
``explain`` / ``timeline`` / ``ledger`` commands end to end.
"""

import json
import math
import sys
from contextlib import nullcontext

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core.nr import NoReusePolicy
from repro.core.ra import AggressiveReusePolicy
from repro.core.rc import ConservativeReusePolicy, stepwise_descent
from repro.core.schedule import Schedule
from repro.core.scheduler import FixedPriorityScheduler
from repro.core.transmissions import TransmissionRequest
from repro.flows.flow import Flow, FlowSet
from repro.io import load_jsonl
from repro.network.graphs import ChannelReuseGraph, CommunicationGraph
from repro.obs.explain import explain_cell, explain_from_provenance
from repro.obs.ledger import (RunLedger, config_hash, diff_records,
                              environment_fingerprint, new_record)
from repro.obs.provenance import (ACCEPT, REASON_CHANNEL_BUSY,
                                  REASON_NODE_BUSY, REASON_REUSE_DISTANCE,
                                  ProvenanceRecorder, offset_verdicts,
                                  window_rejection_chain)
from repro.obs.recorder import Recorder
from repro.obs.timeline import parse_slot_range, render_timeline
from repro.routing.traffic import TrafficType, assign_routes


def _request(flow_id, hop, sender, receiver, release=0, deadline=15,
             instance=0, attempt=0):
    return TransmissionRequest(
        flow_id=flow_id, instance=instance, hop_index=hop, attempt=attempt,
        sender=sender, receiver=receiver, release_slot=release,
        deadline_slot=deadline)


@pytest.fixture
def line_fixture(line_topology):
    """A hand-built schedule on the 6-node line (hop dist = index diff).

    Slot 3 holds (0 -> 1) at offset 0 and (4 -> 5) at offset 1; every
    other slot is empty.  Cells of interest:

    * (1 -> 2) @ slot 3: node-busy (node 1 active in (0 -> 1));
    * (2 -> 3) @ slot 3, rho = inf: both offsets channel-busy;
    * (2 -> 3) @ slot 3, rho = 2: both offsets reuse-distance (min
      distance 1 to each occupant);
    * (2 -> 3) @ slot 3, rho = 1: feasible at both offsets.
    """
    reuse = ChannelReuseGraph.from_topology(line_topology)
    schedule = Schedule(num_nodes=6, num_slots=16, num_offsets=2)
    schedule.add(_request(0, 0, 0, 1), slot=3, offset=0)
    schedule.add(_request(1, 0, 4, 5), slot=3, offset=1)
    return schedule, reuse


# ----------------------------------------------------------------------
# Constraint classifier on hand-picked cells
# ----------------------------------------------------------------------

class TestConstraintClassifier:
    def test_node_busy_cell(self, line_fixture):
        schedule, reuse = line_fixture
        lines = explain_cell(schedule, reuse, 1, 2, 3, rho=2)
        text = "\n".join(lines)
        assert f"REJECTED ({REASON_NODE_BUSY})" in text
        assert "node 1" in text
        assert "(0 -> 1)" in text  # the blocking occupant is named

    def test_channel_busy_cell_at_rho_inf(self, line_fixture):
        schedule, reuse = line_fixture
        lines = explain_cell(schedule, reuse, 2, 3, 3, rho=math.inf)
        text = "\n".join(lines)
        assert f"REJECTED ({REASON_CHANNEL_BUSY})" in text
        assert "(0 -> 1)" in text and "(4 -> 5)" in text

    def test_reuse_distance_cell_names_blocker(self, line_fixture):
        schedule, reuse = line_fixture
        lines = explain_cell(schedule, reuse, 2, 3, 3, rho=2)
        text = "\n".join(lines)
        assert f"REJECTED ({REASON_REUSE_DISTANCE})" in text
        # min(hops[2,1], hops[0,3]) = 1 for offset 0's occupant (0 -> 1).
        assert "occupant (0 -> 1) is 1 hop(s) away" in text
        assert "occupant (4 -> 5) is 1 hop(s) away" in text

    def test_feasible_cell_at_rho_one(self, line_fixture):
        schedule, reuse = line_fixture
        lines = explain_cell(schedule, reuse, 2, 3, 3, rho=1)
        text = "\n".join(lines)
        assert "FEASIBLE at offsets [0, 1]" in text

    def test_scheduled_cell_reports_placement(self, line_fixture):
        schedule, reuse = line_fixture
        lines = explain_cell(schedule, reuse, 0, 1, 3, rho=math.inf)
        assert any("SCHEDULED here at offset 0" in line for line in lines)

    def test_offset_verdicts_shape(self, line_fixture):
        schedule, reuse = line_fixture
        verdicts = offset_verdicts(schedule, reuse, 2, 3, 3, rho=2)
        assert [v["verdict"] for v in verdicts] == \
            [REASON_REUSE_DISTANCE, REASON_REUSE_DISTANCE]
        assert verdicts[0]["blocker"] == [0, 1]
        assert verdicts[0]["distance"] == 1
        assert verdicts[1]["blocker"] == [4, 5]
        # An empty slot accepts everywhere.
        free = offset_verdicts(schedule, reuse, 2, 3, 5, rho=2)
        assert all(v["verdict"] == ACCEPT and v["load"] == 0 for v in free)

    def test_window_chain_is_run_length_encoded(self, line_fixture):
        schedule, reuse = line_fixture
        chain = window_rejection_chain(schedule, reuse, 2, 3, 2, 0, 5)
        assert chain == [[ACCEPT, 3], [REASON_REUSE_DISTANCE, 1],
                         [ACCEPT, 2]]
        chain = window_rejection_chain(schedule, reuse, 1, 2, 2, 0, 3)
        assert chain == [[ACCEPT, 3], [REASON_NODE_BUSY, 1]]
        # rho = inf flavours the non-conflict rejection as channel-busy.
        chain = window_rejection_chain(schedule, reuse, 2, 3, math.inf, 3, 3)
        assert chain == [[REASON_CHANNEL_BUSY, 1]]
        assert window_rejection_chain(schedule, reuse, 2, 3, 2, 5, 4) == []


# ----------------------------------------------------------------------
# ProvenanceRecorder lifecycle + RC descent bit-identity
# ----------------------------------------------------------------------

def _routed_flows(topology, num_flows=3, period=64, deadline=None):
    communication = CommunicationGraph.from_topology(topology, 0.9)
    flows = FlowSet([
        Flow(i, 0, 5, period, deadline or period) for i in range(num_flows)])
    return assign_routes(flows.deadline_monotonic(), communication,
                         TrafficType.PEER_TO_PEER, [])


def _run_with_provenance(topology, policy, num_offsets=2, flows=None):
    reuse = ChannelReuseGraph.from_topology(topology)
    scheduler = FixedPriorityScheduler(
        num_nodes=topology.num_nodes, num_offsets=num_offsets,
        reuse_graph=reuse, policy=policy)
    prov = ProvenanceRecorder()
    with obs.recording(Recorder(provenance=prov)):
        result = scheduler.run(flows if flows is not None
                               else _routed_flows(topology))
    return result, prov


class TestProvenanceRecorder:
    def test_one_decision_per_placement(self, line_topology):
        result, prov = _run_with_provenance(line_topology, NoReusePolicy())
        assert result.schedulable
        decisions = prov.decisions()
        assert len(decisions) == len(result.schedule.entries)
        by_id = [d["id"] for d in decisions]
        assert by_id == list(range(len(decisions)))
        for decision, entry in zip(decisions, result.schedule.entries):
            assert decision["placed"] == [entry.slot, entry.offset]
            assert decision["sender"] == entry.request.sender
            assert decision["probes"], "every placement ran >= 1 probe"
            final = decision["probes"][-1]
            assert final["result"] == [entry.slot, entry.offset]
            assert final["chain"][-1][0] == ACCEPT
            assert final["offsets"][entry.offset]["verdict"] == ACCEPT

    def test_records_trailer_accounts_for_evictions(self, line_topology):
        reuse = ChannelReuseGraph.from_topology(line_topology)
        scheduler = FixedPriorityScheduler(
            num_nodes=line_topology.num_nodes, num_offsets=2,
            reuse_graph=reuse, policy=NoReusePolicy())
        prov = ProvenanceRecorder(capacity=2)
        with obs.recording(Recorder(provenance=prov)):
            result = scheduler.run(_routed_flows(line_topology))
        total = len(result.schedule.entries)
        assert len(prov) == 2
        assert prov.dropped == total - 2
        trailer = prov.records()[-1]
        assert trailer == {"kind": "prov_meta", "dropped": total - 2,
                           "capacity": 2, "decisions": total}

    def test_rc_records_laxity_and_descent(self, line_topology):
        # One channel and tight deadlines force RC below inf (same
        # pressure as the rc_fallback obs test).
        flows = _routed_flows(line_topology, num_flows=3, period=32,
                              deadline=16)
        result, prov = _run_with_provenance(
            line_topology, ConservativeReusePolicy(), num_offsets=1,
            flows=flows)
        laxities = [entry for d in prov.decisions() for entry in d["laxity"]]
        descents = [step for d in prov.decisions() for step in d["descent"]]
        assert laxities and descents
        assert descents[0]["from"] is None  # first step leaves rho = inf
        flow_ids = {d["flow"] for d in prov.decisions()}
        timeline = prov.laxity_timeline(min(flow_ids))
        assert all(t["decision"] is not None for t in timeline)
        # Context captures the RC knobs for offline interpretation.
        context = prov.decisions()[0]["context"]
        assert context["rho_t"] == 2

    def test_scalar_and_vector_streams_bit_identical(self, grid_topology):
        """RC's stepwise oracle (the scalar scan) and its fused descent
        (the vector lanes) record the same stream; every policy's
        stream is JSON-safe."""
        flows = _routed_flows(grid_topology, num_flows=3)
        streams = []
        for scope in (stepwise_descent, nullcontext):
            with scope():
                _, prov = _run_with_provenance(
                    grid_topology, ConservativeReusePolicy(rho_t=2),
                    num_offsets=2, flows=flows)
            streams.append(prov.records())
        assert streams[0] == streams[1]
        for policy in (NoReusePolicy(), AggressiveReusePolicy(rho_t=2)):
            _, prov = _run_with_provenance(grid_topology, policy,
                                           num_offsets=2, flows=flows)
            streams.append(prov.records())
        assert all(json.dumps(stream) for stream in streams)

    def test_recording_provenance_does_not_perturb_schedule(
            self, grid_topology):
        flows = _routed_flows(grid_topology, num_flows=3)
        baseline = FixedPriorityScheduler(
            num_nodes=grid_topology.num_nodes, num_offsets=2,
            reuse_graph=ChannelReuseGraph.from_topology(grid_topology),
            policy=ConservativeReusePolicy(rho_t=2)).run(flows)
        observed, _ = _run_with_provenance(
            grid_topology, ConservativeReusePolicy(rho_t=2), flows=flows)
        assert [(e.slot, e.offset) for e in observed.schedule.entries] == \
            [(e.slot, e.offset) for e in baseline.schedule.entries]

    def test_decisions_for_link_and_explain_bridge(self, line_topology):
        result, prov = _run_with_provenance(line_topology, NoReusePolicy())
        entry = result.schedule.entries[0]
        link = (entry.request.sender, entry.request.receiver)
        decisions = prov.decisions_for_link(*link)
        assert decisions
        lines = explain_from_provenance(prov.records(), *link,
                                        slot=entry.slot)
        text = "\n".join(lines)
        assert f"placed at slot {entry.slot} offset {entry.offset}" in text
        assert "probe rho=inf" in text

    def test_export_jsonl_roundtrip(self, line_topology, tmp_path):
        _, prov = _run_with_provenance(line_topology, NoReusePolicy())
        path = tmp_path / "prov.jsonl"
        assert prov.export_jsonl(path) == len(prov)
        records = load_jsonl(path)
        assert records == prov.records()
        assert records[-1]["kind"] == "prov_meta"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ProvenanceRecorder(capacity=0)


# ----------------------------------------------------------------------
# Run ledger
# ----------------------------------------------------------------------

class TestRunLedger:
    def test_commit_appends_and_stamps(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        record = new_record("sweep", ["sweep", "--seed", "7"],
                            {"seed": 7, "flows": 30}, seeds=[7])
        committed = ledger.commit(record, status="ok",
                                  artifacts=["metrics.json"],
                                  metrics={"scheduler.placements": 12})
        assert committed["status"] == "ok"
        assert committed["wall_s"] >= 0
        assert "_started" not in committed
        (loaded,) = ledger.records()
        assert loaded == json.loads(json.dumps(committed))
        assert loaded["run_id"].endswith(str(__import__("os").getpid()))
        assert loaded["config_hash"] == config_hash(
            {"flows": 30, "seed": 7})
        assert loaded["env"]["python"] == \
            environment_fingerprint()["python"]

    def test_config_hash_is_order_insensitive(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == \
            config_hash({"b": [2, 3], "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_find_accepts_prefix_latest_wins(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        first = ledger.commit(new_record("bench", [], {"n": 1}))
        second = ledger.commit(new_record("bench", [], {"n": 2}))
        assert ledger.find(first["run_id"]) == \
            json.loads(json.dumps(first))
        # A bare timestamp-prefix matches both; the latest wins.
        prefix = first["run_id"][:4]
        assert ledger.find(prefix)["config"]["n"] == 2
        assert ledger.find(second["run_id"][:20])["config"]["n"] == 2
        assert ledger.find("zzz-no-such-run") is None

    def test_records_empty_when_no_file(self, tmp_path):
        assert RunLedger(tmp_path / "missing.jsonl").records() == []

    def test_diff_records_names_changed_keys(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        a = ledger.commit(new_record("sweep", [], {"seed": 1, "flows": 30}),
                          metrics={"placements": 10})
        b = ledger.commit(new_record("sweep", [], {"seed": 2, "flows": 30}),
                          metrics={"placements": 12})
        lines = diff_records(a, b)
        text = "\n".join(lines)
        assert "config.seed: 1 -> 2" in text
        assert "config.flows" not in text
        assert "metrics.placements: 10 -> 12" in text

    def test_records_skips_corrupt_lines_and_counts_them(self, tmp_path):
        """Regression: a truncated write (crash mid-append) or stray
        editor junk must not take the whole ledger down — good records
        still load, and the damage is tallied in ``skipped``."""
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        first = ledger.commit(new_record("sweep", [], {"n": 1}))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "truncat\n')    # crash mid-append
            handle.write("[1, 2, 3]\n")              # JSON but not a dict
            handle.write("\n")                       # blank line: ignored
        second = ledger.commit(new_record("sweep", [], {"n": 2}))

        records = ledger.records()
        assert [r["config"]["n"] for r in records] == [1, 2]
        assert ledger.skipped == 2  # blank line is not damage

        # find() still works across the damage, and a clean re-read
        # resets the tally.
        assert ledger.find(second["run_id"])["config"]["n"] == 2
        assert ledger.find(first["run_id"])["config"]["n"] == 1
        ledger.records()
        assert ledger.skipped == 2
        clean = RunLedger(tmp_path / "clean.jsonl")
        clean.commit(new_record("sweep", [], {"n": 3}))
        assert clean.records() and clean.skipped == 0


# ----------------------------------------------------------------------
# Timeline rendering
# ----------------------------------------------------------------------

class TestTimeline:
    def test_grid_marks_reuse_cells(self, line_fixture):
        schedule, _ = line_fixture
        # Add a reuse partner into slot 3 offset 0: (3 -> 4) shares with
        # (0 -> 1) (node-disjoint, so Schedule.add allows it).
        schedule.add(_request(2, 0, 3, 4, release=0), slot=5, offset=0)
        schedule.add(_request(3, 0, 2, 3), slot=3, offset=0)
        text = render_timeline(schedule, start=0, end=6)
        lines = text.splitlines()
        assert lines[1].startswith("offset 0")
        assert "|...2.#.|" in lines[1]
        assert "|...#...|" in lines[2]
        assert "reuse cells:" in text
        assert "slot 3 offset 0: (0 -> 1), (2 -> 3)" in text

    def test_flow_windows_rendered(self, line_topology):
        flows = _routed_flows(line_topology, num_flows=2)
        result, _ = _run_with_provenance(line_topology, NoReusePolicy(),
                                         flows=flows)
        text = render_timeline(result.schedule, flows, 0, 20)
        assert "flow windows (- window, # placement):" in text
        assert "flow 0" in text and "flow 1" in text

    def test_empty_range_rejected(self, line_fixture):
        schedule, _ = line_fixture
        with pytest.raises(ValueError):
            render_timeline(schedule, start=9, end=4)

    def test_parse_slot_range(self):
        assert parse_slot_range("3:9") == (3, 9)
        assert parse_slot_range("3:") == (3, None)
        assert parse_slot_range(":9") == (0, 9)
        assert parse_slot_range("7") == (7, 7)
        with pytest.raises(ValueError):
            parse_slot_range("a:b")


# ----------------------------------------------------------------------
# CLI: schedule -> explain / timeline / ledger, report dropped total
# ----------------------------------------------------------------------

class TestProvenanceCli:
    @pytest.fixture
    def artifacts(self, tmp_path, capsys):
        """One saved schedule (+ flows, topology, provenance, ledger)."""
        paths = {
            "schedule": tmp_path / "schedule.json",
            "flows": tmp_path / "flows.json",
            "topology": tmp_path / "topology.npz",
            "provenance": tmp_path / "prov.jsonl",
            "ledger": tmp_path / "runs.jsonl",
        }
        assert main(["schedule", "--testbed", "wustl", "--flows", "8",
                     "--seed", "3",
                     "--schedule-out", str(paths["schedule"]),
                     "--flows-out", str(paths["flows"]),
                     "--topology-out", str(paths["topology"]),
                     "--provenance", str(paths["provenance"]),
                     "--ledger", str(paths["ledger"])]) == 0
        capsys.readouterr()
        return paths

    def test_explain_scheduled_cell_with_provenance(self, artifacts,
                                                    capsys):
        schedule = json.loads(artifacts["schedule"].read_text())
        entry = schedule["entries"][0]
        assert main(["explain",
                     "--schedule", str(artifacts["schedule"]),
                     "--topology", str(artifacts["topology"]),
                     "--link", str(entry["sender"]), str(entry["receiver"]),
                     "--slot", str(entry["slot"]),
                     "--provenance", str(artifacts["provenance"])]) == 0
        out = capsys.readouterr().out
        assert "SCHEDULED here" in out
        assert "verdict:" in out
        assert "recorded decisions for this link:" in out
        assert "probe rho=" in out

    def test_explain_rejects_bad_link_and_slot(self, artifacts, capsys):
        base = ["explain", "--schedule", str(artifacts["schedule"]),
                "--topology", str(artifacts["topology"])]
        assert main(base + ["--link", "0", "9999", "--slot", "0"]) == 2
        assert "out of range" in capsys.readouterr().err
        assert main(base + ["--link", "0", "1", "--slot", "99999"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_timeline_renders_grid(self, artifacts, capsys):
        assert main(["timeline", "--schedule", str(artifacts["schedule"]),
                     "--flows", str(artifacts["flows"]),
                     "--slots", "0:30"]) == 0
        out = capsys.readouterr().out
        assert "offset 0 |" in out
        assert "flow windows" in out
        assert main(["timeline", "--schedule", str(artifacts["schedule"]),
                     "--slots", "50:10"]) == 2

    def test_ledger_list_show_diff(self, artifacts, tmp_path, capsys):
        # A second run with a different seed gives diff something to say.
        assert main(["schedule", "--testbed", "wustl", "--flows", "8",
                     "--seed", "4",
                     "--ledger", str(artifacts["ledger"])]) == 0
        capsys.readouterr()

        assert main(["ledger", "list",
                     "--ledger", str(artifacts["ledger"])]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if "schedule" in line]
        assert len(rows) == 2

        records = load_jsonl(artifacts["ledger"])
        run_ids = [r["run_id"] for r in records]
        assert main(["ledger", "show", run_ids[0],
                     "--ledger", str(artifacts["ledger"])]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["command"] == "schedule"
        assert shown["status"] == 0
        assert str(artifacts["provenance"]) in shown["artifacts"]
        assert shown["seeds"] == [3]

        assert main(["ledger", "diff", run_ids[0], run_ids[1],
                     "--ledger", str(artifacts["ledger"])]) == 0
        out = capsys.readouterr().out
        assert "config.seed: 3 -> 4" in out

        assert main(["ledger", "show", "no-such-run",
                     "--ledger", str(artifacts["ledger"])]) == 2
        assert "no run matching" in capsys.readouterr().err

    def test_no_ledger_flag_skips_append(self, tmp_path, capsys):
        ledger = tmp_path / "runs.jsonl"
        assert main(["topology", "--testbed", "wustl", "--channels", "4",
                     "--ledger", str(ledger), "--no-ledger"]) == 0
        assert not ledger.exists()

    def test_broken_pipe_exits_quietly(self, artifacts, monkeypatch):
        # `repro ledger show ... | head` closes stdout mid-print; the
        # CLI must exit without a traceback instead of crashing.
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

            def flush(self):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["ledger", "list",
                     "--ledger", str(artifacts["ledger"])]) == 120

    def test_ledger_records_failure_status(self, tmp_path, capsys):
        ledger = tmp_path / "runs.jsonl"
        missing = tmp_path / "nope.json"
        assert main(["validate", "--schedule", str(missing),
                     "--topology", str(missing),
                     "--ledger", str(ledger)]) == 2
        capsys.readouterr()
        (record,) = load_jsonl(ledger)
        assert record["status"] == 2
