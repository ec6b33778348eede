"""End-to-end tests: a real ``repro serve`` process over a unix socket
(and once over TCP).

Starts the service as a subprocess, drives it with a blocking NDJSON
client and with the ``repro loadgen`` CLI, and checks the acceptance
properties: zero errors on a mixed workload, responses bit-identical to
direct library calls (shadow executor), reschedules served by the
repair path, OpenMetrics exposition parsing strictly, ledger batch
records intact, and a clean SIGTERM shutdown.
"""

import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.ledger import RunLedger
from repro.obs.openmetrics import parse_openmetrics
from repro.service.executor import ServiceExecutor
from repro.service.loadgen import LoadgenOptions, build_plan
from repro.service.protocol import parse_request

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Loadgen plan with reused cells and (empirically) zero repair
#: fallbacks — the "clean workload" of the acceptance criteria.
PLAN_KW = dict(requests=60, networks=8, flows=30, seed=5)


class NdjsonClient:
    """Minimal blocking line-oriented client for tests."""

    def __init__(self, path: str, timeout: float = 120.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.file = self.sock.makefile("rwb")

    def request(self, payload: dict) -> dict:
        self.file.write(json.dumps(payload).encode("utf-8") + b"\n")
        self.file.flush()
        line = self.file.readline()
        assert line, "server closed the connection"
        return json.loads(line)

    def send_raw(self, data: bytes) -> dict:
        self.file.write(data)
        self.file.flush()
        return json.loads(self.file.readline())

    def close(self) -> None:
        try:
            self.file.close()
            self.sock.close()
        except OSError:
            pass


@contextmanager
def running_server(tmp_path, *flags):
    """A running 2-worker ``repro serve`` on a tmp unix socket, with
    extra command-line flags; yields ``(socket_path, process)`` and
    SIGTERMs the server afterwards if the test has not."""
    socket_path = str(tmp_path / "serve.sock")
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", socket_path,
         "--service-workers", "2", *flags],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    # The path exists from bind(), before listen(): only a connect that
    # succeeds shows the server accepting.
    deadline = time.time() + 60
    while True:
        if process.poll() is not None:
            raise AssertionError(
                f"serve exited early:\n{process.stdout.read()}")
        try:
            with socket.socket(socket.AF_UNIX) as probe:
                probe.connect(socket_path)
            break
        except OSError:
            if time.time() > deadline:
                process.kill()
                raise AssertionError("serve did not accept on its socket")
            time.sleep(0.05)
    try:
        yield socket_path, process
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
        process.stdout.close()


@pytest.fixture()
def service(tmp_path):
    """A running 2-worker service with no recording flag."""
    ledger_path = str(tmp_path / "runs.jsonl")
    with running_server(tmp_path, "--batch-size", "10",
                        "--ledger", ledger_path) as (socket_path, process):
        yield {"socket": socket_path, "ledger": ledger_path,
               "process": process}


def drive_plan(client: NdjsonClient, plan):
    """Run a loadgen plan serially; returns the responses in order."""
    return [client.request(payload) for payload in plan]


class TestServeEndToEnd:
    def test_mixed_workload_bit_identical(self, service):
        plan = build_plan(LoadgenOptions(**PLAN_KW))
        client = NdjsonClient(service["socket"])
        try:
            responses = drive_plan(client, plan)
            status = client.request({"id": "st", "verb": "status"})
        finally:
            client.close()

        assert all(response["ok"] for response in responses)
        # Bit-identity: replay the same stream on a shadow executor.
        shadow = ServiceExecutor()
        modes = {"repair": 0, "noop": 0, "rebuild": 0}
        for payload, response in zip(plan, responses):
            expected = shadow.handle(parse_request(dict(payload)))
            assert expected["schedule_hash"] == \
                response["result"]["schedule_hash"], payload
            mode = response["result"].get("repair_mode")
            if mode:
                modes[mode] += 1
        # The clean workload is served by the repair path, never the
        # rebuild fallback.
        assert modes["repair"] > 0
        assert modes["rebuild"] == 0

        result = status["result"]
        assert result["workers"] == 2
        assert result["workers_alive"] == 2
        assert result["repair_fallbacks"] == 0
        assert result["networks"] == PLAN_KW["networks"]
        total = sum(result["requests"].values())
        assert total == len(plan)
        cache = result["cache"]
        assert cache["hit_total"] + cache["miss_total"] == 3 * sum(
            1 for p in plan if p["verb"] == "schedule")

    def test_warm_cache_faster_than_cold(self, service):
        config = {"testbed": "indriya", "seed": 3, "flows": 20}
        client = NdjsonClient(service["socket"])
        try:
            cold = client.request({"id": 0, "verb": "schedule",
                                   "network": "warmth",
                                   "config": config})
            warm = client.request({"id": 1, "verb": "schedule",
                                   "network": "warmth",
                                   "config": config})
        finally:
            client.close()
        assert cold["result"]["cache"]["schedule"] == "miss"
        assert warm["result"]["cache"]["schedule"] == "hit"
        assert warm["result"]["schedule_hash"] == \
            cold["result"]["schedule_hash"]
        # Generous margin: a warm hit skips topology + workload +
        # scheduling entirely, so 2x is conservative even on CI.
        assert warm["result"]["elapsed_ms"] < \
            cold["result"]["elapsed_ms"] / 2

    def test_sharding_pins_network_to_one_worker(self, service):
        client = NdjsonClient(service["socket"])
        try:
            workers = {
                name: client.request(
                    {"id": name, "verb": "schedule", "network": name,
                     "config": {"seed": 1, "flows": 4}})["worker"]
                for name in ("a", "b", "c", "d")
                for _ in range(2)}
            repeat = {
                name: client.request(
                    {"id": name + "2", "verb": "schedule",
                     "network": name,
                     "config": {"seed": 1, "flows": 4}})["worker"]
                for name in ("a", "b", "c", "d")}
        finally:
            client.close()
        assert workers == repeat
        assert set(workers.values()) == {0, 1}

    def test_protocol_errors_answered_inline(self, service):
        client = NdjsonClient(service["socket"])
        try:
            bad_json = client.send_raw(b"{nope\n")
            bad_verb = client.request({"id": 9, "verb": "frobnicate"})
            no_state = client.request({"id": 10, "verb": "reschedule",
                                       "network": "ghost"})
            ping = client.request({"id": 11, "verb": "ping"})
        finally:
            client.close()
        assert not bad_json["ok"]
        assert bad_json["error"]["type"] == "ProtocolError"
        assert not bad_verb["ok"]
        assert bad_verb["id"] is None  # parse failed before id capture
        assert not no_state["ok"]
        assert no_state["error"]["type"] == "ServiceError"
        assert no_state["id"] == 10
        assert ping["ok"] and ping["result"]["pong"]

    def test_explain_verb(self, service):
        client = NdjsonClient(service["socket"])
        try:
            compiled = client.request(
                {"id": 0, "verb": "schedule", "network": "x",
                 "config": {"seed": 1, "flows": 6},
                 "include_schedule": True})
            entry = compiled["result"]["schedule"]["entries"][0]
            explained = client.request(
                {"id": 1, "verb": "explain", "network": "x",
                 "link": [entry["sender"], entry["receiver"]],
                 "slot": entry["slot"]})
        finally:
            client.close()
        assert explained["ok"]
        assert explained["result"]["lines"]

    def test_metrics_exposition_parses_strictly(self, service):
        client = NdjsonClient(service["socket"])
        try:
            client.request({"id": 0, "verb": "schedule", "network": "m",
                            "config": {"seed": 1, "flows": 4}})
            metrics = client.request({"id": 1, "verb": "metrics"})
        finally:
            client.close()
        assert metrics["ok"]
        families = parse_openmetrics(metrics["result"]["exposition"])
        sample_names = {sample[0] for family in families.values()
                        for sample in family["samples"]}
        assert any(name.startswith("repro_service_requests")
                   for name in sample_names)

    def test_sigterm_clean_shutdown_and_ledger(self, service):
        plan = build_plan(LoadgenOptions(requests=25, networks=4,
                                         flows=8, seed=2))
        client = NdjsonClient(service["socket"])
        try:
            responses = drive_plan(client, plan)
        finally:
            client.close()
        assert all(response["ok"] for response in responses)

        process = service["process"]
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        output = process.stdout.read()
        assert "shutting down" in output
        assert "drained 25 request(s)" in output

        # Worker batch records (batch size 10 -> >= 3 across workers,
        # partial batches flushed at shutdown) are all intact.
        ledger = RunLedger(service["ledger"])
        records = [r for r in ledger.records()
                   if r.get("command") == "serve" and "metrics" in r]
        assert ledger.skipped == 0
        assert sum(r["metrics"]["requests"] for r in records) == 25


class TestLoadgenCli:
    def test_loadgen_verify_roundtrip(self, service, tmp_path, capsys):
        report_path = tmp_path / "load-report.json"
        code = main([
            "loadgen", "--socket", service["socket"],
            "--requests", "40", "--networks", "8", "--flows", "30",
            "--seed", "5", "--verify",
            "--report-out", str(report_path), "--no-ledger"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 mismatch(es)" in out

        report = json.loads(report_path.read_text())
        assert report["requests"] == 40
        assert report["errors"] == 0
        assert report["verify"] == {"checked": 40, "mismatches": 0,
                                    "mismatch_samples": []}
        assert report["reschedule_modes"]["rebuild"] == 0
        assert report["latency_ms"]["p99"] >= \
            report["latency_ms"]["p50"] > 0
        assert sum(bucket["count"]
                   for bucket in report["histogram"]) == 40
        assert report["service"]["repair_fallbacks"] == 0

    def test_loadgen_open_loop(self, service, capsys):
        code = main([
            "loadgen", "--socket", service["socket"],
            "--requests", "20", "--networks", "4", "--flows", "6",
            "--seed", "3", "--rate", "200", "--no-ledger"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "open loop" in out
        assert "errors: 0" in out

    def test_plan_is_seed_deterministic(self):
        options = LoadgenOptions(requests=50, networks=6, seed=9)
        assert build_plan(options) == build_plan(options)
        shifted = LoadgenOptions(requests=50, networks=6, seed=10)
        assert build_plan(shifted) != build_plan(options)
        plan = build_plan(options)
        first_by_network = {}
        for payload in plan:
            first_by_network.setdefault(payload["network"],
                                        payload["verb"])
        assert set(first_by_network.values()) == {"schedule"}


class TestTcpListener:
    def test_loadgen_verify_over_tcp(self, tmp_path, capsys):
        """``serve --host/--port`` listens on TCP (port 0 binds a free
        port, read back from the banner), and ``--cache-capacity`` bounds
        each worker's cache: a 2-entry cache evicts under a 4-network
        fleet, while every response stays bit-identical."""
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--service-workers", "1", "--cache-capacity", "2",
             "--no-ledger"],
            env=dict(os.environ, PYTHONPATH=REPO_SRC),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        lines = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(line) for line in process.stdout],
            daemon=True)
        reader.start()
        try:
            banner = ""
            while "listening on tcp:" not in banner:
                banner = lines.get(timeout=60)
            address = banner.split("listening on tcp:")[1].split()[0]
            host, port = address.rsplit(":", 1)
            assert host == "127.0.0.1" and int(port) > 0
            report_path = tmp_path / "tcp-report.json"
            code = main([
                "loadgen", "--host", host, "--port", port,
                "--requests", "20", "--networks", "4", "--flows", "8",
                "--seed", "2", "--verify",
                "--report-out", str(report_path), "--no-ledger"])
            out = capsys.readouterr().out
            assert code == 0, out
            report = json.loads(report_path.read_text())
            assert report["verify"]["checked"] == 20
            assert report["verify"]["mismatches"] == 0
            assert report["service"]["cache"]["evictions"] > 0
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
            reader.join(timeout=10)
            process.stdout.close()


class TestUnrecordedWorker:
    """A server started with no recording flag keeps no recorder in
    its workers, yet still exposes the service families."""

    PLAN = dict(requests=20, networks=4, flows=8, seed=2)

    def test_metrics_verb_matches_status(self, service):
        plan = build_plan(LoadgenOptions(**self.PLAN))
        client = NdjsonClient(service["socket"])
        try:
            responses = drive_plan(client, plan)
            responses.append(client.request(
                {"id": "sim", "verb": "simulate",
                 "network": plan[0]["network"], "repetitions": 4}))
            ghost = client.request({"id": "ghost", "verb": "reschedule",
                                    "network": "ghost"})
            metrics = client.request({"id": "m", "verb": "metrics"})
            status = client.request({"id": "s", "verb": "status"})
        finally:
            client.close()
        assert all(response["ok"] for response in responses)
        assert not ghost["ok"]

        families = parse_openmetrics(metrics["result"]["exposition"])
        samples = {(name, tuple(sorted(labels.items()))): value
                   for family in families.values()
                   for name, labels, value in family["samples"]}
        result = status["result"]
        assert samples[("repro_service_requests_total", ())] == \
            sum(result["requests"].values()) == len(plan) + 2
        for verb, count in result["requests"].items():
            assert samples[(f"repro_service_requests_{verb}_total",
                            ())] == count
        assert samples[("repro_service_errors_total", ())] == \
            result["errors"] == 1
        assert samples[("repro_service_repair_fallbacks_total", ())] == \
            result["repair_fallbacks"]

        expected = {}
        for worker in result["worker_status"]:
            for verdict, key in (("hit", "hits"), ("miss", "misses")):
                for kind, count in worker["cache"][key].items():
                    expected[(kind, verdict)] = \
                        expected.get((kind, verdict), 0) + count
        lookups = {(dict(labels)["kind"], dict(labels)["verdict"]): value
                   for (name, labels), value in samples.items()
                   if name == "repro_service_cache_lookups_total"}
        assert lookups == expected
        assert expected[("environment", "miss")] == 1

        # No recorder in the workers: no core families.
        assert not [name for name in families if name.startswith(
            ("repro_scheduler", "repro_policy", "repro_rc"))]

    def test_metrics_out_dumps_carry_service_and_core_families(
            self, tmp_path):
        plan = build_plan(LoadgenOptions(**self.PLAN))
        metrics_path = tmp_path / "metrics.json"
        with running_server(tmp_path, "--no-ledger", "--metrics-out",
                            str(metrics_path)) as (socket_path, process):
            client = NdjsonClient(socket_path)
            try:
                responses = drive_plan(client, plan)
            finally:
                client.close()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        assert all(response["ok"] for response in responses)

        dumps = [json.loads(path.read_text()) for path in
                 sorted(tmp_path.glob("metrics.json.w*"))]
        assert len(dumps) == 2
        assert sum(dump["counters"]["service.requests"]
                   for dump in dumps) == len(plan)
        for dump in dumps:
            counters = dump["counters"]
            if not counters["service.requests"]:
                continue
            assert counters["service.cache.schedule.miss"] >= 1
            assert counters["scheduler.placements"] > 0
            assert any(name.startswith("policy.") for name in counters)
            # Stages time themselves whenever the worker records, span
            # layer or not.
            histograms = dump["histograms"]
            for stage in ("cache.topology", "cache.workload", "compile",
                          "schedule.RC"):
                assert histograms[f"span.{stage}.seconds"]["count"] >= 1


@pytest.fixture()
def traced_service(tmp_path):
    """A 2-worker service recording every request span (threshold 0)."""
    spans_path = str(tmp_path / "spans.jsonl")
    with running_server(tmp_path, "--spans", spans_path,
                        "--span-threshold-ms", "0",
                        "--no-ledger") as (socket_path, process):
        yield {"socket": socket_path, "spans": spans_path,
               "process": process}


def shutdown(handle):
    """SIGTERM the service and wait so workers flush their exports."""
    handle["process"].send_signal(signal.SIGTERM)
    handle["process"].wait(timeout=30)


class TestTracedServeEndToEnd:
    """Acceptance: a request is reconstructable offline as a complete
    cross-process waterfall with correct parentage."""

    def test_cross_process_waterfall(self, traced_service, tmp_path):
        from repro.obs.session import expand_paths
        from repro.obs.spans import (build_traces, format_trace_show,
                                     load_span_records, new_trace_id)

        plan = build_plan(LoadgenOptions(**PLAN_KW))
        sent_ids = []
        client = NdjsonClient(traced_service["socket"])
        try:
            for index, payload in enumerate(plan):
                trace_id = new_trace_id()
                sent = dict(payload,
                            trace={"trace_id": trace_id,
                                   "span_id": f"client-{index}"})
                response = client.request(sent)
                assert response["ok"], response
                # Every response echoes the adopted trace id.
                assert response["trace"] == {"trace_id": trace_id}
                sent_ids.append(trace_id)
        finally:
            client.close()
        shutdown(traced_service)

        paths = expand_paths(traced_service["spans"])
        # Front export plus at least one worker shard that served work.
        assert traced_service["spans"] in paths
        assert any(path.endswith((".w0", ".w1")) for path in paths)
        records, metas = load_span_records(paths)
        assert "front" in {meta["process"] for meta in metas}

        traces = build_traces(records)
        assert traces, "no traces reconstructed"
        complete = []
        for trace in traces:
            by_id = {s["span"]: s for s in trace["spans"]}
            names = {s["name"] for s in trace["spans"]}
            if not {"request", "dispatch", "work"} <= names:
                continue
            complete.append(trace)
            assert trace["trace_id"] in sent_ids
            for span in trace["spans"]:
                # Parentage: every non-root span links to a span we
                # actually exported (complete chains, no orphans)...
                parent_id = span["parent"]
                if parent_id is None or parent_id.startswith("client-"):
                    continue
                parent = by_id.get(parent_id)
                assert parent is not None, span
                # ...and (serial stages) children fit in the parent.
                siblings = [s for s in trace["spans"]
                            if s["parent"] == parent["span"]]
                assert sum(s["duration_ms"] for s in siblings) <= \
                    parent["duration_ms"] + 1.0
            work = next(s for s in trace["spans"] if s["name"] == "work")
            dispatch = next(s for s in trace["spans"]
                            if s["name"] == "dispatch")
            request = next(s for s in trace["spans"]
                           if s["name"] == "request")
            assert request["parent"].startswith("client-")
            assert request["attrs"]["verb"] in ("schedule", "reschedule",
                                                "simulate")
            assert dispatch["parent"] == request["span"]
            assert work["parent"] == dispatch["span"]
            stages = [s for s in trace["spans"]
                      if s["parent"] == work["span"]]
            # A fresh schedule always compiles (or at least consults
            # the caches); other verbs may legitimately do no staged
            # work (e.g. a noop reschedule).
            if request["attrs"]["verb"] == "schedule":
                assert {s["name"] for s in stages} >= {"cache.topology"}
        assert complete, "no complete front+worker waterfall captured"
        assert any(s["name"] == "compile"
                   for t in complete for s in t["spans"])

        # And the CLI renders it.
        shown = format_trace_show(paths, limit=3)
        assert "trace " in shown
        assert "work" in shown and "dispatch" in shown

    def test_loadgen_trace_out(self, traced_service, tmp_path, capsys):
        report_path = tmp_path / "load-report.json"
        trace_path = tmp_path / "client-spans.jsonl"
        code = main([
            "loadgen", "--socket", traced_service["socket"],
            "--requests", "20", "--networks", "4", "--flows", "12",
            "--seed", "7", "--verify",
            "--trace-out", str(trace_path),
            "--trace-threshold-ms", "0",
            "--report-out", str(report_path), "--no-ledger"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "slow " in out  # exemplar lines in the text report

        report = json.loads(report_path.read_text())
        # Clean runs keep the pre-tracing verify shape (plus nothing).
        assert report["verify"] == {"checked": 20, "mismatches": 0,
                                    "mismatch_samples": []}
        trace_section = report["trace"]
        assert trace_section["out"] == str(trace_path)
        assert trace_section["kept_traces"] >= 1
        exemplars = trace_section["exemplars"]
        assert exemplars and all(e["trace_id"] for e in exemplars)
        durations = [e["duration_ms"] for e in exemplars]
        assert durations == sorted(durations, reverse=True)

        # The client-side dump itself reconstructs, with loadgen as
        # the local root process.
        from repro.obs.spans import build_traces, load_span_records
        records, metas = load_span_records([str(trace_path)])
        assert metas[0]["process"] == "loadgen"
        traces = build_traces(records)
        exemplar_ids = {e["trace_id"] for e in exemplars}
        assert exemplar_ids <= {t["trace_id"] for t in traces}
