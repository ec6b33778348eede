"""Tests for repro.service: protocol, cache, and executor semantics."""

import hashlib
import json
from collections import Counter
from contextlib import nullcontext

import pytest

from repro.cli import main
from repro.core.rc import stepwise_descent
from repro.service.cache import ArtifactCache
from repro.service.executor import ServiceError, ServiceExecutor
from repro.service.protocol import (
    NetworkConfig,
    ProtocolError,
    encode_line,
    parse_request,
    shard_of,
)

from service_oracles import direct_schedule
from test_manager import fail_every_repair

CONFIG = {"testbed": "indriya", "seed": 1, "channels": 5, "flows": 8}

#: A config with reused cells, so reschedules exercise the repair path.
REUSE_CONFIG = {"testbed": "indriya", "seed": 5, "channels": 5,
                "flows": 30, "workload_seed": 7}

#: A config whose compile fails at flow 20 after 534 placements; an
#: ``auto`` repair of that partial schedule would place every
#: transmission it holds and leave flows 9 and 20 with PDR 0.
UNSCHEDULABLE_CONFIG = {"testbed": "indriya", "seed": 0, "channels": 2,
                        "flows": 26, "policy": "RC", "period_min_exp": -1,
                        "period_max_exp": 1, "workload_seed": 1}

RESCHEDULE = {"verb": "reschedule", "network": "net-a"}

#: SHA-256 of the canonical JSON of every response's remediation fields
#: when :data:`REPLAY_OPTIONS`' plan is replayed through one executor.
REPLAY_DIGEST = (
    "cf1e64e327ea0b99f041b77b36b6fac191354a0c4bd1fd8718a3996a99a2546d")
REPLAY_OPTIONS = dict(requests=96, networks=6, flows=30, seed=2, mix=0.5)
REPLAY_FIELDS = ("schedulable", "schedule_hash", "repair_mode", "victims",
                 "barred_links", "evicted_cells")


def schedule_request(network="net-a", config=CONFIG, **extra):
    payload = {"verb": "schedule", "network": network, "config": config}
    payload.update(extra)
    return parse_request(payload)


class TestProtocol:
    def test_parse_schedule(self):
        request = schedule_request(id=7)
        assert request.verb == "schedule"
        assert request.id == 7
        assert request.config.flows == 8
        assert request.config.effective_workload_seed == 1

    def test_roundtrip_through_wire_form(self):
        request = schedule_request(id=3)
        line = encode_line(request.to_dict())
        again = parse_request(line.decode("utf-8"))
        assert again.to_dict() == request.to_dict()

    def test_rejects_bad_json(self):
        with pytest.raises(ProtocolError, match="bad JSON"):
            parse_request("{nope")

    def test_rejects_unknown_verb(self):
        with pytest.raises(ProtocolError, match="unknown verb"):
            parse_request({"verb": "destroy", "network": "n"})

    def test_rejects_missing_network(self):
        with pytest.raises(ProtocolError, match="network"):
            parse_request({"verb": "schedule", "config": CONFIG})

    def test_rejects_unknown_config_field(self):
        with pytest.raises(ProtocolError, match="unknown config field"):
            parse_request({"verb": "schedule", "network": "n",
                           "config": dict(CONFIG, nodes=99)})

    def test_rejects_bad_victims(self):
        with pytest.raises(ProtocolError, match="victims"):
            parse_request({"verb": "reschedule", "network": "n",
                           "victims": "all-of-them"})

    def test_explain_needs_link_and_slot(self):
        with pytest.raises(ProtocolError, match="link"):
            parse_request({"verb": "explain", "network": "n", "slot": 0})
        with pytest.raises(ProtocolError, match="slot"):
            parse_request({"verb": "explain", "network": "n",
                           "link": [0, 1]})

    def test_control_verbs_need_no_network(self):
        assert parse_request({"verb": "status"}).verb == "status"
        assert parse_request({"verb": "ping"}).verb == "ping"

    def test_config_hash_ignores_field_order(self):
        a = NetworkConfig.from_dict({"seed": 1, "flows": 8})
        b = NetworkConfig.from_dict({"flows": 8, "seed": 1})
        assert a.schedule_hash() == b.schedule_hash()
        assert a.topology_hash() == b.topology_hash()

    def test_config_hash_layers(self):
        base = NetworkConfig.from_dict({"seed": 1, "flows": 8})
        more_flows = NetworkConfig.from_dict({"seed": 1, "flows": 9})
        # Flow count changes workload + schedule keys, not topology.
        assert base.topology_hash() == more_flows.topology_hash()
        assert base.workload_hash() != more_flows.workload_hash()
        assert base.schedule_hash() != more_flows.schedule_hash()
        # Policy changes only the schedule key.
        nr = NetworkConfig.from_dict({"seed": 1, "flows": 8,
                                      "policy": "NR"})
        assert base.workload_hash() == nr.workload_hash()
        assert base.schedule_hash() != nr.schedule_hash()

    def test_every_config_field_changes_schedule_hash(self):
        base = NetworkConfig()
        variants = [
            {"testbed": "wustl"}, {"seed": 1}, {"channels": 4},
            {"flows": 11}, {"traffic": "centralized"},
            {"period_min_exp": 1}, {"period_max_exp": 4},
            {"policy": "NR"}, {"rho_t": 3}, {"workload_seed": 42},
        ]
        hashes = {base.schedule_hash()}
        for change in variants:
            variant = NetworkConfig.from_dict(dict(base.to_dict(),
                                                   **change))
            assert variant.schedule_hash() not in hashes, change
            hashes.add(variant.schedule_hash())

    def test_shard_deterministic_and_in_range(self):
        names = [f"net-{i}" for i in range(100)]
        first = [shard_of(name, 4) for name in names]
        assert first == [shard_of(name, 4) for name in names]
        assert all(0 <= shard < 4 for shard in first)
        # Spread: 100 names over 4 shards should touch every shard.
        assert len(set(first)) == 4


class TestArtifactCache:
    def test_get_or_build_counts(self):
        cache = ArtifactCache(capacity=4)
        value, verdict = cache.get_or_build("topology", "k1",
                                            lambda: "built")
        assert (value, verdict) == ("built", "miss")
        value, verdict = cache.get_or_build("topology", "k1",
                                            lambda: "rebuilt")
        assert (value, verdict) == ("built", "hit")
        stats = cache.stats()
        assert stats["hits"]["topology"] == 1
        assert stats["misses"]["topology"] == 1

    def test_lru_eviction(self):
        cache = ArtifactCache(capacity=2)
        cache.put("schedule", "a", 1)
        cache.put("schedule", "b", 2)
        assert cache.get("schedule", "a") == 1  # refresh a; b is LRU
        cache.put("schedule", "c", 3)
        assert cache.get("schedule", "b") is None
        assert cache.get("schedule", "a") == 1
        assert cache.stats()["evictions"] == 1

    def test_invalidate_exact_and_kind(self):
        cache = ArtifactCache(capacity=8)
        cache.put("schedule", "a", 1)
        cache.put("schedule", "b", 2)
        cache.put("topology", "t", 3)
        assert cache.invalidate("schedule", "a") == 1
        assert cache.invalidate("schedule") == 1
        assert len(cache) == 1
        assert cache.invalidate() == 1
        assert cache.stats()["invalidations"] == 3

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ArtifactCache(capacity=0)


class TestExecutorSchedule:
    def test_cold_then_warm_identical(self):
        executor = ServiceExecutor()
        cold = executor.handle(schedule_request())
        warm = executor.handle(schedule_request())
        assert cold["cache"] == {"topology": "miss", "workload": "miss",
                                 "schedule": "miss"}
        assert warm["cache"] == {"topology": "hit", "workload": "hit",
                                 "schedule": "hit"}
        assert cold["schedule_hash"] == warm["schedule_hash"]
        assert cold["makespan"] == warm["makespan"]

    def test_matches_direct_library_call(self):
        executor = ServiceExecutor()
        served = executor.handle(schedule_request())
        direct = direct_schedule(NetworkConfig.from_dict(CONFIG))
        assert served["schedule_hash"] == \
            direct.schedule.canonical_hash()
        assert served["schedulable"] == direct.schedulable

    @pytest.mark.parametrize("scope", [stepwise_descent, nullcontext],
                             ids=["scalar", "vector"])
    def test_cold_vs_warm_bit_identical_per_kernel(self, scope):
        """RC's stepwise oracle (the scalar scan) and its fused descent
        each serve a warm hit identical to the cold compile."""
        with scope():
            executor = ServiceExecutor()
            cold = executor.handle(schedule_request(config=REUSE_CONFIG))
            warm = executor.handle(schedule_request(config=REUSE_CONFIG))
        assert cold["schedule_hash"] == warm["schedule_hash"]
        assert warm["cache"]["schedule"] == "hit"

    def test_kernels_agree_through_the_service_path(self):
        """RC's two descents compile the same schedule in the service."""
        hashes = set()
        for scope in (stepwise_descent, nullcontext):
            with scope():
                executor = ServiceExecutor()
                result = executor.handle(
                    schedule_request(config=REUSE_CONFIG))
                hashes.add(result["schedule_hash"])
        assert len(hashes) == 1

    def test_networks_share_topology_artifact(self):
        executor = ServiceExecutor()
        executor.handle(schedule_request(network="a"))
        other = executor.handle(schedule_request(
            network="b", config=dict(CONFIG, workload_seed=9)))
        assert other["cache"]["topology"] == "hit"
        assert other["cache"]["workload"] == "miss"

    def test_rebind_invalidates_old_schedule_artifact(self):
        executor = ServiceExecutor()
        executor.handle(schedule_request())
        before = executor.cache.stats()["invalidations"]
        executor.handle(schedule_request(
            config=dict(CONFIG, flows=9)))
        assert executor.cache.stats()["invalidations"] == before + 1

    def test_counters_reconcile_with_requests(self):
        executor = ServiceExecutor()
        repeats = 4
        for _ in range(repeats):
            executor.handle(schedule_request())
        stats = executor.cache.stats()
        # Every schedule request performs exactly one lookup per kind.
        for kind in ("topology", "workload", "schedule"):
            assert stats["hits"][kind] + stats["misses"][kind] == repeats
        assert stats["hit_total"] + stats["miss_total"] == 3 * repeats
        assert executor.requests["schedule"] == repeats

    def test_include_schedule_payload(self):
        executor = ServiceExecutor()
        result = executor.handle(schedule_request(include_schedule=True))
        assert result["schedule"]["entries"]
        assert json.dumps(result)  # JSON-serializable end to end


class TestExecutorReschedule:
    def test_reschedule_before_schedule_is_an_error(self):
        executor = ServiceExecutor()
        with pytest.raises(ServiceError, match="no schedule yet"):
            executor.handle(parse_request(
                {"verb": "reschedule", "network": "ghost"}))

    def test_auto_reschedule_uses_repair_path(self):
        executor = ServiceExecutor()
        compiled = executor.handle(
            schedule_request(config=REUSE_CONFIG))
        assert compiled["reuse_cells"] > 0
        result = executor.handle(parse_request(
            {"verb": "reschedule", "network": "net-a"}))
        assert result["repair_mode"] == "repair"
        assert result["schedulable"] is True
        assert result["victims"]
        assert result["barred_links"] == len(result["victims"])
        assert result["schedule_hash"] != compiled["schedule_hash"]
        assert executor.fallbacks == 0

    def test_repair_matches_direct_repair_call(self):
        import math

        from repro.core.repair import (ChangeSet, repair_schedule,
                                       smallest_reused_link)

        config = NetworkConfig.from_dict(REUSE_CONFIG)
        executor = ServiceExecutor()
        executor.handle(schedule_request(config=REUSE_CONFIG))
        served = executor.handle(parse_request(
            {"verb": "reschedule", "network": "net-a"}))
        assert served["repair_mode"] == "repair"

        direct = direct_schedule(config)
        victim = smallest_reused_link(direct.schedule)
        outcome = repair_schedule(
            direct.schedule, direct.flow_set,
            executor.sessions["net-a"].prepared.reuse,
            ChangeSet(victims=(victim,)), rho_t=config.rho_t,
            policy_name=config.policy)
        assert outcome.schedulable
        assert outcome.schedule.canonical_hash() == \
            served["schedule_hash"]

    def test_noop_when_nothing_reused(self):
        executor = ServiceExecutor()
        # Tiny workload: no reused cells, so auto finds no victim.
        executor.handle(schedule_request(
            config=dict(CONFIG, flows=3)))
        result = executor.handle(parse_request(
            {"verb": "reschedule", "network": "net-a"}))
        assert result["repair_mode"] == "noop"

    def test_explicit_victims_deduplicated(self):
        executor = ServiceExecutor()
        executor.handle(schedule_request(config=REUSE_CONFIG))
        session = executor.sessions["net-a"]
        link = sorted(tuple(sorted(e.request.link)) for _, _, txs in
                      session.schedule.reused_cells() for e in txs)[0]
        result = executor.handle(parse_request(
            {"verb": "reschedule", "network": "net-a",
             "victims": [list(link), list(reversed(link)), list(link)]}))
        assert result["victims"] == [list(link)]
        # Re-barring the same link is a noop.
        again = executor.handle(parse_request(
            {"verb": "reschedule", "network": "net-a",
             "victims": [list(link)]}))
        assert again["repair_mode"] == "noop"

    def test_unschedulable_compile_is_not_rescheduled(self):
        """A failed compile's partial schedule never goes live: reschedule
        is refused like simulate, and the session stays as compiled."""
        executor = ServiceExecutor()
        compiled = executor.handle(
            schedule_request(config=UNSCHEDULABLE_CONFIG))
        assert compiled["schedulable"] is False
        assert compiled["failed_flow"] == 20
        for verb in ("reschedule", "simulate"):
            with pytest.raises(ServiceError, match="no live schedule"):
                executor.handle(parse_request(
                    {"verb": verb, "network": "net-a"}))
        session = executor.sessions["net-a"]
        assert not session.schedulable
        assert not session.barred
        assert session.schedule.canonical_hash() == \
            compiled["schedule_hash"]
        assert executor.errors == 2

    def test_failed_repair_falls_back_to_the_rebuild(self, monkeypatch):
        from repro.core.repair import smallest_reused_link
        from repro.core.reschedule import reschedule_without_reuse_on
        from repro.experiments.common import make_policy

        executor = ServiceExecutor()
        executor.handle(schedule_request(config=REUSE_CONFIG))
        session = executor.sessions["net-a"]
        victim = smallest_reused_link(session.schedule)
        fail_every_repair(monkeypatch)
        result = executor.handle(parse_request(RESCHEDULE))
        assert result["repair_mode"] == "rebuild"
        assert result["schedulable"] is True
        assert result["victims"] == [list(victim)]
        assert "evicted_cells" not in result
        assert (session.repairs, session.fallbacks) == (0, 1)
        assert executor.fallbacks == 1
        assert executor.status()["repair_fallbacks"] == 1
        assert executor.metrics()["counters"][
            "service.repair_fallbacks"] == 1

        prepared, config = session.prepared, session.config
        direct = reschedule_without_reuse_on(
            session.flow_set, prepared.topology.num_nodes,
            prepared.num_channels, prepared.reuse,
            make_policy(config.policy, config.rho_t), {victim})
        assert direct.schedulable
        assert result["schedule_hash"] == direct.schedule.canonical_hash()
        assert session.barred == {victim}

    def test_unschedulable_rebuild_keeps_the_previous_schedule(
            self, monkeypatch):
        from dataclasses import replace

        from repro.manager import loop as loop_mod

        executor = ServiceExecutor()
        executor.handle(schedule_request(config=REUSE_CONFIG))
        first = executor.handle(parse_request(RESCHEDULE))
        assert first["repair_mode"] == "repair"

        fail_every_repair(monkeypatch)
        real_rebuild = loop_mod.reschedule_without_reuse_on
        monkeypatch.setattr(
            loop_mod, "reschedule_without_reuse_on",
            lambda *args, **kwargs: replace(
                real_rebuild(*args, **kwargs), schedulable=False))
        second = executor.handle(parse_request(RESCHEDULE))
        assert second["repair_mode"] == "rebuild"
        assert second["schedulable"] is False
        assert second["victims"] and second["victims"] != first["victims"]
        assert second["schedule_hash"] == first["schedule_hash"]
        assert second["barred_links"] == first["barred_links"] == 1
        session = executor.sessions["net-a"]
        assert session.schedulable
        assert session.schedule.canonical_hash() == first["schedule_hash"]
        assert (session.repairs, session.fallbacks) == (1, 1)
        assert executor.fallbacks == 1

    def test_reschedule_then_schedule_resets_session(self):
        executor = ServiceExecutor()
        first = executor.handle(schedule_request(config=REUSE_CONFIG))
        executor.handle(parse_request(
            {"verb": "reschedule", "network": "net-a"}))
        again = executor.handle(schedule_request(config=REUSE_CONFIG))
        assert again["schedule_hash"] == first["schedule_hash"]
        assert not executor.sessions["net-a"].barred


class TestExecutorReplay:
    def test_replay_digest(self):
        """A seeded mixed plan pins every remediation path the service
        takes: 28 repairs, 3 rebuild fallbacks and 11 noops."""
        from repro.service.loadgen import LoadgenOptions, build_plan

        executor = ServiceExecutor()
        rows, modes = [], Counter()
        for payload in build_plan(LoadgenOptions(**REPLAY_OPTIONS)):
            result = executor.handle(parse_request(payload))
            rows.append({key: result.get(key) for key in REPLAY_FIELDS})
            if payload["verb"] == "reschedule":
                modes[result["repair_mode"]] += 1
        assert modes == {"repair": 28, "rebuild": 3, "noop": 11}
        assert executor.fallbacks == 3
        text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == REPLAY_DIGEST


class TestExecutorExplainAndStatus:
    def test_explain_lines(self):
        executor = ServiceExecutor()
        executor.handle(schedule_request())
        entry = executor.sessions["net-a"].schedule.entries[0]
        result = executor.handle(parse_request(
            {"verb": "explain", "network": "net-a",
             "link": [entry.request.sender, entry.request.receiver],
             "slot": entry.slot}))
        assert any("slot" in line for line in result["lines"])

    def test_explain_bounds_checked(self):
        executor = ServiceExecutor()
        executor.handle(schedule_request())
        with pytest.raises(ServiceError, match="out of range"):
            executor.handle(parse_request(
                {"verb": "explain", "network": "net-a",
                 "link": [0, 10_000], "slot": 0}))
        with pytest.raises(ServiceError, match="out of range"):
            executor.handle(parse_request(
                {"verb": "explain", "network": "net-a",
                 "link": [0, 1], "slot": 10_000}))

    def test_simulate_ignores_an_engine_key(self):
        """There is one engine: an old client's ``engine`` key is
        ignored like any unknown top-level key, and the response names
        no engine, at 1 repetition or more."""
        executor = ServiceExecutor()
        executor.handle(schedule_request())
        for repetitions in (1, 2):
            request = parse_request(
                {"verb": "simulate", "network": "net-a",
                 "repetitions": repetitions, "engine": "auto"})
            assert "engine" not in request.to_dict()
            result = executor.handle(request)
            assert "engine" not in result
            assert result["repetitions"] == repetitions

    def test_status_shape(self):
        executor = ServiceExecutor(worker_index=3)
        executor.handle(schedule_request())
        status = executor.status()
        assert status["worker"] == 3
        assert status["networks"] == 1
        assert status["requests"] == {"schedule": 1}
        assert status["repair_fallbacks"] == 0
        assert status["cache"]["miss_total"] == 3
        assert "net-a" in status["sessions"]
        assert json.dumps(status)

    def test_errors_counted(self):
        executor = ServiceExecutor()
        with pytest.raises(ServiceError):
            executor.handle(parse_request(
                {"verb": "reschedule", "network": "ghost"}))
        assert executor.errors == 1


class TestLedgerListFilters:
    @pytest.fixture()
    def ledger(self, tmp_path):
        from repro.obs.ledger import RunLedger, new_record

        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        for index, (command, status) in enumerate(
                [("bench", "ok"), ("serve", "ok"), ("serve", "ok"),
                 ("fuzz", "error:ValueError"), ("serve", 2)]):
            record = new_record(command, [], {"i": index})
            ledger.commit(record, status=status)
        return path

    def run_list(self, capsys, ledger, *extra):
        code = main(["ledger", "list", "--ledger", str(ledger), *extra])
        assert code == 0
        out = capsys.readouterr().out
        return [line for line in out.splitlines()[1:] if line.strip()]

    def test_filter_by_command(self, capsys, ledger):
        rows = self.run_list(capsys, ledger, "--command", "serve")
        assert len(rows) == 3
        assert all(" serve " in row for row in rows)

    def test_filter_by_status_prefix(self, capsys, ledger):
        rows = self.run_list(capsys, ledger, "--status", "error")
        assert len(rows) == 1
        assert " fuzz " in rows[0]
        rows = self.run_list(capsys, ledger, "--status", "ok")
        assert len(rows) == 3

    def test_limit_keeps_most_recent(self, capsys, ledger):
        rows = self.run_list(capsys, ledger, "--limit", "2")
        assert len(rows) == 2

    def test_filters_compose(self, capsys, ledger):
        rows = self.run_list(capsys, ledger, "--command", "serve",
                             "--status", "ok", "--limit", "1")
        assert len(rows) == 1
        assert " serve " in rows[0]

    def test_no_match_message(self, capsys, ledger):
        code = main(["ledger", "list", "--ledger", str(ledger),
                     "--command", "nothing"])
        assert code == 0
        assert "no runs recorded" in capsys.readouterr().out


class TestServiceTimeseries:
    """Per-batch service.* series: worker sampling + the top panel."""

    SMALL = {"testbed": "indriya", "seed": 1, "channels": 5, "flows": 4}

    def test_worker_samples_and_exports_series(self, tmp_path):
        import multiprocessing

        from repro.obs.session import RecordingPaths
        from repro.obs.timeseries import TimeSeriesStore
        from repro.service.worker import WorkerOptions, worker_main

        ts_path = tmp_path / "serve-ts.jsonl"
        parent, child = multiprocessing.Pipe()
        for index in range(5):
            parent.send(("request", {
                "id": index, "verb": "schedule", "network": "net-ts",
                "config": dict(self.SMALL)}))
        parent.send(None)
        # Run the worker loop in-process: the pipe already holds the
        # whole conversation, so the loop drains it and returns.
        worker_main(0, child, WorkerOptions(
            batch_size=2,
            recording=RecordingPaths(timeseries=str(ts_path))))
        responses = []
        try:
            # poll() stays True at EOF once the worker closed its end,
            # so the drain terminates via EOFError, not poll().
            while parent.poll():
                responses.append(parent.recv())
        except EOFError:
            pass
        assert responses[-1]["kind"] == "worker_exit"
        assert all(r["ok"] for r in responses[:-1])

        store = TimeSeriesStore.load_jsonl(str(ts_path.parent
                                               / "serve-ts.jsonl.w0"))
        requests = store.get("service.requests")
        # batch_size=2, 5 requests -> batches of 2, 2, 1 (shutdown
        # flush), sampled at t = 0, 1, 2.
        assert [t for t, _ in requests.points] == [0.0, 1.0, 2.0]
        assert [v for _, v in requests.points] == [2.0, 2.0, 1.0]
        assert store.get("service.errors").values() == [0.0, 0.0, 0.0]
        rates = store.get("service.cache_hit_rate").values()
        assert len(rates) == 3 and rates[-1] > rates[0]

    def test_top_renders_service_panel(self):
        from repro.obs.timeseries import TimeSeriesStore
        from repro.obs.top import render_top

        store = TimeSeriesStore()
        for t in range(4):
            store.record("service.requests", float(t), 100.0)
            store.record("service.cache_hit_rate", float(t), 0.2 * t)
        text = render_top(store, None, ascii_only=True)
        assert "service (per batch)" in text
        assert "cache_hit_rate" in text

    def test_top_without_service_series_has_no_panel(self):
        from repro.obs.timeseries import TimeSeriesStore
        from repro.obs.top import render_top

        store = TimeSeriesStore()
        store.record("manager.median_pdr", 0.0, 0.9)
        assert "service (per batch)" not in render_top(
            store, None, ascii_only=True)
