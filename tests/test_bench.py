"""Decision benchmark tests (`python -m repro bench`)."""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

from repro import bench
from repro.bench import (
    HOLDS,
    LOST,
    UNRESOLVED,
    bench_schedulers,
    format_bench,
    judge,
    run_bench,
)
from repro.cli import main


class TestBench:
    def test_quick_report_structure(self, tmp_path):
        out = tmp_path / "bench.json"
        report = run_bench(str(out), quick=True, seed=1, rounds=1)

        on_disk = json.loads(out.read_text())
        assert on_disk["mode"] == "quick"
        assert on_disk["rounds"] == 1
        assert on_disk["environment"]["cpu_count"] >= 1

        cells = {cell["name"]: cell for cell in report["decisions"]}
        assert list(cells) == ["RC@20", "remediation@30",
                               "simulator@20x10"]
        for cell in cells.values():
            assert cell["verdict"] in (HOLDS, UNRESOLVED, LOST)
            assert set(cell["wall_s"]) == {cell["chosen"], cell["other"]}
            assert all(wall > 0 for wall in cell["wall_s"].values())
            ratio = cell["ratio"]
            assert 0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]

        # The chosen path is the one the code runs.
        rc = cells["RC@20"]
        assert (rc["chosen"], rc["other"]) == ("fused", "stepwise")
        assert rc["placements"] > 0
        assert rc["slots_scanned"] >= rc["placements"]
        repair = cells["remediation@30"]
        assert (repair["chosen"], repair["other"]) == ("repair", "rebuild")
        assert repair["schedulable"] == {"repair": True, "rebuild": True}
        assert repair["evicted_cells"] > 0
        simulator = cells["simulator@20x10"]
        assert (simulator["chosen"], simulator["other"]) == ("batched",
                                                             "slot")

        text = format_bench(report)
        assert all(name in text for name in cells)
        assert "decisions: " in text

    def test_failed_repair_serves_the_rebuild(self, monkeypatch):
        """The remediation cell times remediate(), the call the manager
        and the service make: when repair fails placement, the chosen
        path's result is the rebuild's schedule, and the cell says the
        repair did not place."""
        from repro.manager import loop

        real_repair = loop.repair_schedule

        def unplaced(*args, **kwargs):
            return dataclasses.replace(real_repair(*args, **kwargs),
                                       schedulable=False)

        monkeypatch.setattr(loop, "repair_schedule", unplaced)
        captured = {}
        decide = bench._decide

        def capture(paths, chosen, rounds):
            decision, results = decide(paths, chosen, rounds)
            captured.update(results)
            return decision, results

        monkeypatch.setattr(bench, "_decide", capture)
        [cell] = bench.bench_remediation((30,), seed=1, rounds=1)
        remedy, rebuilt = captured["repair"], captured["rebuild"]
        assert (remedy.mode, remedy.fallback) == ("rebuild", "placement")
        assert rebuilt.schedulable
        assert remedy.schedule.canonical_hash() == \
            rebuilt.schedule.canonical_hash()
        assert cell["schedulable"] == {"repair": False, "rebuild": True}
        assert cell["evicted_cells"] > 0

    def test_kernel_divergence_would_abort(self, monkeypatch):
        """bench_schedulers compares full schedule signatures: a tiny run
        passes the cross-check, and a stepwise path that places
        differently aborts it."""
        cells = bench_schedulers((6,), seed=2, rounds=1)
        assert [cell["name"] for cell in cells] == ["RC@6"]

        def one_placement_short(network, flow_set):
            result = bench.schedule_workload(network, flow_set, "RC")
            result.schedule.evict([len(result.schedule) - 1])
            return result

        monkeypatch.setattr(bench, "_schedule_stepwise", one_placement_short)
        with pytest.raises(AssertionError, match="descent divergence"):
            bench_schedulers((6,), seed=2, rounds=1)

    @pytest.mark.parametrize("ratios, verdict", [
        ([1.3, 0.9, 1.2, 1.1, 1.4], HOLDS),       # won 4 of 5 rounds
        ([1.3, 0.9, 0.8, 1.1, 1.4], UNRESOLVED),  # won 3
        ([0.9, 1.2, 1.1, 0.8, 0.7], UNRESOLVED),  # lost 3
        ([1.0, 1.0, 1.0, 1.0, 1.0], UNRESOLVED),  # ties win nothing
        ([0.9, 1.2, 0.6, 0.8, 0.7], LOST),        # lost 4 of 5
    ])
    def test_verdict_rule(self, ratios, verdict):
        judged = judge(ratios)
        assert judged["verdict"] == verdict
        assert judged["ratio"]["median"] == sorted(ratios)[2]

    def test_decision_interleaves_and_divides_other_by_chosen(
            self, monkeypatch):
        """Synthetic clock: the chosen path costs 1, the other 3, except
        one slow chosen round; every round runs both paths, alternating
        which goes first."""
        clock = [0.0]
        calls = []

        def path(name, costs):
            def run():
                calls.append(name)
                clock[0] += next(costs)
                return name
            return run

        monkeypatch.setattr(bench.time, "perf_counter", lambda: clock[0])
        decision, results = bench._decide(
            {"fast": path("fast", iter([1.0, 1.0, 6.0, 1.0, 1.0])),
             "slow": path("slow", itertools.repeat(3.0))}, "fast", 5)
        assert calls == ["fast", "slow", "slow", "fast"] * 2 + ["fast",
                                                                "slow"]
        assert results == {"fast": "fast", "slow": "slow"}
        assert decision["wall_s"] == {"fast": 1.0, "slow": 3.0}
        assert decision["ratio"] == {"q1": 3.0, "median": 3.0, "q3": 3.0}
        assert decision["verdict"] == HOLDS
        assert (decision["chosen"], decision["other"]) == ("fast", "slow")


def _fake_report(verdict):
    return {
        "mode": "full", "seed": 0, "rounds": 5,
        "environment": {"cpu_count": 2},
        "decisions": [{
            "name": "RC@20", "chosen": "fused", "other": "stepwise",
            "wall_s": {"fused": 0.03, "stepwise": 0.02},
            "ratio": {"q1": 0.6, "median": 0.7, "q3": 0.8},
            "verdict": verdict,
        }],
    }


class TestBenchCli:
    @pytest.mark.parametrize("verdict, status",
                             [(HOLDS, 0), (UNRESOLVED, 0), (LOST, 3)])
    def test_exit_status_follows_lost_decisions(self, monkeypatch, capsys,
                                                verdict, status):
        seen = {}

        def fake_run_bench(out, **options):
            seen.update(options, out=out)
            return _fake_report(verdict)

        monkeypatch.setattr(bench, "run_bench", fake_run_bench)
        assert main(["bench", "--seed", "0", "--out", "-",
                     "--no-ledger"]) == status
        assert seen == {"out": "-", "quick": False, "seed": 0, "rounds": 5}
        captured = capsys.readouterr()
        assert "RC@20" in captured.out
        if status:
            assert "decision lost: RC@20" in captured.err
        else:
            assert captured.err == ""
