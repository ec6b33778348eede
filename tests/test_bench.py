"""Benchmark harness smoke tests (`python -m repro bench`)."""

from __future__ import annotations

import json

from repro.bench import (
    bench_schedulers,
    compare_bench,
    format_bench,
    run_bench,
)


class TestBench:
    def test_quick_report_structure(self, tmp_path):
        out = tmp_path / "bench.json"
        report = run_bench(str(out), quick=True, seed=1, repetitions=1)

        on_disk = json.loads(out.read_text())
        assert on_disk["mode"] == "quick"
        assert on_disk["environment"]["cpu_count"] >= 1

        rows = report["schedulers"]
        assert {row["policy"] for row in rows} == {"NR", "RA", "RC"}
        for row in rows:
            assert row["scalar"]["wall_s"] > 0
            assert row["vector"]["wall_s"] > 0
            assert row["speedup"] > 0
            assert set(row) == {"num_flows", "policy", "scalar", "vector",
                                "speedup"}
            # Scalar and vector do the same work, so the instrumented
            # counters agree between kernels.
            assert row["scalar"]["placements"] == row["vector"]["placements"]
            assert (row["scalar"]["slots_scanned"]
                    == row["vector"]["slots_scanned"])

        remediation = report["remediation"]
        assert len(remediation) == 1 and remediation[0]["num_flows"] == 30
        cell = remediation[0]
        assert cell["repair"]["schedulable"]
        assert cell["repair"]["evicted_cells"] > 0
        assert cell["repair"]["wall_s"] > 0
        assert cell["rebuild"]["wall_s"] > 0
        assert cell["speedup"] > 1.0
        assert report["headline"]["repair_max_speedup"] == cell["speedup"]

        simulator = report["simulator"]
        assert simulator["sim_repetitions"] == 10
        cells = [cell for cell in simulator["cells"] if "slot" in cell]
        assert cells, "quick simulator bench produced no timed cell"
        for cell in cells:
            assert cell["slot"]["wall_s"] > 0
            assert cell["event"]["wall_s"] > 0
            assert cell["batched"]["wall_s"] > 0
            assert cell["batched_speedup"] > 0

        sweep = report["sweep_workers"]
        assert sweep["outcomes_identical"] is True
        assert set(sweep["wall_s_by_workers"]) == {"1", "4"}
        assert report["headline"]["rc_max_speedup"] > 0
        assert "auto_min_vs_best" not in report["headline"]

        text = format_bench(report)
        assert "RC" in text and "headline" in text
        assert "repair" in text

    def test_compare_gates_remediation_cells(self):
        def fake(repair_s, rebuild_s):
            return {"schedulers": [],
                    "remediation": [{"num_flows": 30, "policy": "RC",
                                     "repair": {"wall_s": repair_s},
                                     "rebuild": {"wall_s": rebuild_s}}]}

        assert compare_bench(fake(0.010, 0.130), fake(0.010, 0.130)) == []
        regressions = compare_bench(fake(0.020, 0.130), fake(0.010, 0.130))
        assert len(regressions) == 1
        assert "remediation@30 [repair]" in regressions[0]

    def test_kernel_divergence_would_abort(self):
        """bench_schedulers compares full schedule signatures; a tiny run
        exercises that cross-check end to end."""
        rows = bench_schedulers((6,), seed=2, repetitions=1)
        assert len(rows) == 3  # one per policy, divergence check passed

