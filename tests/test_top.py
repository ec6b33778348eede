"""Tests for the `repro top` ASCII observatory (repro.obs.top)."""

from __future__ import annotations

from repro.obs.slo import SloConfig
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.top import SPARK_ASCII, SPARK_CHARS, bar, render_top, sparkline


class TestSparkline:
    def test_empty_and_flat(self):
        assert sparkline([]) == ""
        flat = sparkline([0.5, 0.5, 0.5])
        assert flat == SPARK_CHARS[len(SPARK_CHARS) // 2] * 3

    def test_shape_is_min_max_normalized(self):
        ramp = sparkline([0.0, 1.0])
        assert ramp == SPARK_CHARS[0] + SPARK_CHARS[-1]
        # Absolute levels don't matter, only shape.
        assert sparkline([100.0, 101.0]) == ramp

    def test_window_keeps_the_tail(self):
        values = list(range(100))
        assert len(sparkline(values, width=10)) == 10
        # The tail of an increasing series ends at the top of the ramp.
        assert sparkline(values, width=10)[-1] == SPARK_CHARS[-1]

    def test_ascii_fallback(self):
        out = sparkline([0.0, 1.0], ascii_only=True)
        assert out == SPARK_ASCII[0] + SPARK_ASCII[-1]
        assert all(ord(c) < 128 for c in out)


class TestBar:
    def test_full_empty_and_clamped(self):
        assert bar(1.0, width=4) == "[████]"
        assert bar(0.0, width=4) == "[░░░░]"
        assert bar(2.0, width=4) == bar(1.0, width=4)
        assert bar(-1.0, width=4) == bar(0.0, width=4)

    def test_ascii_fallback(self):
        assert bar(0.5, width=4, ascii_only=True) == "[##--]"


def storm_store():
    """A synthetic store shaped like a short managed run."""
    store = TimeSeriesStore()
    for epoch in range(6):
        pdr = 0.95 if epoch < 3 else 0.55
        store.record("manager.median_pdr", epoch, pdr)
        store.record("manager.worst_pdr", epoch, pdr - 0.2)
        store.record("manager.actions", epoch, 1.0 if epoch == 4 else 0.0)
        store.record("manager.slo_alerting", epoch,
                     2.0 if epoch >= 3 else 0.0)
        store.record("channel.11.prr", epoch, pdr)
        store.record("channel.15.prr", epoch, 0.99)
        # Flow 1 dies in the storm, flow 2 stays healthy.
        bad = epoch >= 3
        store.record("slo.flow.1.pdr", epoch, 0.4 if bad else 1.0)
        store.record("slo.flow.1.burn_fast", epoch, 4.0 if bad else 0.0)
        store.record("slo.flow.1.burn_slow", epoch, 3.0 if bad else 0.0)
        store.record("slo.flow.2.pdr", epoch, 1.0)
        store.record("slo.flow.2.burn_fast", epoch, 0.0)
        store.record("slo.flow.2.burn_slow", epoch, 0.0)
    return store


class TestRenderTop:
    def test_empty_store_renders_no_data_panels(self):
        out = render_top(TimeSeriesStore())
        assert "repro top" in out
        assert "series: 0" in out
        assert out.count("(no data)") >= 3  # manager, channels, health

    def test_full_dashboard(self):
        out = render_top(storm_store(), snapshot={
            "counters": {"slo.alerts": 2, "manager.epochs": 6}},
            source="ts.jsonl")
        assert "source: ts.jsonl" in out
        assert "median PDR  0.550" in out
        assert "(epoch 5)" in out
        # Alerting flow sorts first and is marked; healthy flow is ok.
        flow_lines = [l for l in out.splitlines()
                      if l.strip().startswith(("1 ", "2 "))]
        assert "ALERT!" in flow_lines[0] and flow_lines[0].strip(
            ).startswith("1")
        assert "ok" in flow_lines[1]
        assert "totals: 1 alert, 0 warn, 1 ok" in out
        assert "ch 11" in out and "ch 15" in out
        assert "slo alerts" in out
        assert "manager epochs" in out

    def test_burn_threshold_rederives_state(self):
        # With a sky-high threshold nothing alerts; with a low one the
        # healthy flow still doesn't (its burn is exactly 0).
        relaxed = render_top(storm_store(),
                             slo_config=SloConfig(burn_threshold=100.0))
        assert "ALERT!" not in relaxed
        assert "totals: 0 alert, 0 warn, 2 ok" in relaxed

    def test_warn_state_needs_only_the_fast_window(self):
        store = TimeSeriesStore()
        store.record("slo.flow.7.pdr", 0, 0.8)
        store.record("slo.flow.7.burn_fast", 0, 5.0)
        store.record("slo.flow.7.burn_slow", 0, 0.5)
        out = render_top(store)
        assert "WARN" in out
        assert "ALERT!" not in out

    def test_max_flows_summarizes_hidden_rows(self):
        store = TimeSeriesStore()
        for flow in range(5):
            store.record(f"slo.flow.{flow}.pdr", 0, 1.0)
            store.record(f"slo.flow.{flow}.burn_fast", 0,
                         3.0 if flow == 4 else 0.0)
            store.record(f"slo.flow.{flow}.burn_slow", 0,
                         3.0 if flow == 4 else 0.0)
        out = render_top(store, max_flows=2)
        assert "… 3 more flows (0 warn/alert) not shown" in out
        # The alerting flow made the cut ahead of healthy lower ids.
        assert "ALERT!" in out

    def test_ascii_only_renders_pure_ascii(self):
        out = render_top(storm_store(), ascii_only=True,
                         snapshot={"counters": {"slo.alerts": 2}})
        body = out.replace("─", "-").replace("…", "...")
        assert all(ord(c) < 128 for c in body)


class TestHealthPanel:
    def test_rows_render_from_a_recorded_manage_run(self, tmp_path,
                                                    capsys):
        """Every health row reads a counter the manage loop records: a
        recorded reuse-storm run's K-S rejections show up in the panel
        with the snapshot's ``detection.verdict.reject`` count."""
        from repro.cli import main
        from repro.io import load_metrics

        metrics = tmp_path / "m.json"
        assert main(["manage", "--quick", "--epochs", "6", "--policy",
                     "reschedule", "--seed", "3", "--metrics-out",
                     str(metrics), "--no-ledger"]) == 0
        capsys.readouterr()
        snapshot = load_metrics(metrics)
        counters = snapshot["counters"]
        assert counters["detection.verdict.reject"] == 4

        out = render_top(TimeSeriesStore(), snapshot=snapshot)
        health = out[out.index("health"):]
        rows = {line[:18].strip(): line[18:].strip()
                for line in health.splitlines()[1:] if line.strip()}
        assert rows["K-S rejections"] == "4"
        assert rows["manager epochs"] == "6"
        assert rows["actions applied"] == "3"
        # A clean run fails no audit, so that row stays out.
        assert "audit failures" not in rows
