"""Tests for the OpenMetrics exposition and its strict parser, plus the
histogram edge cases the exposition must agree with."""

from __future__ import annotations

import math

import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    quantile_from_buckets,
)
from repro.obs.openmetrics import (
    parse_openmetrics,
    render_openmetrics,
    sanitize_name,
)
from repro.obs.timeseries import TimeSeriesStore


class TestSanitizeName:
    def test_dots_and_odd_characters(self):
        assert sanitize_name("scheduler.slots_scanned") \
            == "scheduler_slots_scanned"
        assert sanitize_name("policy.RC.placements") == "policy_RC_placements"
        assert sanitize_name("9starts.with.digit") == "_9starts_with_digit"


class TestRender:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("scheduler.placements", 3)
        registry.set_gauge("manager.rho_t", 2.5)
        registry.observe("hops", 1, buckets=(1, 2, 4))
        registry.observe("hops", 3, buckets=(1, 2, 4))
        registry.observe("hops", 99, buckets=(1, 2, 4))  # overflow bin
        text = render_openmetrics(registry.snapshot())
        assert text.endswith("# EOF\n")

        families = parse_openmetrics(text)
        counter = families["repro_scheduler_placements_total"]
        assert counter["type"] == "counter"
        assert counter["samples"] == [
            ("repro_scheduler_placements_total", {}, 3.0)]
        gauge = families["repro_manager_rho_t"]
        assert gauge["samples"][0][2] == 2.5

        hist = families["repro_hops"]
        assert hist["type"] == "histogram"
        by_le = {s[1]["le"]: s[2] for s in hist["samples"]
                 if s[0] == "repro_hops_bucket"}
        # Cumulative buckets: <=1 holds 1, <=2 still 1, <=4 holds 2,
        # +Inf holds all 3.
        assert by_le == {"1": 1.0, "2": 1.0, "4": 2.0, "+Inf": 3.0}
        flat = {s[0]: s[2] for s in hist["samples"] if not s[1]}
        assert flat["repro_hops_count"] == 3.0
        assert flat["repro_hops_sum"] == pytest.approx(103.0)

    def test_labeled_series_families(self):
        store = TimeSeriesStore()
        store.record("slo.flow.3.pdr", 0, 0.8)
        store.record("slo.flow.3.pdr", 1, 0.9)        # latest wins
        store.record("slo.flow.12.burn_fast", 1, 2.5)
        store.record("slo.flow.12.state", 1, 2)
        store.record("channel.14.prr", 1, 0.77)
        store.record("flow.4.pdr", 1, 0.95)
        store.record("manager.median_pdr", 1, 0.91)   # fallback family
        text = render_openmetrics({}, timeseries=store)
        families = parse_openmetrics(text)

        assert families["repro_slo_pdr"]["samples"] == [
            ("repro_slo_pdr", {"flow": "3"}, 0.9)]
        assert families["repro_slo_burn_fast"]["samples"] == [
            ("repro_slo_burn_fast", {"flow": "12"}, 2.5)]
        assert families["repro_slo_state"]["samples"] == [
            ("repro_slo_state", {"flow": "12"}, 2.0)]
        assert families["repro_channel_prr"]["samples"] == [
            ("repro_channel_prr", {"channel": "14"}, 0.77)]
        assert families["repro_flow_pdr"]["samples"] == [
            ("repro_flow_pdr", {"flow": "4"}, 0.95)]
        assert families["repro_ts_manager_median_pdr"]["samples"] == [
            ("repro_ts_manager_median_pdr", {}, 0.91)]

    def test_series_prefix_becomes_run_label(self):
        store = TimeSeriesStore()
        store.record("reschedule/slo.flow.1.pdr", 0, 0.5)
        store.record("noop/manager.median_pdr", 0, 0.6)
        families = parse_openmetrics(render_openmetrics({},
                                                        timeseries=store))
        assert families["repro_slo_pdr"]["samples"] == [
            ("repro_slo_pdr", {"flow": "1", "run": "reschedule"}, 0.5)]
        assert families["repro_ts_manager_median_pdr"]["samples"] == [
            ("repro_ts_manager_median_pdr", {"run": "noop"}, 0.6)]

    def test_empty_snapshot_renders_bare_eof(self):
        text = render_openmetrics({})
        assert text == "# EOF\n"
        assert parse_openmetrics(text) == {}


class TestServiceFamilies:
    """Cache-lookup counters and request-stage histograms render as
    labeled families and survive the strict parser."""

    def snapshot(self):
        registry = MetricsRegistry()
        registry.inc("service.cache.topology.hit", 5)
        registry.inc("service.cache.topology.miss", 2)
        registry.inc("service.cache.schedule.miss", 4)
        registry.inc("service.repair_fallbacks", 1)
        registry.observe("span.compile.seconds", 0.02,
                         buckets=(0.01, 0.1, 1.0))
        registry.observe("span.shard.queue.seconds", 0.005,
                         buckets=(0.01, 0.1, 1.0))
        return registry.snapshot()

    def test_cache_lookup_counters_are_one_labeled_family(self):
        families = parse_openmetrics(render_openmetrics(self.snapshot()))
        family = families["repro_service_cache_lookups_total"]
        assert family["type"] == "counter"
        by_label = {(labels["kind"], labels["verdict"]): value
                    for _, labels, value in family["samples"]}
        assert by_label == {("topology", "hit"): 5.0,
                            ("topology", "miss"): 2.0,
                            ("schedule", "miss"): 4.0}
        # The raw dotted names must not leak out as their own families.
        assert not any("cache_topology" in name for name in families)

    def test_repair_fallbacks_still_a_plain_counter(self):
        families = parse_openmetrics(render_openmetrics(self.snapshot()))
        assert families["repro_service_repair_fallbacks_total"][
            "samples"] == [
            ("repro_service_repair_fallbacks_total", {}, 1.0)]

    def test_stage_histograms_share_one_family(self):
        families = parse_openmetrics(render_openmetrics(self.snapshot()))
        family = families["repro_stage_seconds"]
        assert family["type"] == "histogram"
        stages = {labels["stage"] for _, labels, _ in family["samples"]
                  if "stage" in labels}
        # Dotted stage names (shard.queue) survive as label values.
        assert stages == {"compile", "shard.queue"}
        counts = {labels["stage"]: value
                  for name, labels, value in family["samples"]
                  if name == "repro_stage_seconds_count"}
        assert counts == {"compile": 1.0, "shard.queue": 1.0}
        buckets = {(labels["stage"], labels["le"]): value
                   for name, labels, value in family["samples"]
                   if name == "repro_stage_seconds_bucket"}
        assert buckets[("compile", "0.1")] == 1.0
        assert buckets[("compile", "0.01")] == 0.0
        assert buckets[("shard.queue", "0.01")] == 1.0
        assert buckets[("shard.queue", "+Inf")] == 1.0

    def test_merged_worker_snapshots_round_trip(self):
        merged = MetricsRegistry.merge_snapshots(
            [self.snapshot(), self.snapshot()])
        families = parse_openmetrics(render_openmetrics(merged))
        by_label = {(labels["kind"], labels["verdict"]): value
                    for _, labels, value
                    in families["repro_service_cache_lookups_total"]
                    ["samples"]}
        assert by_label[("topology", "hit")] == 10.0
        counts = {labels["stage"]: value
                  for name, labels, value
                  in families["repro_stage_seconds"]["samples"]
                  if name == "repro_stage_seconds_count"}
        assert counts == {"compile": 2.0, "shard.queue": 2.0}


class TestStrictParser:
    def test_rejects_missing_eof(self):
        with pytest.raises(ValueError, match="# EOF"):
            parse_openmetrics("# TYPE x counter\nx_total 1\n")

    def test_rejects_early_eof_with_line_number(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_openmetrics("# EOF\nx 1\n# EOF\n")

    def test_rejects_blank_line(self):
        with pytest.raises(ValueError, match="line 2: blank"):
            parse_openmetrics("# TYPE x gauge\n\nx 1\n# EOF\n")

    def test_rejects_sample_outside_family(self):
        with pytest.raises(ValueError, match="outside a TYPE'd family"):
            parse_openmetrics("orphan 1\n# EOF\n")
        with pytest.raises(ValueError, match="outside a TYPE'd family"):
            parse_openmetrics(
                "# TYPE x gauge\nunrelated_name 1\n# EOF\n")

    def test_rejects_duplicate_type(self):
        with pytest.raises(ValueError, match="duplicate TYPE"):
            parse_openmetrics(
                "# TYPE x gauge\nx 1\n# TYPE x gauge\nx 2\n# EOF\n")

    def test_rejects_unknown_type_and_bad_value(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            parse_openmetrics("# TYPE x widget\nx 1\n# EOF\n")
        with pytest.raises(ValueError, match="bad sample value"):
            parse_openmetrics("# TYPE x gauge\nx banana\n# EOF\n")

    def test_rejects_malformed_label(self):
        with pytest.raises(ValueError, match="malformed label"):
            parse_openmetrics('# TYPE x gauge\nx{flow=3} 1\n# EOF\n')

    def test_rejects_declared_family_without_samples(self):
        with pytest.raises(ValueError, match="no samples"):
            parse_openmetrics("# TYPE x gauge\n# EOF\n")
        with pytest.raises(ValueError, match="HELP but no TYPE"):
            parse_openmetrics("# HELP x something\n# EOF\n")

    def test_accepts_special_values_and_escaped_labels(self):
        families = parse_openmetrics(
            '# TYPE x gauge\n'
            'x{msg="a\\"b,c"} +Inf\n'
            'x{msg="two"} NaN\n'
            '# EOF\n')
        samples = families["x"]["samples"]
        assert samples[0][1] == {"msg": 'a\\"b,c'}
        assert samples[0][2] == math.inf
        assert math.isnan(samples[1][2])


# ----------------------------------------------------------------------
# Histogram edge cases (satellite: empty render, single-bucket merge,
# snapshot/exposition quantile consistency)
# ----------------------------------------------------------------------

class TestHistogramEdgeCases:
    def test_empty_histogram_renders_and_parses(self):
        registry = MetricsRegistry()
        registry.histogram("never.observed", buckets=(1, 2))
        text = render_openmetrics(registry.snapshot())
        families = parse_openmetrics(text)
        hist = families["repro_never_observed"]
        assert all(s[2] == 0.0 for s in hist["samples"])
        empty = registry.histogram("never.observed")
        assert quantile_from_buckets(empty.buckets, empty.counts,
                                     0.5) is None
        assert registry.histogram("never.observed").mean() is None

    def test_single_bucket_merge(self):
        left = Histogram("x", buckets=(5,))
        left.observe(1)
        left.observe(9)  # overflow bin
        right = Histogram("x", buckets=(5,))
        right.observe(4)
        left.merge_dict(right.to_dict())
        assert left.counts == [2, 1]
        assert left.count == 3
        assert left.sum == pytest.approx(14.0)
        assert left.min == 1 and left.max == 9

    def test_single_bucket_merge_rejects_mismatched_bounds(self):
        left = Histogram("x", buckets=(5,))
        right = Histogram("x", buckets=(6,))
        right.observe(1)
        with pytest.raises(ValueError, match="bucket bounds mismatch"):
            left.merge_dict(right.to_dict())
        assert left.count == 0  # untouched by the failed merge

    def test_quantile_from_buckets_validation(self):
        with pytest.raises(ValueError, match="q must be"):
            quantile_from_buckets((1,), (0, 0), 1.5)
        with pytest.raises(ValueError, match="bins"):
            quantile_from_buckets((1, 2), (0, 0), 0.5)
        assert quantile_from_buckets((1, 2), (0, 0, 0), 0.5) is None

    def test_overflow_observations_yield_last_finite_bound(self):
        hist = Histogram("x", buckets=(1, 2))
        hist.observe(50)
        assert quantile_from_buckets(hist.buckets, hist.counts,
                                     0.99) == 2.0

    def test_quantiles_agree_between_snapshot_and_exposition(self):
        """The JSON snapshot and the OpenMetrics text are two views of
        one histogram; quantiles computed from either must agree."""
        registry = MetricsRegistry()
        for value in (0.5, 1.5, 1.7, 3.0, 3.2, 9.9):
            registry.observe("lat", value, buckets=(1, 2, 4, 8))
        snapshot = registry.snapshot()["histograms"]["lat"]

        families = parse_openmetrics(render_openmetrics(
            registry.snapshot()))
        buckets = [s for s in families["repro_lat"]["samples"]
                   if s[0] == "repro_lat_bucket"]
        finite = [(float(s[1]["le"]), s[2]) for s in buckets
                  if s[1]["le"] != "+Inf"]
        finite.sort()
        bounds = [b for b, _ in finite]
        # De-cumulate the exposition's bucket counts back to bins.
        cumulative = [c for _, c in finite]
        total = next(s[2] for s in families["repro_lat"]["samples"]
                     if s[0] == "repro_lat_count")
        bins = [int(c - p) for c, p in
                zip(cumulative, [0.0] + cumulative[:-1])]
        bins.append(int(total - cumulative[-1]))

        assert bounds == snapshot["buckets"]
        assert bins == snapshot["counts"]
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert quantile_from_buckets(bounds, bins, q) \
                == quantile_from_buckets(snapshot["buckets"],
                                         snapshot["counts"], q) \
                == quantile_from_buckets(registry.histogram("lat").buckets,
                                         registry.histogram("lat").counts, q)
