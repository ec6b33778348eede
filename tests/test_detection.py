"""Tests for repro.detection (K-S test, health epochs, classifier)."""

import numpy as np
import pytest
import scipy.stats

from repro.detection.classifier import (
    DetectionConfig,
    Verdict,
    diagnose_epoch,
    diagnose_link,
    rejected_links_per_epoch,
)
from repro.detection.health import (
    EpochReport,
    LinkEpochReport,
    build_epoch_report,
    build_epoch_reports,
)
from repro.detection.kstest import (
    KsResult,
    kolmogorov_survival,
    ks_2samp,
    ks_statistic,
)
from repro.simulator.stats import SimulationStats


# ----------------------------------------------------------------------
# K-S test
# ----------------------------------------------------------------------

class TestKsStatistic:
    def test_identical_samples(self):
        assert ks_statistic([1, 2, 3], [1, 2, 3]) == 0.0

    def test_disjoint_samples(self):
        assert ks_statistic([0, 1, 2], [10, 11, 12]) == 1.0

    def test_half_overlap(self):
        assert ks_statistic([1, 2], [2, 3]) == pytest.approx(0.5)

    def test_symmetry(self):
        a, b = [0.1, 0.5, 0.9], [0.3, 0.4, 0.8, 0.95]
        assert ks_statistic(a, b) == ks_statistic(b, a)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], [1.0])

    def test_matches_scipy_statistic(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            a = rng.normal(0, 1, rng.integers(3, 40)).tolist()
            b = rng.normal(rng.uniform(-1, 1), 1,
                           rng.integers(3, 40)).tolist()
            ours = ks_statistic(a, b)
            scipys = scipy.stats.ks_2samp(a, b).statistic
            assert ours == pytest.approx(scipys, abs=1e-12)

    def test_ties_handled(self):
        """Heavy ties (common in PRR samples like 1.0, 1.0, ...)"""
        a = [1.0] * 10
        b = [1.0] * 9 + [0.5]
        expected = scipy.stats.ks_2samp(a, b).statistic
        assert ks_statistic(a, b) == pytest.approx(expected, abs=1e-12)


class TestKolmogorovSurvival:
    def test_at_zero(self):
        assert kolmogorov_survival(0.0) == 1.0

    def test_large_argument(self):
        assert kolmogorov_survival(5.0) < 1e-12

    def test_monotone_decreasing(self):
        values = [kolmogorov_survival(x) for x in (0.3, 0.6, 1.0, 1.5, 2.0)]
        assert values == sorted(values, reverse=True)

    def test_known_value(self):
        # Q_KS(1.0) ≈ 0.27 (standard tables).
        assert kolmogorov_survival(1.0) == pytest.approx(0.27, abs=0.01)


class TestKs2Samp:
    def test_same_distribution_high_p(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, 30).tolist()
        b = rng.uniform(0, 1, 30).tolist()
        result = ks_2samp(a, b)
        assert result.p_value > 0.05
        assert not result.reject(0.05)

    def test_different_distributions_low_p(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, 40).tolist()
        b = rng.normal(3, 1, 40).tolist()
        result = ks_2samp(a, b)
        assert result.p_value < 0.001
        assert result.reject(0.05)

    def test_p_value_close_to_scipy(self):
        rng = np.random.default_rng(3)
        for shift in (0.0, 0.5, 1.5):
            a = rng.normal(0, 1, 25).tolist()
            b = rng.normal(shift, 1, 30).tolist()
            ours = ks_2samp(a, b)
            scipys = scipy.stats.ks_2samp(a, b, method="asymp")
            assert ours.p_value == pytest.approx(scipys.pvalue, abs=0.05)

    def test_reject_alpha_validation(self):
        result = ks_2samp([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            result.reject(0.0)

    def test_sizes_recorded(self):
        result = ks_2samp([1, 2, 3], [4, 5])
        assert (result.n1, result.n2) == (3, 2)


# ----------------------------------------------------------------------
# Health epochs
# ----------------------------------------------------------------------

def stats_with_pattern(reuse_prrs, cf_prrs, link=(0, 1)):
    """Build SimulationStats with one sample per repetition per category."""
    stats = SimulationStats()
    for reuse_value, cf_value in zip(reuse_prrs, cf_prrs):
        record = stats.start_repetition()
        for _ in range(10):
            record.record(link, True, np.random.default_rng(0).random()
                          < reuse_value)
        # Deterministic approximations: encode the PRR by success counts.
        record.reuse[link].attempts = 10
        record.reuse[link].successes = int(round(10 * reuse_value))
        record.contention_free[link].attempts = 10
        record.contention_free[link].successes = int(round(10 * cf_value))
    return stats


class TestEpochReports:
    def test_grouping(self):
        stats = stats_with_pattern([1.0] * 6, [1.0] * 6)
        reports = build_epoch_reports(stats, repetitions_per_epoch=3)
        assert len(reports) == 2
        assert reports[0].epoch == 0
        assert len(reports[0].links[(0, 1)].reuse_samples) == 3

    def test_partial_epoch_dropped(self):
        stats = stats_with_pattern([1.0] * 7, [1.0] * 7)
        reports = build_epoch_reports(stats, repetitions_per_epoch=3)
        assert len(reports) == 2

    def test_pooled_prr(self):
        stats = stats_with_pattern([0.5, 1.0], [1.0, 1.0])
        reports = build_epoch_reports(stats, repetitions_per_epoch=2)
        report = reports[0].links[(0, 1)]
        assert report.reuse_prr == pytest.approx(0.75)
        assert report.contention_free_prr == 1.0

    def test_reuse_links_listed(self):
        stats = SimulationStats()
        record = stats.start_repetition()
        record.record((0, 1), True, True)
        record.record((2, 3), False, True)
        reports = build_epoch_reports(stats, repetitions_per_epoch=1)
        assert reports[0].reuse_links() == [(0, 1)]

    def test_invalid_epoch_size(self):
        with pytest.raises(ValueError):
            build_epoch_reports(SimulationStats(), 0)

    def test_fewer_repetitions_than_one_epoch_yields_nothing(self):
        stats = stats_with_pattern([1.0] * 2, [1.0] * 2)
        assert build_epoch_reports(stats, repetitions_per_epoch=3) == []

    @pytest.mark.parametrize("total, per_epoch, expected",
                             [(5, 3, 1), (6, 3, 2), (1, 1, 1), (17, 18, 0),
                              (19, 18, 1)])
    def test_non_divisible_sample_counts(self, total, per_epoch, expected):
        stats = stats_with_pattern([1.0] * total, [1.0] * total)
        reports = build_epoch_reports(stats, per_epoch)
        assert len(reports) == expected
        for epoch, report in enumerate(reports):
            assert report.epoch == epoch
            assert len(report.links[(0, 1)].reuse_samples) == per_epoch

    def test_contention_free_only_link_has_empty_reuse_side(self):
        stats = SimulationStats()
        record = stats.start_repetition()
        record.record((0, 1), False, True)  # never in a shared cell
        reports = build_epoch_reports(stats, repetitions_per_epoch=1)
        report = reports[0].links[(0, 1)]
        assert report.reuse_samples == ()
        assert report.reuse_prr is None
        assert report.contention_free_prr == 1.0
        assert reports[0].reuse_links() == []

    def test_streaming_report_matches_batched_slice(self):
        """build_epoch_report over an explicit window (the manager's
        streaming path) must equal the batched grouping's epoch."""
        reuse = [1.0, 0.5, 0.8, 0.2, 0.6, 0.9]
        cf = [1.0, 1.0, 0.9, 0.8, 1.0, 0.7]
        stats = stats_with_pattern(reuse, cf)
        batched = build_epoch_reports(stats, repetitions_per_epoch=3)
        streamed = build_epoch_report(stats, epoch=1, window=(3, 6))
        assert streamed == batched[1]

    def test_default_window_spans_every_repetition(self):
        stats = stats_with_pattern([1.0, 0.0], [1.0, 1.0])
        report = build_epoch_report(stats, epoch=0)
        assert len(report.links[(0, 1)].reuse_samples) == 2
        assert report.links[(0, 1)].reuse_prr == pytest.approx(0.5)

    @pytest.mark.parametrize("window", [None, (0, 4), (3, 9), (7, 12)])
    def test_one_walk_equals_the_per_link_lookups(self, window):
        """The report's single walk over the window gives exactly the
        SimulationStats per-link queries' samples and pooled PRRs, for
        every link seen anywhere in the run (links idle in the window
        included)."""
        rng = np.random.default_rng(4)
        stats = SimulationStats()
        links = [(0, 1), (1, 2), (2, 3), (3, 0)]
        for repetition in range(12):
            record = stats.start_repetition()
            for index, link in enumerate(links):
                if (repetition + index) % 5 == 0:
                    continue
                for _ in range(int(rng.integers(1, 4))):
                    record.record(link, bool(rng.random() < 0.5),
                                  bool(rng.random() < 0.7))
        report = build_epoch_report(stats, epoch=2, window=window)
        assert sorted(report.links) == stats.links_seen()
        for link, entry in report.links.items():
            for shared, samples, prr in (
                    (True, entry.reuse_samples, entry.reuse_prr),
                    (False, entry.contention_free_samples,
                     entry.contention_free_prr)):
                assert samples == tuple(stats.link_prr_samples(
                    link, shared, repetition_range=window))
                assert prr == stats.overall_link_prr(
                    link, shared, repetition_range=window)


# ----------------------------------------------------------------------
# Classifier
# ----------------------------------------------------------------------

def link_report(reuse_samples, cf_samples, link=(0, 1), epoch=0):
    reuse_prr = (sum(reuse_samples) / len(reuse_samples)
                 if reuse_samples else None)
    cf_prr = sum(cf_samples) / len(cf_samples) if cf_samples else None
    return LinkEpochReport(
        link=link, epoch=epoch,
        reuse_samples=tuple(reuse_samples),
        contention_free_samples=tuple(cf_samples),
        reuse_prr=reuse_prr, contention_free_prr=cf_prr)


class TestClassifier:
    def test_healthy_link_is_ok(self):
        report = link_report([1.0] * 18, [1.0] * 18)
        diagnosis = diagnose_link(report)
        assert diagnosis.verdict is Verdict.OK

    def test_reuse_degraded_link_rejected(self):
        """Good contention-free PRR, bad reuse PRR → reject (reuse is the
        cause)."""
        report = link_report([0.4, 0.5, 0.3, 0.6, 0.5, 0.4] * 3,
                             [1.0, 0.95, 1.0, 0.98, 1.0, 0.97] * 3)
        diagnosis = diagnose_link(report)
        assert diagnosis.verdict is Verdict.REJECT
        assert diagnosis.ks is not None
        assert diagnosis.ks.p_value < 0.05

    def test_externally_degraded_link_accepted(self):
        """Bad in both conditions → accept (cause is elsewhere)."""
        samples = [0.5, 0.6, 0.4, 0.55, 0.45, 0.5] * 3
        report = link_report(samples, samples)
        diagnosis = diagnose_link(report)
        assert diagnosis.verdict is Verdict.ACCEPT

    def test_non_reuse_link_not_considered(self):
        report = link_report([], [1.0] * 10)
        assert diagnose_link(report) is None

    def test_insufficient_data(self):
        report = link_report([0.5], [])
        diagnosis = diagnose_link(report)
        assert diagnosis.verdict is Verdict.INSUFFICIENT_DATA

    def test_threshold_boundary(self):
        config = DetectionConfig(prr_threshold=0.9)
        report = link_report([0.9] * 10, [1.0] * 10)
        assert diagnose_link(report, config).verdict is Verdict.OK

    def test_diagnose_epoch_sorted(self):
        links = {
            (2, 3): link_report([1.0] * 5, [1.0] * 5, link=(2, 3)),
            (0, 1): link_report([1.0] * 5, [1.0] * 5, link=(0, 1)),
        }
        report = EpochReport(epoch=0, links=links)
        diagnoses = diagnose_epoch(report)
        assert [d.link for d in diagnoses] == [(0, 1), (2, 3)]

    def test_rejected_links_per_epoch(self):
        degraded = link_report([0.4, 0.5, 0.3, 0.6, 0.5, 0.4] * 3,
                               [1.0, 0.95, 1.0, 0.98, 1.0, 0.97] * 3)
        healthy = link_report([1.0] * 18, [1.0] * 18, link=(4, 5))
        epoch = EpochReport(epoch=0, links={(0, 1): degraded,
                                            (4, 5): healthy})
        rejected = rejected_links_per_epoch([epoch])
        assert rejected == {0: [(0, 1)]}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectionConfig(alpha=1.5)
        with pytest.raises(ValueError):
            DetectionConfig(prr_threshold=0.0)
        with pytest.raises(ValueError):
            DetectionConfig(min_samples=0)


# ----------------------------------------------------------------------
# Section VI on Fig 8's flow set 3 (known answers)
# ----------------------------------------------------------------------

class TestFig8FlowSet3:
    """The detector on the one flow set where RC's worst case falls
    clearly below NR's.

    Flow set 3 is drawn as ``run_reliability(seed=0)`` draws it (seed
    0 + 3, schedulable under all three policies) and RC's schedule is
    simulated with that run's seed 1000 + 3.  Flow 36 (link 32→22)
    shares slots 2–3 at offset 0 with flow 0 (link 24→28).  These pins
    are today's evidence, not a claim that the verdicts are right:
    24→28 is degraded only in the shared cells, yet the per-epoch K-S
    test cannot reject it, and 32→22 has no contention-free baseline at
    all.
    """

    @pytest.fixture(scope="class")
    def set3(self, wustl):
        from repro.experiments.common import POLICY_NAMES, prepare_network
        from repro.experiments.reliability import (
            DEFAULT_FLOW_MIX, RELIABILITY_CHANNELS, _schedulable_flow_set)
        from repro.simulator.engine import SimulationConfig, TschSimulator

        topology, environment = wustl
        network = prepare_network(topology, channels=RELIABILITY_CHANNELS)
        flow_set, results = _schedulable_flow_set(
            network, DEFAULT_FLOW_MIX, POLICY_NAMES, 2, 0 + 3)
        assert all(result.schedulable for result in results.values())
        schedule = results["RC"].schedule
        stats = TschSimulator(
            schedule=schedule, flow_set=flow_set, environment=environment,
            channel_map=network.topology.channel_map,
            config=SimulationConfig(seed=1000 + 3)).run(54)
        return schedule, stats

    def test_the_shared_cells(self, set3):
        schedule, _ = set3
        cells = {(e.request.flow_id, e.request.sender, e.request.receiver,
                  e.slot, e.offset) for e in schedule.entries
                 if e.slot in (2, 3) and e.offset == 0}
        assert cells == {(0, 24, 28, 2, 0), (0, 24, 28, 3, 0),
                         (36, 32, 22, 2, 0), (36, 32, 22, 3, 0)}

    def test_worst_pdr(self, set3):
        _, stats = set3
        assert stats.worst_pdr() == 47 / 54
        assert stats.flow_delivered[36] == 47
        assert stats.flow_released[36] == 54

    def test_three_epoch_verdicts(self, set3):
        from repro.detection.health import StreamingHealthMonitor

        _, stats = set3
        reports = build_epoch_reports(stats, 18)
        assert len(reports) == 3
        monitor = StreamingHealthMonitor()
        verdicts = []
        for report in reports:
            diagnoses = diagnose_epoch(report)
            by_link = {d.link: d for d in diagnoses}
            victim, partner = by_link[(24, 28)], by_link[(32, 22)]
            verdicts.append((
                victim.verdict, victim.reuse_prr,
                victim.contention_free_prr,
                round(victim.ks.statistic, 3), round(victim.ks.p_value, 3),
                partner.verdict, partner.reuse_prr,
                partner.contention_free_prr, partner.ks))
            monitor.observe(diagnoses)
        accept, short = Verdict.ACCEPT, Verdict.INSUFFICIENT_DATA
        assert verdicts == [
            (accept, pytest.approx(2 / 3), 1.0, 0.333, 0.218,
             short, pytest.approx(3 / 5), None, None),
            (accept, pytest.approx(17 / 25), 1.0, 0.389, 0.098,
             short, pytest.approx(8 / 13), None, None),
            (accept, pytest.approx(17 / 24), 1.0, 0.333, 0.218,
             short, pytest.approx(16 / 27), None, None),
        ]
        # The monitor confirms 24→28 as external and 32→22 as a suspect
        # (reuse PRR below 0.7 for two epochs); nothing is a victim.
        assert (24, 28) in monitor.confirmed_external()
        assert monitor.confirmed_suspects() == [(32, 22)]
        assert monitor.confirmed_reuse_victims() == []
