"""Tests for repro.experiments (shared plumbing + per-figure runners).

These are scaled-down versions of the benchmark harness runs — few flow
sets, few repetitions — checking mechanics and the paper's qualitative
orderings where they are cheap to establish.
"""

import numpy as np
import pytest

from repro.core.constraints import validate_schedule
from repro.experiments.common import (
    POLICY_NAMES,
    build_workload,
    make_policy,
    prepare_network,
    schedule_workload,
)
from repro.experiments.detection_exp import run_detection
from repro.experiments.reliability import run_reliability
from repro.experiments.schedulability import run_sweep
from repro.flows.generator import PeriodRange
from repro.routing.traffic import TrafficType

from core_oracles import validate_basic


class TestPrepareNetwork:
    def test_restricts_channels(self, indriya):
        topo, _ = indriya
        network = prepare_network(topo, num_channels=4)
        assert network.num_channels == 4
        assert list(network.topology.channel_map) == [11, 12, 13, 14]

    def test_explicit_channel_list(self, wustl):
        topo, _ = wustl
        network = prepare_network(topo, channels=(12, 14))
        assert list(network.topology.channel_map) == [12, 14]

    def test_two_access_points(self, indriya):
        topo, _ = indriya
        network = prepare_network(topo, num_channels=5)
        assert len(network.access_points) == 2

    def test_graphs_consistent_sizes(self, indriya):
        topo, _ = indriya
        network = prepare_network(topo, num_channels=5)
        assert network.communication.num_nodes == topo.num_nodes
        assert network.reuse.num_nodes == topo.num_nodes


class TestMakePolicy:
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_known_policies(self, name):
        assert make_policy(name).name == name

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_policy("XX")

    def test_rho_t_propagated(self):
        assert make_policy("RA", rho_t=3).rho_t == 3
        assert make_policy("RC", rho_t=3).rho_t == 3


class TestWorkloadAndScheduling:
    def test_build_workload_routed_and_ordered(self, indriya):
        topo, _ = indriya
        network = prepare_network(topo, num_channels=5)
        rng = np.random.default_rng(0)
        fs = build_workload(network, 10, PeriodRange(0, 2),
                            TrafficType.PEER_TO_PEER, rng)
        assert len(fs) == 10
        assert fs.all_routed()
        deadlines = [f.deadline_slots for f in fs]
        assert deadlines == sorted(deadlines)

    def test_centralized_routes_touch_ap(self, indriya):
        topo, _ = indriya
        network = prepare_network(topo, num_channels=5)
        rng = np.random.default_rng(0)
        fs = build_workload(network, 5, PeriodRange(0, 2),
                            TrafficType.CENTRALIZED, rng)
        for flow in fs:
            assert any(n in network.access_points for n in flow.route)

    def test_schedule_workload_valid(self, indriya):
        topo, _ = indriya
        network = prepare_network(topo, num_channels=5)
        rng = np.random.default_rng(1)
        fs = build_workload(network, 15, PeriodRange(0, 2),
                            TrafficType.PEER_TO_PEER, rng)
        for policy in POLICY_NAMES:
            result = schedule_workload(network, fs, policy)
            assert result.schedulable
            validate_basic(result.schedule)
            assert validate_schedule(result.schedule, network.reuse, 2) is None

    def test_nr_schedule_has_no_reuse(self, indriya):
        topo, _ = indriya
        network = prepare_network(topo, num_channels=5)
        rng = np.random.default_rng(1)
        fs = build_workload(network, 15, PeriodRange(0, 2),
                            TrafficType.PEER_TO_PEER, rng)
        result = schedule_workload(network, fs, "NR")
        assert result.schedule.num_reused_cells() == 0

    def test_rc_reuses_less_than_ra(self, indriya):
        """Conservatism: RC shares fewer cells than RA on heavy loads."""
        topo, _ = indriya
        network = prepare_network(topo, num_channels=4)
        rng = np.random.default_rng(2)
        fs = build_workload(network, 40, PeriodRange(-1, 2),
                            TrafficType.PEER_TO_PEER, rng)
        ra = schedule_workload(network, fs, "RA")
        rc = schedule_workload(network, fs, "RC")
        if ra.schedulable and rc.schedulable:
            assert (rc.schedule.num_reused_cells()
                    <= ra.schedule.num_reused_cells())


class TestSweep:
    def test_sweep_vs_flows(self, indriya):
        topo, _ = indriya
        result = run_sweep(topo, TrafficType.PEER_TO_PEER, "flows",
                           [20, 120], fixed_channels=4,
                           period_range=PeriodRange(0, 2),
                           num_flow_sets=3, seed=42)
        ratios = result.schedulable_ratios()
        assert set(ratios) == set(POLICY_NAMES)
        for policy in POLICY_NAMES:
            assert set(ratios[policy]) == {20, 120}
            for value in ratios[policy].values():
                assert 0.0 <= value <= 1.0
        # Channel reuse dominates NR at every point.
        for x in (20, 120):
            assert ratios["RA"][x] >= ratios["NR"][x]
            assert ratios["RC"][x] >= ratios["NR"][x]

    def test_sweep_vs_channels(self, indriya):
        topo, _ = indriya
        result = run_sweep(topo, TrafficType.PEER_TO_PEER, "channels",
                           [3, 5], fixed_flows=40,
                           period_range=PeriodRange(0, 2),
                           num_flow_sets=3, seed=7)
        ratios = result.schedulable_ratios()
        for x in (3, 5):
            assert ratios["RC"][x] >= ratios["NR"][x]

    def test_sweep_collects_histograms(self, indriya):
        topo, _ = indriya
        result = run_sweep(topo, TrafficType.PEER_TO_PEER, "flows",
                           [40], fixed_channels=4,
                           period_range=PeriodRange(0, 2),
                           num_flow_sets=2, seed=1)
        ra_fractions = result.tx_per_cell_fractions("RA")
        assert ra_fractions  # RA reuses, so the histogram is non-empty
        assert sum(ra_fractions.values()) == pytest.approx(1.0)

    def test_sweep_timing_recorded(self, indriya):
        topo, _ = indriya
        result = run_sweep(topo, TrafficType.PEER_TO_PEER, "flows",
                           [20], num_flow_sets=2, seed=1,
                           period_range=PeriodRange(0, 2))
        times = result.mean_times_ms()
        for policy in POLICY_NAMES:
            assert times[policy][20] > 0.0

    def test_invalid_vary(self, indriya):
        topo, _ = indriya
        with pytest.raises(ValueError):
            run_sweep(topo, TrafficType.PEER_TO_PEER, "nodes", [5])


class TestReliabilityExperiment:
    def test_runs_and_orders_policies(self, wustl):
        topo, env = wustl
        outcomes = run_reliability(topo, env, num_flow_sets=2,
                                   repetitions=20, seed=0)
        assert len(outcomes) == 6  # 2 sets x 3 policies
        by_policy = {}
        for outcome in outcomes:
            assert outcome.schedulable
            assert 0.0 <= outcome.worst_pdr <= 1.0
            assert outcome.median_pdr >= outcome.worst_pdr
            by_policy.setdefault(outcome.policy, []).append(outcome)
        # NR schedules contain no shared cells; RA schedules do.
        for outcome in by_policy["NR"]:
            assert set(outcome.tx_hist) == {1}
        for outcome in by_policy["RA"]:
            assert max(outcome.tx_hist) > 1

    def test_keep_stats(self, wustl):
        topo, env = wustl
        outcomes = run_reliability(topo, env, num_flow_sets=1,
                                   repetitions=5, seed=0, keep_stats=True,
                                   policies=("RA",))
        assert outcomes[0].stats is not None
        assert outcomes[0].stats.repetitions == 5


class TestDetectionExperiment:
    def test_structure(self, wustl):
        topo, env = wustl
        from repro.testbeds import WUSTL_PLAN

        outcomes = run_detection(topo, env, WUSTL_PLAN, num_flows=60,
                                 num_epochs=2, repetitions_per_epoch=6,
                                 seed=0)
        assert len(outcomes) == 4  # (RA, RC) x (clean, wifi)
        for outcome in outcomes:
            assert outcome.schedulable
            assert len(outcome.epoch_reports) == 2
            assert set(outcome.rejected_per_epoch) == {0, 1}
        ra_clean = next(o for o in outcomes
                        if o.policy == "RA" and o.condition == "clean")
        rc_clean = next(o for o in outcomes
                        if o.policy == "RC" and o.condition == "clean")
        # RC reuses far fewer links than RA (paper: 20 vs 95).
        assert len(rc_clean.reuse_links) < len(ra_clean.reuse_links)
