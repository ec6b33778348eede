"""Tests for repro.analysis.metrics."""

import pytest

from repro.analysis.metrics import (
    BoxStats,
    cell_min_reuse_hops,
    reuse_hop_distribution,
    schedulable_ratio,
    tx_per_cell_distribution,
)
from repro.core.schedule import Schedule
from repro.core.scheduler import SchedulingResult
from repro.experiments.schedulability import SweepResult, TrialOutcome
from repro.flows.flow import FlowSet
from repro.network.graphs import ChannelReuseGraph

from test_core_schedule import request


def pooled_sweep(schedules, reuse=None):
    """A one-point RC sweep whose outcomes carry each schedule's
    histograms, as a sweep trial harvests them."""
    outcomes = [TrialOutcome(
        x=0, set_index=index, policy="RC", schedulable=True, elapsed_s=0.0,
        tx_hist=tx_per_cell_distribution(schedule),
        hop_hist=(reuse_hop_distribution(schedule, reuse)
                  if reuse is not None else {}))
        for index, schedule in enumerate(schedules)]
    return SweepResult("flows", [0], ("RC",), outcomes)


def fake_result(schedulable):
    return SchedulingResult(schedulable=schedulable,
                            schedule=Schedule(2, 1, 1),
                            flow_set=FlowSet([]), policy_name="NR")


class TestSchedulableRatio:
    def test_ratio(self):
        results = [fake_result(True), fake_result(False), fake_result(True)]
        assert schedulable_ratio(results) == pytest.approx(2 / 3)

    def test_empty(self):
        assert schedulable_ratio([]) == 0.0


class TestTxPerCell:
    def test_distribution(self):
        schedule = Schedule(8, 10, 2)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(2, 3), 0, 0)
        schedule.add(request(4, 5), 0, 1)
        schedule.add(request(6, 7), 1, 0)
        assert tx_per_cell_distribution(schedule) == {1: 2, 2: 1}

    def test_fractions_pool_over_schedules(self):
        schedules = []
        for _ in range(2):
            schedule = Schedule(8, 10, 2)
            schedule.add(request(0, 1), 0, 0)
            schedule.add(request(2, 3), 0, 0)
            schedules.append(schedule)
        fractions = pooled_sweep(schedules).tx_per_cell_fractions("RC")
        assert fractions == {2: 1.0}

    def test_empty_schedules(self):
        assert pooled_sweep([Schedule(2, 2, 1)]).tx_per_cell_fractions(
            "RC") == {}


class TestReuseHops:
    def test_cell_min_hops(self, line_topology):
        reuse = ChannelReuseGraph.from_topology(line_topology)
        schedule = Schedule(6, 10, 1)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(4, 5), 0, 0)
        _, _, txs = schedule.reused_cells()[0]
        # Pairwise distances: hop(0,5)=5, hop(4,1)=3 -> min 3.
        assert cell_min_reuse_hops(txs, reuse) == 3

    def test_single_transmission_cell_is_none(self, line_topology):
        reuse = ChannelReuseGraph.from_topology(line_topology)
        schedule = Schedule(6, 10, 1)
        schedule.add(request(0, 1), 0, 0)
        cells = list(schedule.occupied_cells())
        assert cell_min_reuse_hops(cells[0][2], reuse) is None

    def test_distribution(self, line_topology):
        reuse = ChannelReuseGraph.from_topology(line_topology)
        schedule = Schedule(6, 10, 1)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(4, 5), 0, 0)
        schedule.add(request(0, 1), 1, 0)
        schedule.add(request(3, 4), 1, 0)  # hop(0,4)=4, hop(3,1)=2 -> 2
        assert reuse_hop_distribution(schedule, reuse) == {3: 1, 2: 1}

    def test_fractions(self, line_topology):
        reuse = ChannelReuseGraph.from_topology(line_topology)
        schedule = Schedule(6, 10, 1)
        schedule.add(request(0, 1), 0, 0)
        schedule.add(request(4, 5), 0, 0)
        fractions = pooled_sweep([schedule], reuse).reuse_hop_fractions("RC")
        assert fractions == {3: 1.0}


class TestBoxStats:
    def test_five_number_summary(self):
        stats = BoxStats.from_values([1, 2, 3, 4, 5])
        assert stats.minimum == 1
        assert stats.median == 3
        assert stats.maximum == 5
        assert stats.q1 == 2
        assert stats.q3 == 4
        assert stats.n == 5

    def test_interpolated_quartiles(self):
        stats = BoxStats.from_values([0.0, 1.0])
        assert stats.q1 == pytest.approx(0.25)
        assert stats.median == pytest.approx(0.5)

    def test_single_value(self):
        stats = BoxStats.from_values([0.7])
        assert stats.minimum == stats.maximum == stats.median == 0.7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxStats.from_values([])

    def test_row_renders(self):
        assert "med=0.500" in BoxStats.from_values([0.0, 1.0]).row()
