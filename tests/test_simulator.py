"""Tests for repro.simulator (radio, interference, stats, engine)."""

import numpy as np
import pytest

from repro.core.schedule import Schedule
from repro.flows.flow import Flow, FlowSet
from repro.mac.channels import ChannelMap
from repro.propagation.pathloss import LogDistancePathLoss
from repro.simulator.conditions import Conditions
from repro.simulator import engine
from repro.simulator.engine import SimulationConfig, TschSimulator
from repro.simulator.interference import (
    WifiInterferer,
    interferer_rssi_matrix,
    place_interferer_pairs,
)
from repro.simulator.radio import sinr_at_receiver
from repro.simulator.stats import SimulationStats, stats_signature
from repro.propagation.prr_model import get_prr_curve
from repro.network.node import Position
from repro.testbeds.layout import FloorPlan
from repro.testbeds.synth import RadioEnvironment

from sim_oracles import decide_reception, link_prr_samples, sinr_reaching
from test_core_schedule import request


# ----------------------------------------------------------------------
# Radio
# ----------------------------------------------------------------------

class TestRadio:
    def test_sinr_no_interference(self):
        assert sinr_at_receiver(-90.0, -98.0, []) == pytest.approx(8.0)

    def test_sinr_with_interference(self):
        clean = sinr_at_receiver(-90.0, -98.0, [])
        noisy = sinr_at_receiver(-90.0, -98.0, [-95.0])
        assert noisy < clean

    def test_sinr_zero_signal(self):
        assert sinr_at_receiver(float("-inf"), -98.0, []) == float("-inf")

    def test_decide_reception_strong_signal(self):
        lookup = get_prr_curve(60, 0.0)
        rng = np.random.default_rng(0)
        decision = decide_reception(-60.0, -98.0, [], lookup, rng)
        assert decision.success
        assert decision.success_probability > 0.999

    def test_decide_reception_hopeless_signal(self):
        lookup = get_prr_curve(60, 0.0)
        rng = np.random.default_rng(0)
        decision = decide_reception(-120.0, -98.0, [], lookup, rng)
        assert not decision.success
        assert decision.success_probability < 1e-6

    def test_capture_effect(self):
        """A much stronger intended signal survives a concurrent
        transmission (the capture effect the paper relies on)."""
        lookup = get_prr_curve(60, 0.0)
        rng = np.random.default_rng(0)
        strong = decide_reception(-60.0, -98.0, [-90.0], lookup, rng)
        weak = decide_reception(-90.0, -98.0, [-84.0], lookup, rng)
        assert strong.success_probability > 0.999
        assert weak.success_probability < 0.01


# ----------------------------------------------------------------------
# Interference
# ----------------------------------------------------------------------

class TestInterference:
    def test_affected_channels_wifi_1(self):
        interferer = WifiInterferer(Position(0, 0, 0), wifi_channel=1)
        assert interferer.affected_channels() == [11, 12, 13, 14]

    def test_inband_power_below_total(self):
        interferer = WifiInterferer(Position(0, 0, 0), tx_power_dbm=15.0)
        assert interferer.inband_tx_power_dbm() < 15.0

    def test_duty_cycle_bounds(self):
        with pytest.raises(ValueError):
            WifiInterferer(Position(0, 0, 0), duty_cycle=1.5)

    def test_one_interferer_per_floor(self):
        plan = FloorPlan(3, 40.0, 20.0)
        interferers = place_interferer_pairs(plan)
        assert len(interferers) == 3
        floors = sorted(plan.floor_of(i.position) for i in interferers)
        assert floors == [0, 1, 2]

    def test_rssi_matrix_shape_and_decay(self):
        plan = FloorPlan(1, 40.0, 20.0)
        interferers = [WifiInterferer(Position(0.0, 0.0, 0.0))]
        near = np.array([[1.0, 0.0, 0.0]])
        far = np.array([[40.0, 20.0, 0.0]])
        model = LogDistancePathLoss(shadowing_sigma_db=0.0)
        rng = np.random.default_rng(0)
        rssi_near = interferer_rssi_matrix(interferers, near, plan, model, rng)
        rssi_far = interferer_rssi_matrix(interferers, far, plan, model, rng)
        assert rssi_near.shape == (1, 1)
        assert rssi_near[0, 0] > rssi_far[0, 0]


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------

class TestStats:
    def test_pdr_accounting(self):
        stats = SimulationStats.from_tallies({0: 10, 1: 10}, {0: 9}, [])
        assert stats.pdr_per_flow() == {0: 0.9, 1: 0.0}
        assert stats.worst_pdr() == 0.0
        assert stats.median_pdr() == 0.45

    def test_link_samples_by_category(self):
        stats = SimulationStats.from_tallies({}, {}, [
            {((0, 1), True): (2, 1), ((0, 1), False): (1, 1)},
            {((0, 1), True): (1, 1)},
        ])
        assert link_prr_samples(stats, (0, 1), True) == [0.5, 1.0]
        assert link_prr_samples(stats, (0, 1), False) == [1.0]
        assert stats.overall_link_prr((0, 1), True) == pytest.approx(2 / 3)
        assert stats.overall_link_prr((1, 2), True) is None

    def test_repetition_range(self):
        stats = SimulationStats.from_tallies({}, {}, [
            {((0, 1), True): (1, 1)}, {((0, 1), True): (1, 0)}])
        assert stats.repetitions == 2
        assert link_prr_samples(stats, (0, 1), True, (0, 1)) == [1.0]
        assert link_prr_samples(stats, (0, 1), True, (1, 2)) == [0.0]

    def test_links_seen(self):
        stats = SimulationStats.from_tallies({}, {}, [
            {((3, 4), True): (1, 1), ((1, 2), False): (1, 1)}])
        assert stats.links_seen() == [(1, 2), (3, 4)]

    def test_zero_columns_count_as_absent(self):
        """The batched engine's store: columns in its own order, some
        never fired.  Readers skip the silent ones and sort."""
        stats = SimulationStats(
            flow_released={0: 2}, flow_delivered={0: 1},
            link_keys=(((5, 6), True), ((1, 2), False), ((1, 2), True)),
            link_attempts=np.array([[0, 1, 0], [0, 2, 0]]),
            link_successes=np.array([[0, 1, 0], [0, 1, 0]]),
            channels=(14, 11, 12),
            channel_attempts=np.array([[1, 0, 0], [1, 0, 1]]),
            channel_successes=np.array([[1, 0, 0], [0, 0, 1]]))
        assert stats.links_seen() == [(1, 2)]
        assert link_prr_samples(stats, (5, 6), True) == []
        assert stats.overall_link_prr((1, 2), True) is None
        assert link_prr_samples(stats, (1, 2), False) == [1.0, 0.5]
        assert list(stats.channel_prr().items()) == [(12, 1.0), (14, 0.5)]
        assert stats.channel_prr((0, 1)) == {14: 1.0}
        assert stats_signature(stats) == (
            ((0, 2),), ((0, 1),),
            (((), (((1, 2), 1, 1),), ((14, 1, 1),)),
             ((), (((1, 2), 2, 1),), ((12, 1, 1), (14, 1, 0)))))


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

def tiny_environment(rssi_ab=-60.0, rssi_bc=-60.0, rssi_ac=-120.0,
                     num_channels=2):
    """Three nodes in a line A-B-C with controllable link strengths."""
    rssi = np.full((3, 3, num_channels), -150.0)
    idx = np.arange(3)
    rssi[idx, idx, :] = -np.inf
    rssi[0, 1, :] = rssi[1, 0, :] = rssi_ab
    rssi[1, 2, :] = rssi[2, 1, :] = rssi_bc
    rssi[0, 2, :] = rssi[2, 0, :] = rssi_ac
    return RadioEnvironment(
        positions=np.zeros((3, 3)),
        rssi_dbm=rssi,
        channel_map=ChannelMap.first_n(num_channels),
        grey_sigma_db=3.6,
    )


def tiny_flow_and_schedule(deadline=100):
    flow = Flow(0, 0, 2, 100, deadline, (0, 1, 2))
    flow_set = FlowSet([flow])
    schedule = Schedule(3, 100, 2)
    schedule.add(request(0, 1, hop=0, attempt=0), 0, 0)
    schedule.add(request(0, 1, hop=0, attempt=1), 1, 0)
    schedule.add(request(1, 2, hop=1, attempt=0), 2, 0)
    schedule.add(request(1, 2, hop=1, attempt=1), 3, 0)
    return flow_set, schedule


class TestEngine:
    def test_perfect_links_deliver_everything(self):
        flow_set, schedule = tiny_flow_and_schedule()
        env = tiny_environment()
        sim = TschSimulator(schedule, flow_set, env, env.channel_map,
                            config=SimulationConfig(seed=1))
        stats = sim.run(20)
        assert stats.pdr_per_flow()[0] == 1.0

    def test_dead_link_delivers_nothing(self):
        flow_set, schedule = tiny_flow_and_schedule()
        env = tiny_environment(rssi_bc=-150.0)
        sim = TschSimulator(schedule, flow_set, env, env.channel_map,
                            config=SimulationConfig(seed=1))
        stats = sim.run(20)
        assert stats.pdr_per_flow()[0] == 0.0
        # The first hop still transmitted and succeeded.
        assert stats.overall_link_prr((0, 1), False) == 1.0

    def test_retransmission_slot_unused_after_success(self):
        """With a perfect first hop, attempt 1 never transmits."""
        flow_set, schedule = tiny_flow_and_schedule()
        env = tiny_environment()
        sim = TschSimulator(
            schedule, flow_set, env, env.channel_map,
            config=SimulationConfig(seed=1, fast_fading_sigma_db=0.0,
                                    slow_fading_sigma_db=0.0))
        stats = sim.run(10)
        # 10 repetitions, exactly one attempt each (the primary).
        column = stats.link_keys.index(((0, 1), False))
        assert stats.link_attempts[:, column].tolist() == [1] * 10
        assert stats.overall_link_prr((0, 1), False) == 1.0

    def test_retransmission_rescues_marginal_link(self):
        """A ~50% link delivers far more than 50% thanks to the reserved
        retransmission slot."""
        env = tiny_environment()
        curve = get_prr_curve(60, 0.0)
        # Place the B->C RSSI right at the 50% point of the raw curve.
        half_point = -98.0 + sinr_reaching(curve, 0.5)
        env = tiny_environment(rssi_bc=half_point)
        flow_set, schedule = tiny_flow_and_schedule()
        sim = TschSimulator(
            schedule, flow_set, env, env.channel_map,
            config=SimulationConfig(seed=2, fast_fading_sigma_db=0.0,
                                    slow_fading_sigma_db=0.0))
        stats = sim.run(400)
        assert 0.6 < stats.pdr_per_flow()[0] < 0.9

    def test_clean_air_prr_matches_measured(self):
        """The consistency contract: simulated clean-air PRR converges to
        the smoothed (measured) curve value."""
        curve = get_prr_curve(60, 3.6)
        target_rssi = -98.0 + 5.0  # 5 dB SNR, inside the grey region
        env = tiny_environment(rssi_ab=target_rssi)
        flow = Flow(0, 0, 1, 10, 10, (0, 1))
        flow_set = FlowSet([flow])
        schedule = Schedule(3, 10, 2)
        schedule.add(request(0, 1), 0, 0)
        sim = TschSimulator(schedule, flow_set, env, env.channel_map,
                            config=SimulationConfig(seed=3))
        stats = sim.run(3000)
        simulated = stats.overall_link_prr((0, 1), False)
        assert simulated == pytest.approx(curve(5.0), abs=0.03)

    def test_concurrent_transmissions_interfere(self):
        """Cross-coupling at or above the signal level destroys most
        packets; DSSS processing gain keeps equal-power collisions from
        being a total loss, but the PRR drops far below the clean 1.0."""
        rssi = np.full((4, 4, 1), -60.0)
        idx = np.arange(4)
        rssi[idx, idx, :] = -np.inf
        rssi[0, 3, :] = -52.0  # interference 8 dB above signal at node 3
        env = RadioEnvironment(
            positions=np.zeros((4, 3)), rssi_dbm=rssi,
            channel_map=ChannelMap.first_n(1), grey_sigma_db=3.6)
        flows = FlowSet([Flow(0, 0, 1, 10, 10, (0, 1)),
                         Flow(1, 2, 3, 10, 10, (2, 3))])
        schedule = Schedule(4, 10, 1)
        schedule.add(request(0, 1, flow_id=0), 0, 0)
        schedule.add(request(2, 3, flow_id=1), 0, 0)
        sim = TschSimulator(schedule, flows, env, env.channel_map,
                            config=SimulationConfig(seed=4))
        stats = sim.run(200)
        # Equal-power collision (link 0->1): substantial but partial loss.
        assert stats.overall_link_prr((0, 1), True) < 0.9
        # Dominated collision (link 2->3): near-total loss.
        assert stats.overall_link_prr((2, 3), True) < 0.1

    def test_capture_lets_strong_transmission_survive(self):
        """Asymmetric coupling: the strong link survives the collision,
        the weak one does not."""
        rssi = np.full((4, 4, 1), -150.0)
        idx = np.arange(4)
        rssi[idx, idx, :] = -np.inf
        rssi[0, 1, :] = -60.0   # strong intended link
        rssi[2, 3, :] = -92.0   # marginal intended link
        rssi[2, 1, :] = -95.0   # weak interference at receiver 1
        rssi[0, 3, :] = -70.0   # strong interference at receiver 3
        env = RadioEnvironment(
            positions=np.zeros((4, 3)), rssi_dbm=rssi,
            channel_map=ChannelMap.first_n(1), grey_sigma_db=3.6)
        flows = FlowSet([Flow(0, 0, 1, 10, 10, (0, 1)),
                         Flow(1, 2, 3, 10, 10, (2, 3))])
        schedule = Schedule(4, 10, 1)
        schedule.add(request(0, 1, flow_id=0), 0, 0)
        schedule.add(request(2, 3, flow_id=1), 0, 0)
        sim = TschSimulator(schedule, flows, env, env.channel_map,
                            config=SimulationConfig(seed=5))
        stats = sim.run(200)
        assert stats.overall_link_prr((0, 1), True) > 0.9
        assert stats.overall_link_prr((2, 3), True) < 0.2

    def test_wifi_interferer_degrades_overlapping_channel(self):
        env = tiny_environment(rssi_ab=-93.0, num_channels=1)
        flow = Flow(0, 0, 1, 10, 10, (0, 1))
        flow_set = FlowSet([flow])
        schedule = Schedule(3, 10, 1)
        schedule.add(request(0, 1), 0, 0)
        interferer = WifiInterferer(Position(0, 0, 0), wifi_channel=1,
                                    duty_cycle=1.0)
        rssi_matrix = np.full((1, 3), -85.0)
        clean = TschSimulator(schedule, flow_set, env, env.channel_map,
                              config=SimulationConfig(seed=6)).run(300)
        noisy = TschSimulator(schedule, flow_set, env, env.channel_map,
                              config=SimulationConfig(seed=6),
                              conditions=Conditions(
                                  extra_interferers=(interferer,),
                                  extra_interferer_rssi_dbm=rssi_matrix),
                              ).run(300)
        assert (noisy.overall_link_prr((0, 1), False)
                < clean.overall_link_prr((0, 1), False) - 0.2)

    def test_interferers_require_rssi_matrix(self):
        env = tiny_environment()
        flow_set, schedule = tiny_flow_and_schedule()
        with pytest.raises(ValueError):
            TschSimulator(schedule, flow_set, env, env.channel_map,
                          conditions=Conditions(extra_interferers=(
                              WifiInterferer(Position(0, 0, 0)),)))

    @pytest.mark.parametrize("columns", [7, 1],
                             ids=["more_than_nodes", "fewer_than_nodes"])
    def test_interferer_rssi_columns_must_match_the_nodes(self, columns):
        """The overlay's RSSI matrix needs one column per node of the
        environment (3 here): the simulator refuses any other width when
        it is built, before a run could read past or short of it."""
        env = tiny_environment()
        flow_set, schedule = tiny_flow_and_schedule()
        conditions = Conditions(
            extra_interferers=(WifiInterferer(Position(0, 0, 0)),),
            extra_interferer_rssi_dbm=np.full((1, columns), -85.0))
        with pytest.raises(ValueError, match="expected \\(1, 3\\)"):
            TschSimulator(schedule, flow_set, env, env.channel_map,
                          conditions=conditions)

    def test_determinism(self):
        flow_set, schedule = tiny_flow_and_schedule()
        env = tiny_environment(rssi_bc=-94.0)
        runs = []
        for _ in range(2):
            sim = TschSimulator(schedule, flow_set, env, env.channel_map,
                                config=SimulationConfig(seed=7))
            runs.append(sim.run(50).pdr_per_flow()[0])
        assert runs[0] == runs[1]

    def test_invalid_repetitions(self):
        flow_set, schedule = tiny_flow_and_schedule()
        env = tiny_environment()
        sim = TschSimulator(schedule, flow_set, env, env.channel_map)
        with pytest.raises(ValueError):
            sim.run(0)


class TestOneEntryStore:
    """The simulator replays the schedule's own entries: no per-compile
    copy of them exists."""

    @staticmethod
    def assert_schedule_entries(schedule):
        compiled = engine._compilation(schedule).entries
        by_slot = schedule.entries_by_slot()
        stored = {id(entry) for entry in schedule.entries}
        assert list(compiled) == list(by_slot)
        for slot, entries in compiled.items():
            assert [id(e) for e in entries] == [id(e) for e in by_slot[slot]]
            assert all(id(entry) in stored for entry in entries)
        assert sum(len(entries) for entries in compiled.values()) == len(
            schedule)

    def test_compiled_entries_are_the_schedule_entries(self):
        schedule = Schedule(6, 10, 2)
        schedule.add(request(0, 1), 3, 0)
        schedule.add(request(2, 3), 1, 1)
        schedule.add(request(4, 5), 3, 0)      # shares cell (3, 0)
        schedule.add(request(2, 3, attempt=1), 3, 1)
        schedule.add(request(4, 5, attempt=1), 0, 0)
        self.assert_schedule_entries(schedule)
        moved = schedule.entries[0].request
        schedule.evict([0])
        self.assert_schedule_entries(schedule)
        schedule.add(moved, 5, 1)
        self.assert_schedule_entries(schedule)
        assert list(engine._compilation(schedule).entries) == [0, 1, 3, 5]


class TestDarkNodeObservability:
    """Regression: a dark *sender's* failed attempt updates the stats
    but used to be skipped in the obs tallies (``rep_attempts`` /
    ``link_outcomes``), while a dark *receiver's* failure was counted in
    both — so ``sim.attempts`` drifted from the stats totals exactly when
    dark-node faults were active."""

    @pytest.mark.parametrize("dark_node", [0, 2],
                             ids=["dark_sender", "dark_receiver"])
    def test_obs_attempts_match_stats(self, dark_node):
        from repro.obs import recorder as _obs
        from repro.obs.recorder import Recorder

        flow_set, schedule = tiny_flow_and_schedule()
        env = tiny_environment()
        conditions = Conditions(dark_nodes=frozenset({dark_node}))
        with _obs.recording(Recorder()) as rec:
            stats = TschSimulator(
                schedule, flow_set, env, env.channel_map,
                config=SimulationConfig(seed=11),
                conditions=conditions).run(10)
        expected = int(stats.link_attempts.sum())
        assert expected > 0  # dark node must not silence the whole run
        assert rec.registry.counter_value("sim.attempts") == expected
