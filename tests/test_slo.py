"""Tests for per-flow SLO burn-rate alerting (repro.obs.slo) and its
integration with the manager loop's early-warning channel."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.detection.health import EpochReport, LinkEpochReport
from repro.manager.loop import ManagerConfig, NetworkManager
from repro.manager.policies import Observation, RescheduleVictims
from repro.obs import recorder as _obs
from repro.obs.recorder import Recorder
from repro.obs.slo import (
    STATE_ALERT,
    STATE_OK,
    STATE_WARN,
    FlowSloState,
    SloConfig,
    SloEngine,
    severity,
)
from repro.obs.timeseries import TimeSeriesStore
from repro.testbeds import WUSTL_PLAN


class TestSloConfig:
    def test_defaults_and_budget(self):
        config = SloConfig()
        assert config.target_pdr == 0.9
        assert config.error_budget == pytest.approx(0.1)
        assert config.to_dict() == {"target_pdr": 0.9, "fast_window": 5,
                                    "slow_window": 30, "burn_threshold": 2.0}

    def test_validation(self):
        with pytest.raises(ValueError, match="target_pdr"):
            SloConfig(target_pdr=1.0)
        with pytest.raises(ValueError, match="target_pdr"):
            SloConfig(target_pdr=0.0)
        with pytest.raises(ValueError, match="fast_window"):
            SloConfig(fast_window=0)
        with pytest.raises(ValueError, match="slow_window"):
            SloConfig(fast_window=5, slow_window=4)
        with pytest.raises(ValueError, match="burn_threshold"):
            SloConfig(burn_threshold=0.0)


# A tight config for hand-computable burn math: budget 0.1, fast window
# of 2 epochs, slow window of 4, hot at burn >= 2 (i.e. windowed miss
# ratio >= 0.2).
TIGHT = SloConfig(target_pdr=0.9, fast_window=2, slow_window=4,
                  burn_threshold=2.0)


def feed(engine, *epochs):
    """Feed single-flow (released, delivered) epochs; return last state."""
    state = None
    for epoch, (released, delivered) in enumerate(epochs):
        states = engine.observe_epoch(epoch, {7: released}, {7: delivered})
        state = states[0]
    return state


class TestBurnMath:
    def test_healthy_flow_stays_ok(self):
        state = feed(SloEngine(TIGHT), (100, 100), (100, 98), (100, 100))
        assert state.state == STATE_OK
        assert state.pdr == pytest.approx(1.0)
        assert state.burn_fast < 2.0 and state.burn_slow < 2.0
        assert state.epochs_observed == 3

    def test_spike_warns_then_sustained_alerts(self):
        engine = SloEngine(TIGHT)
        # Two clean epochs, then one bad: fast window (2 epochs) holds
        # 40 misses / 200 releases = 0.2 miss ratio -> burn 2.0 (hot);
        # slow window (3 epochs observed) holds 40/300 -> burn 1.33.
        state = feed(engine, (100, 100), (100, 100), (100, 60))
        assert state.state == STATE_WARN
        assert state.burn_fast == pytest.approx(2.0)
        assert state.burn_slow == pytest.approx(40 / 300 / 0.1)
        # A second bad epoch makes the slow window hot too: 80/400.
        states = engine.observe_epoch(3, {7: 100}, {7: 60})
        assert states[0].state == STATE_ALERT
        assert states[0].burn_slow == pytest.approx(2.0)

    def test_windows_are_packet_weighted(self):
        # A tiny all-miss epoch after a heavy clean one: the pooled miss
        # ratio is 1/1001, not the 0.5 an epoch-averaged ratio would say.
        state = feed(SloEngine(TIGHT), (1000, 1000), (1, 0))
        assert state.state == STATE_OK
        assert state.burn_fast == pytest.approx((1 / 1001) / 0.1)

    def test_idle_epoch_counts_as_clean(self):
        state = feed(SloEngine(TIGHT), (0, 0))
        assert state.pdr == 1.0
        assert state.burn_fast == 0.0
        assert state.state == STATE_OK

    def test_old_history_falls_out_of_the_slow_window(self):
        engine = SloEngine(TIGHT)
        state = feed(engine, (100, 0), (100, 100), (100, 100), (100, 100))
        # The all-miss epoch still burns the slow window here (100/400
        # misses -> burn 2.5), though the cooled fast window keeps the
        # state out of alert...
        assert state.burn_slow == pytest.approx(2.5)
        assert state.state == STATE_OK
        # ...and one more clean epoch evicts it (deque maxlen = 4).
        states = engine.observe_epoch(4, {7: 100}, {7: 100})
        assert states[0].burn_slow == 0.0
        assert states[0].state == STATE_OK

    def test_states_sorted_by_flow_id(self):
        engine = SloEngine(TIGHT)
        states = engine.observe_epoch(0, {9: 10, 2: 10}, {9: 10, 2: 10})
        assert [s.flow_id for s in states] == [2, 9]


class OracleWindow:
    """A flow's window with each burn rate re-summed from a copy of the
    tally ring (the oracle of the engine's running sums)."""

    def __init__(self, slow_window):
        self.tallies = deque(maxlen=slow_window)
        self.epochs_observed = 0

    def push(self, released, missed):
        self.tallies.append((released, missed))
        self.epochs_observed += 1

    def miss_ratio(self, window):
        """Packet-weighted miss ratio over the last ``window`` epochs."""
        tail = list(self.tallies)[-window:]
        released = sum(r for r, _ in tail)
        if released == 0:
            return 0.0
        return sum(m for _, m in tail) / released


def oracle_states(config, windows, epoch, flow_released, flow_delivered):
    """One epoch's states, from :class:`OracleWindow` burn rates."""
    states = []
    for flow_id in sorted(flow_released):
        released = flow_released[flow_id]
        delivered = flow_delivered.get(flow_id, 0)
        window = windows.setdefault(flow_id, OracleWindow(config.slow_window))
        window.push(released, max(0, released - delivered))
        burn_fast = window.miss_ratio(config.fast_window) / config.error_budget
        burn_slow = window.miss_ratio(config.slow_window) / config.error_budget
        if (burn_fast >= config.burn_threshold
                and burn_slow >= config.burn_threshold):
            state = STATE_ALERT
        elif burn_fast >= config.burn_threshold:
            state = STATE_WARN
        else:
            state = STATE_OK
        states.append(FlowSloState(
            flow_id=flow_id, epoch=epoch,
            pdr=1.0 if released == 0 else delivered / released,
            burn_fast=burn_fast, burn_slow=burn_slow, state=state,
            epochs_observed=window.epochs_observed))
    return states


#: One epoch's tallies for up to three flows: ``{flow: (released,
#: delivered)}``, idle epochs (nothing released) included.
EPOCH_TALLIES = st.dictionaries(
    st.integers(0, 2),
    st.integers(0, 12).flatmap(
        lambda released: st.tuples(st.just(released),
                                   st.integers(0, released + 1))),
    max_size=3)


class TestRunningSums:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(fast_window=st.integers(1, 4), extra=st.integers(0, 3),
           target_pdr=st.sampled_from([0.5, 0.9, 0.99]),
           burn_threshold=st.sampled_from([0.5, 1.0, 2.0]),
           stream=st.lists(EPOCH_TALLIES, max_size=14))
    @example(fast_window=1, extra=0, target_pdr=0.9, burn_threshold=2.0,
             stream=[{0: (0, 0)}, {0: (5, 1)}, {0: (0, 0)}, {0: (3, 3)}])
    @example(fast_window=2, extra=1, target_pdr=0.9, burn_threshold=1.0,
             stream=[{0: (4, 0), 1: (0, 0)}, {1: (6, 2)}, {0: (0, 0)},
                     {0: (7, 5), 1: (2, 0)}, {0: (9, 9)}, {0: (1, 0)}])
    def test_states_match_resummed_windows(self, fast_window, extra,
                                           target_pdr, burn_threshold,
                                           stream):
        """Every state equals the oracle's bit for bit, over idle
        epochs, a one-epoch fast window, equal windows, flows that skip
        epochs, and histories longer than the slow window."""
        config = SloConfig(target_pdr=target_pdr, fast_window=fast_window,
                           slow_window=fast_window + extra,
                           burn_threshold=burn_threshold)
        engine = SloEngine(config)
        windows = {}
        for epoch, tallies in enumerate(stream):
            released = {flow: r for flow, (r, _) in tallies.items()}
            delivered = {flow: d for flow, (_, d) in tallies.items()}
            states = engine.observe_epoch(epoch, released, delivered)
            expected = oracle_states(config, windows, epoch, released,
                                     delivered)
            assert states == expected
            assert repr(states) == repr(expected)


class TestTransitions:
    def test_events_and_counters_only_on_change(self):
        epochs = [(100, 100),   # ok (no transition: ok is the default)
                  (100, 0),     # -> alert
                  (100, 0),     # alert steady: not counted again
                  (100, 100), (100, 100), (100, 100), (100, 100)]  # -> ok
        with _obs.recording(Recorder()) as rec:
            engine = SloEngine(TIGHT)
            states = [engine.observe_epoch(epoch, {7: released},
                                           {7: delivered})[0]
                      for epoch, (released, delivered) in enumerate(epochs)]
        assert all(state.flow_id == 7 for state in states)
        # The cooled fast window (2 epochs) ends the alert at epoch 4.
        assert [state.state for state in states] == [
            STATE_OK, STATE_ALERT, STATE_ALERT, STATE_ALERT, STATE_OK,
            STATE_OK, STATE_OK]
        transitions = [(before.state, after.state, after.epoch)
                       for before, after in zip(states, states[1:])
                       if before.state != after.state]
        assert transitions == [(STATE_OK, STATE_ALERT, 1),
                               (STATE_ALERT, STATE_OK, 4)]
        assert rec.registry.counter_value("slo.alerts") == 1
        assert rec.registry.counter_value("slo.warns") == 0

    def test_warn_transition_counts_warns(self):
        with _obs.recording(Recorder()) as rec:
            feed(SloEngine(TIGHT), (100, 100), (100, 100), (100, 60))
        assert rec.registry.counter_value("slo.warns") == 1
        assert rec.registry.counter_value("slo.alerts") == 0

    def test_disabled_recorder_stays_silent(self):
        engine = SloEngine(TIGHT)
        state = feed(engine, (100, 0))
        assert state.state == STATE_ALERT  # state still computed
        assert not _obs.ENABLED


class TestSeriesRecording:
    def test_records_per_flow_series_with_prefix(self):
        store = TimeSeriesStore()
        with _obs.recording(Recorder(timeseries=store)):
            engine = SloEngine(TIGHT, series_prefix="armA/")
            engine.observe_epoch(0, {3: 10}, {3: 9})
            engine.observe_epoch(1, {3: 10}, {3: 10})
        assert store.names() == ["armA/slo.flow.3.burn_fast",
                                 "armA/slo.flow.3.burn_slow",
                                 "armA/slo.flow.3.pdr",
                                 "armA/slo.flow.3.state"]
        assert store.get("armA/slo.flow.3.pdr").points == [(0.0, 0.9),
                                                           (1.0, 1.0)]

    def test_no_store_records_nothing(self):
        with _obs.recording(Recorder()):
            SloEngine(TIGHT).observe_epoch(0, {3: 10}, {3: 10})
        # No store attached: nothing to assert beyond "did not raise".


def state_of(engine, flow_id):
    """A flow's current alert state as the engine holds it (``ok`` when
    never observed)."""
    return engine._states.get(flow_id, STATE_OK)


def flows_in_state(engine, state):
    """Sorted flow ids the engine currently holds in ``state``."""
    return sorted(f for f, s in engine._states.items() if s == state)


def worst_state(engine):
    """The most severe state any flow currently holds."""
    return max(engine._states.values(), key=severity, default=STATE_OK)


class TestQueries:
    def test_state_queries(self):
        engine = SloEngine(TIGHT)
        engine.observe_epoch(0, {1: 100, 2: 100, 3: 100},
                             {1: 100, 2: 0, 3: 100})
        assert state_of(engine, 2) == STATE_ALERT
        assert state_of(engine, 1) == STATE_OK
        assert state_of(engine, 99) == STATE_OK  # never observed
        assert flows_in_state(engine, STATE_ALERT) == [2]
        assert flows_in_state(engine, STATE_WARN) == []
        assert flows_in_state(engine, STATE_OK) == [1, 3]
        assert worst_state(engine) == STATE_ALERT
        assert worst_state(SloEngine(TIGHT)) == STATE_OK

    def test_severity_ordering(self):
        assert severity(STATE_OK) < severity(STATE_WARN) < severity(
            STATE_ALERT)

    def test_flow_state_to_dict(self):
        state = FlowSloState(flow_id=1, epoch=2, pdr=0.8, burn_fast=2.0,
                             burn_slow=1.0, state=STATE_WARN,
                             epochs_observed=3)
        assert state.to_dict()["state"] == STATE_WARN
        assert state.to_dict()["flow_id"] == 1


# ----------------------------------------------------------------------
# Policy early-warning input
# ----------------------------------------------------------------------

def slo_observation(victims=(), slo_candidates=(), slo_alerts=(),
                    barred=()):
    links = {link: LinkEpochReport(link=link, epoch=4,
                                   reuse_samples=(0.5,),
                                   contention_free_samples=(),
                                   reuse_prr=0.5,
                                   contention_free_prr=None)
             for link in victims}
    return Observation(
        epoch=4, report=EpochReport(epoch=4, links=links), diagnoses=[],
        confirmed_victims=list(victims), confirmed_external=[],
        confirmed_suspects=[], channel_prr={}, actionable=True,
        rho_t=2, num_channels=5, barred_links=tuple(barred),
        slo_alerts=tuple(slo_alerts),
        slo_victim_candidates=tuple(slo_candidates))


class TestRescheduleEarlyWarning:
    def test_default_ignores_slo_candidates(self):
        policy = RescheduleVictims()  # slo_early_warning=False
        obs = slo_observation(slo_candidates=[(1, 2)], slo_alerts=[3])
        assert policy.decide(obs) is None

    def test_early_warning_acts_on_slo_candidates_alone(self):
        policy = RescheduleVictims(slo_early_warning=True)
        obs = slo_observation(slo_candidates=[(1, 2), (3, 4)],
                              slo_alerts=[3, 5])
        action = policy.decide(obs)
        assert action is not None
        assert sorted(action.victims) == [(1, 2), (3, 4)]
        assert action.reason == ("0 confirmed reuse victims + 2 SLO "
                                 "early-warning candidates (2 flows "
                                 "alerting)")

    def test_confirmed_victims_keep_their_reason_when_no_extras(self):
        # With no SLO candidates the reason string is bit-identical to
        # the slo_early_warning=False wording.
        base = RescheduleVictims().decide(slo_observation(
            victims=[(1, 2)]))
        early = RescheduleVictims(slo_early_warning=True).decide(
            slo_observation(victims=[(1, 2)]))
        assert base.reason == early.reason == "1 confirmed reuse victims"
        assert base.victims == early.victims

    def test_candidates_deduplicate_against_confirmed_and_barred(self):
        policy = RescheduleVictims(slo_early_warning=True)
        obs = slo_observation(victims=[(1, 2)],
                              slo_candidates=[(1, 2), (3, 4), (5, 6)],
                              slo_alerts=[9], barred=[(5, 6)])
        action = policy.decide(obs)
        assert sorted(action.victims) == [(1, 2), (3, 4)]
        assert "1 confirmed reuse victims + 1 SLO" in action.reason


# ----------------------------------------------------------------------
# Manager integration: the early-warning acceptance experiment
# ----------------------------------------------------------------------

class TestManagerSloIntegration:
    def test_slo_alert_fires_before_ks_confirmation(self, wustl):
        """The ISSUE acceptance criterion: under the seeded reuse-storm
        fault, at least one flow enters ``slo_burn`` alert *before* the
        K-S detector's streak confirmation produces its first victim —
        burn windows are shorter than warm-up + confirm streaks."""
        topology, environment = wustl
        config = ManagerConfig(scenario="reuse-storm", policy="noop",
                               scheduler_policy="RA", num_flows=40,
                               repetitions_per_epoch=8, num_epochs=6,
                               seed=3, warmup_epochs=2, confirm_epochs=2,
                               cooldown_epochs=1)
        with _obs.recording(Recorder()) as rec:
            report = NetworkManager(topology, environment, WUSTL_PLAN,
                                    config).run()

        alert_epochs = [o.epoch for o in report.epochs if o.slo_alerts]
        confirm_epochs = [o.epoch for o in report.epochs
                          if o.confirmed_victims]
        assert alert_epochs, "the storm never drove a flow into alert"
        assert confirm_epochs, "the K-S monitor never confirmed a victim"
        assert min(alert_epochs) < min(confirm_epochs)

        # The transition into alert is also counted.
        assert rec.registry.counter_value("slo.alerts") >= 1

    def test_epoch_outcomes_and_series_carry_slo_state(self, wustl):
        topology, environment = wustl
        config = ManagerConfig(scenario="reuse-storm", policy="reschedule",
                               scheduler_policy="RA", num_flows=40,
                               repetitions_per_epoch=8, num_epochs=6,
                               seed=3, warmup_epochs=1, confirm_epochs=1,
                               cooldown_epochs=1, series_prefix="run1/")
        store = TimeSeriesStore()
        with _obs.recording(Recorder(timeseries=store)):
            report = NetworkManager(topology, environment, WUSTL_PLAN,
                                    config).run()

        # Outcomes serialize their SLO fields.
        as_dict = report.to_dict()
        assert all("slo_alerts" in e and "slo_warns" in e
                   for e in as_dict["epochs"])
        alerting = [o for o in report.epochs if o.slo_alerts]
        assert alerting, "storm should drive flows into alert"

        # The manager recorded prefixed network-level series, one point
        # per epoch, and the SLO engine its per-flow series.
        median = store.get("run1/manager.median_pdr")
        assert median is not None
        assert len(median.points) == config.num_epochs
        assert store.get("run1/manager.slo_alerting").values()[-1] == len(
            report.epochs[-1].slo_alerts)
        assert any(name.startswith("run1/slo.flow.")
                   for name in store.names())
        assert any(name.startswith("run1/channel.") for name in
                   store.names())
        assert any(name.startswith("run1/manager.health.")
                   for name in store.names())

    def test_slo_victim_candidates_are_reuse_links_on_alerting_routes(
            self, wustl):
        topology, environment = wustl
        config = ManagerConfig(scenario="reuse-storm", policy="noop",
                               scheduler_policy="RA", num_flows=40,
                               repetitions_per_epoch=8, num_epochs=1,
                               seed=3)
        manager = NetworkManager(topology, environment, WUSTL_PLAN, config)
        network, flow_set, schedule = manager._initial_state()
        reuse = set(schedule.reuse_links())
        flows = {f.flow_id: f for f in flow_set}
        alerting = sorted(flows)[:3]

        candidates = NetworkManager._slo_victim_candidates(
            alerting, flow_set, reuse, barred=set())
        expected = sorted({link for fid in alerting
                           for link in flows[fid].links if link in reuse})
        assert list(candidates) == expected

        # Barred links drop out; no alerts -> no candidates.
        if candidates:
            barred = {candidates[0]}
            fewer = NetworkManager._slo_victim_candidates(
                alerting, flow_set, reuse, barred=barred)
            assert candidates[0] not in fewer
        assert NetworkManager._slo_victim_candidates(
            [], flow_set, reuse, set()) == ()
