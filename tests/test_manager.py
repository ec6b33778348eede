"""Tests for the closed-loop network-manager runtime (repro.manager)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.schedule import Schedule
from repro.core.transmissions import TransmissionRequest
from repro.detection.classifier import LinkDiagnosis, Verdict
from repro.detection.health import (
    EpochReport,
    LinkEpochReport,
    StreamingHealthMonitor,
)
from repro.manager.faults import (
    ConditionSchedule,
    FaultEvent,
    SCENARIO_PRESETS,
    ScenarioResolver,
    load_scenario,
    resolve_scenario,
)
from repro.manager.loop import ManagerConfig, NetworkManager, run_manager
from repro.manager.policies import (
    Action,
    BlacklistChannel,
    EscalateRho,
    NoOp,
    Observation,
    RescheduleVictims,
    make_manager_policy,
)
from repro.simulator import engine
from repro.testbeds import WUSTL_PLAN


# ----------------------------------------------------------------------
# Fault events and scenarios
# ----------------------------------------------------------------------

class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(kind="solar_flare")

    def test_window_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="reuse_interference", start_epoch=-1)
        with pytest.raises(ValueError):
            FaultEvent(kind="reuse_interference", start_epoch=4, end_epoch=4)

    def test_kind_specific_requirements(self):
        with pytest.raises(ValueError, match="requires links"):
            FaultEvent(kind="link_degradation")
        with pytest.raises(ValueError, match="requires nodes"):
            FaultEvent(kind="node_churn")

    def test_active_window_is_half_open(self):
        event = FaultEvent(kind="reuse_interference", start_epoch=2,
                           end_epoch=5)
        assert [event.active_in(e) for e in range(7)] == [
            False, False, True, True, True, False, False]

    def test_open_ended_event_stays_active(self):
        event = FaultEvent(kind="reuse_interference", start_epoch=3)
        assert not event.active_in(2)
        assert event.active_in(3) and event.active_in(1000)

    @pytest.mark.parametrize("event", [
        FaultEvent(kind="reuse_interference", start_epoch=3, boost_db=9.0),
        FaultEvent(kind="wifi_burst", start_epoch=1, end_epoch=4,
                   wifi_channel=6, duty_cycle=0.3, tx_power_dbm=12.0),
        FaultEvent(kind="link_degradation", start_epoch=2,
                   links=((3, 7), (1, 2)), attenuation_db=8.0),
        FaultEvent(kind="node_churn", start_epoch=5, nodes=(4, 9)),
    ])
    def test_dict_round_trip(self, event):
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault event fields"):
            FaultEvent.from_dict({"kind": "node_churn", "nodes": [1],
                                  "severity": "high"})


class TestConditionSchedule:
    def test_events_for_preserves_declaration_order(self):
        first = FaultEvent(kind="reuse_interference", start_epoch=0)
        second = FaultEvent(kind="node_churn", start_epoch=0, nodes=(1,))
        schedule = ConditionSchedule("both", (first, second))
        active = [event for event in schedule.events if event.active_in(0)]
        assert active == [first, second]
        assert active[0] is not second

    def test_horizon_covers_every_window_edge(self):
        schedule = ConditionSchedule("h", (
            FaultEvent(kind="reuse_interference", start_epoch=2,
                       end_epoch=6),
            FaultEvent(kind="node_churn", start_epoch=7, nodes=(1,)),
        ))
        assert max(event.end_epoch or event.start_epoch + 1
                   for event in schedule.events) == 8

    def test_from_dict_requires_events(self):
        with pytest.raises(ValueError, match="events"):
            ConditionSchedule.from_dict({"name": "empty"})

    def test_json_file_round_trip(self, tmp_path):
        scenario = SCENARIO_PRESETS["storm-and-churn"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario.to_dict(), indent=2))
        assert load_scenario(path) == scenario

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed scenario JSON"):
            load_scenario(path)
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="must be an object"):
            load_scenario(path)

    def test_resolve_scenario_dispatch(self, tmp_path):
        preset = resolve_scenario("reuse-storm")
        assert preset is SCENARIO_PRESETS["reuse-storm"]
        assert resolve_scenario(preset) is preset
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(ConditionSchedule("custom", ()).to_dict()))
        assert resolve_scenario(str(path)).name == "custom"
        with pytest.raises(ValueError, match="unknown scenario"):
            resolve_scenario("no-such-preset-or-file")


class TestScenarioResolver:
    @pytest.fixture(scope="class")
    def wustl_env(self, wustl):
        _, environment = wustl
        return environment

    def test_quiet_scenario_is_empty_overlay(self, wustl_env):
        resolver = ScenarioResolver(SCENARIO_PRESETS["quiet"], wustl_env,
                                    WUSTL_PLAN, seed=0)
        conditions = resolver.conditions_for(0)
        assert not conditions.pair_attenuation_db
        assert conditions.interference_boost_db == 0.0
        assert not conditions.dark_nodes
        assert not conditions.extra_interferers

    def test_reuse_storm_boost_lands_at_start_epoch(self, wustl_env):
        resolver = ScenarioResolver(SCENARIO_PRESETS["reuse-storm"],
                                    wustl_env, WUSTL_PLAN, seed=0)
        assert resolver.conditions_for(2).interference_boost_db == 0.0
        assert resolver.conditions_for(3).interference_boost_db == 15.0

    def test_conditions_cached_per_active_event_set(self, wustl_env):
        resolver = ScenarioResolver(SCENARIO_PRESETS["reuse-storm"],
                                    wustl_env, WUSTL_PLAN, seed=0)
        assert (resolver.conditions_for(4)
                is resolver.conditions_for(5))
        assert (resolver.conditions_for(0)
                is not resolver.conditions_for(4))

    def test_link_degradation_is_symmetric_and_additive(self, wustl_env):
        scenario = ConditionSchedule("deg", (
            FaultEvent(kind="link_degradation", links=((3, 7),),
                       attenuation_db=5.0),
            FaultEvent(kind="link_degradation", links=((7, 3),),
                       attenuation_db=2.0),
        ))
        conditions = ScenarioResolver(scenario, wustl_env, WUSTL_PLAN,
                                      seed=0).conditions_for(0)
        assert conditions.pair_attenuation_db[(3, 7)] == pytest.approx(7.0)
        assert conditions.pair_attenuation_db[(7, 3)] == pytest.approx(7.0)

    def test_wifi_burst_produces_interferer_rows(self, wustl_env):
        resolver = ScenarioResolver(SCENARIO_PRESETS["wifi-burst"],
                                    wustl_env, WUSTL_PLAN, seed=0)
        conditions = resolver.conditions_for(3)
        assert conditions.extra_interferers
        assert conditions.extra_interferer_rssi_dbm.shape == (
            len(conditions.extra_interferers),
            wustl_env.positions.shape[0])

    def test_resolution_is_deterministic_across_resolvers(self, wustl_env):
        def resolve(epoch):
            resolver = ScenarioResolver(SCENARIO_PRESETS["wifi-burst"],
                                        wustl_env, WUSTL_PLAN, seed=5)
            return resolver.conditions_for(epoch)

        first, second = resolve(4), resolve(4)
        assert first.extra_interferers == second.extra_interferers
        np.testing.assert_array_equal(first.extra_interferer_rssi_dbm,
                                      second.extra_interferer_rssi_dbm)

    def test_seed_changes_interferer_rssi(self, wustl_env):
        def resolve(seed):
            return ScenarioResolver(SCENARIO_PRESETS["wifi-burst"],
                                    wustl_env, WUSTL_PLAN,
                                    seed=seed).conditions_for(3)

        assert not np.array_equal(resolve(0).extra_interferer_rssi_dbm,
                                  resolve(1).extra_interferer_rssi_dbm)


# ----------------------------------------------------------------------
# Streaming health monitor
# ----------------------------------------------------------------------

def diagnosis(link, verdict, reuse_prr=None, cf_prr=None, epoch=0):
    return LinkDiagnosis(link=link, epoch=epoch, verdict=verdict,
                         reuse_prr=reuse_prr, contention_free_prr=cf_prr)


class TestStreamingHealthMonitor:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            StreamingHealthMonitor(warmup_epochs=-1)
        with pytest.raises(ValueError):
            StreamingHealthMonitor(confirm_epochs=0)
        with pytest.raises(ValueError):
            StreamingHealthMonitor(suspect_prr=1.5)

    def test_warmup_and_cooldown_gate_actions(self):
        monitor = StreamingHealthMonitor(warmup_epochs=2, confirm_epochs=1,
                                         cooldown_epochs=1)
        assert not monitor.actionable(0) and not monitor.actionable(1)
        assert monitor.actionable(2)
        monitor.note_action(2)
        assert not monitor.actionable(3)
        assert monitor.actionable(4)

    def test_reject_streak_confirms_after_confirm_epochs(self):
        monitor = StreamingHealthMonitor(confirm_epochs=2)
        link = (1, 2)
        monitor.observe([diagnosis(link, Verdict.REJECT)])
        assert monitor.confirmed_reuse_victims() == []
        monitor.observe([diagnosis(link, Verdict.REJECT)])
        assert monitor.confirmed_reuse_victims() == [link]

    def test_streak_resets_when_link_disappears(self):
        monitor = StreamingHealthMonitor(confirm_epochs=2)
        link = (1, 2)
        monitor.observe([diagnosis(link, Verdict.REJECT)])
        monitor.observe([])  # link left the diagnoses (e.g. rescheduled)
        monitor.observe([diagnosis(link, Verdict.REJECT)])
        assert monitor.confirmed_reuse_victims() == []

    def test_accept_streak_confirms_external(self):
        monitor = StreamingHealthMonitor(confirm_epochs=2)
        link = (4, 5)
        for _ in range(2):
            monitor.observe([diagnosis(link, Verdict.ACCEPT)])
        assert monitor.confirmed_external() == [link]
        assert monitor.confirmed_reuse_victims() == []

    def test_suspects_need_low_reuse_prr(self):
        monitor = StreamingHealthMonitor(confirm_epochs=2, suspect_prr=0.7)
        deep = (1, 2)
        shallow = (3, 4)
        missing = (5, 6)
        epoch = [
            diagnosis(deep, Verdict.INSUFFICIENT_DATA, reuse_prr=0.2),
            diagnosis(shallow, Verdict.INSUFFICIENT_DATA, reuse_prr=0.75),
            diagnosis(missing, Verdict.INSUFFICIENT_DATA, reuse_prr=None),
        ]
        monitor.observe(epoch)
        monitor.observe(epoch)
        assert monitor.confirmed_suspects() == [deep]

    def test_note_action_clears_every_streak(self):
        monitor = StreamingHealthMonitor(confirm_epochs=1)
        monitor.observe([
            diagnosis((1, 2), Verdict.REJECT),
            diagnosis((3, 4), Verdict.ACCEPT),
            diagnosis((5, 6), Verdict.INSUFFICIENT_DATA, reuse_prr=0.1),
        ])
        assert (monitor.confirmed_reuse_victims()
                and monitor.confirmed_external()
                and monitor.confirmed_suspects())
        monitor.note_action(0)
        assert not (monitor.confirmed_reuse_victims()
                    or monitor.confirmed_external()
                    or monitor.confirmed_suspects())


# ----------------------------------------------------------------------
# Remediation policies (pure decision functions)
# ----------------------------------------------------------------------

def link_epoch_report(link, reuse_prr, epoch=0):
    return LinkEpochReport(link=link, epoch=epoch, reuse_samples=(reuse_prr,),
                           contention_free_samples=(), reuse_prr=reuse_prr,
                           contention_free_prr=None)


def observation(victims=(), external=(), suspects=(), channel_prr=None,
                actionable=True, rho_t=2, num_channels=5, barred=(),
                reuse_prrs=None):
    links = {}
    for link in (*victims, *external, *suspects):
        prr = (reuse_prrs or {}).get(link, 0.5)
        links[link] = link_epoch_report(link, prr)
    return Observation(
        epoch=4, report=EpochReport(epoch=4, links=links), diagnoses=[],
        confirmed_victims=list(victims), confirmed_external=list(external),
        confirmed_suspects=list(suspects),
        channel_prr=dict(channel_prr or {}), actionable=actionable,
        rho_t=rho_t, num_channels=num_channels, barred_links=tuple(barred))


class TestNoOp:
    def test_never_acts(self):
        assert NoOp().decide(observation(victims=[(1, 2)])) is None


class TestRescheduleVictims:
    def test_holds_still_when_not_actionable(self):
        policy = RescheduleVictims()
        assert policy.decide(observation(victims=[(1, 2)],
                                         actionable=False)) is None

    def test_holds_still_without_fresh_victims(self):
        policy = RescheduleVictims()
        assert policy.decide(observation()) is None
        assert policy.decide(observation(victims=[(1, 2)],
                                         barred=[(1, 2)])) is None

    def test_bars_worst_links_first_up_to_cap(self):
        policy = RescheduleVictims(max_victims_per_action=2)
        obs = observation(
            victims=[(1, 2), (3, 4), (5, 6)],
            reuse_prrs={(1, 2): 0.6, (3, 4): 0.1, (5, 6): 0.3})
        action = policy.decide(obs)
        assert action.kind == "reschedule"
        assert action.victims == ((3, 4), (5, 6))

    def test_suspects_included_and_deduplicated(self):
        policy = RescheduleVictims()
        action = policy.decide(observation(victims=[(1, 2)],
                                           suspects=[(1, 2), (3, 4)]))
        assert set(action.victims) == {(1, 2), (3, 4)}

    def test_suspects_excluded_when_disabled(self):
        policy = RescheduleVictims(include_suspects=False)
        assert policy.decide(observation(suspects=[(3, 4)])) is None


class TestBlacklistChannel:
    def prr(self, worst=0.5):
        return {11: worst, 12: 0.95, 13: 0.96, 14: 0.97, 15: 0.98}

    def test_requires_confirmed_external_links(self):
        policy = BlacklistChannel()
        assert policy.decide(observation(channel_prr=self.prr())) is None

    def test_blacklists_the_worst_channel(self):
        policy = BlacklistChannel()
        action = policy.decide(observation(external=[(1, 2)],
                                           channel_prr=self.prr()))
        assert action.kind == "blacklist" and action.channel == 11

    def test_respects_min_channels_floor(self):
        policy = BlacklistChannel(min_channels=2)
        obs = observation(external=[(1, 2)], channel_prr={11: 0.3, 12: 0.9},
                          num_channels=2)
        assert policy.decide(obs) is None

    def test_holds_still_when_all_channels_equally_bad(self):
        policy = BlacklistChannel(margin=0.05)
        obs = observation(external=[(1, 2)],
                          channel_prr={ch: 0.5 for ch in range(11, 16)})
        assert policy.decide(obs) is None


class TestEscalateRho:
    def test_escalates_on_victims_or_suspects(self):
        policy = EscalateRho(step=1)
        action = policy.decide(observation(suspects=[(1, 2)], rho_t=2))
        assert action.kind == "escalate_rho" and action.rho_t == 3

    def test_caps_at_max_rho(self):
        policy = EscalateRho(step=2, max_rho=4)
        assert policy.decide(observation(victims=[(1, 2)],
                                         rho_t=4)) is None
        action = policy.decide(observation(victims=[(1, 2)], rho_t=3))
        assert action.rho_t == 4

    def test_holds_still_without_degradation(self):
        assert EscalateRho().decide(observation()) is None


class TestMakeManagerPolicy:
    @pytest.mark.parametrize("name, cls", [
        ("noop", NoOp), ("reschedule", RescheduleVictims),
        ("blacklist", BlacklistChannel), ("escalate", EscalateRho),
        ("RescheduleVictims", RescheduleVictims), ("NOOP", NoOp),
    ])
    def test_names_resolve(self, name, cls):
        assert isinstance(make_manager_policy(name), cls)

    def test_instances_pass_through(self):
        policy = RescheduleVictims(max_victims_per_action=3)
        assert make_manager_policy(policy) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown manager policy"):
            make_manager_policy("panic")

    def test_action_describe_labels(self):
        assert Action(kind="reschedule",
                      victims=((1, 2),)).describe() == "reschedule(1 links)"
        assert Action(kind="blacklist",
                      channel=13).describe() == "blacklist(ch13)"
        assert Action(kind="escalate_rho",
                      rho_t=3).describe() == "escalate_rho(3)"


# ----------------------------------------------------------------------
# Compile cache (satellite: reuse compiled schedules across epochs)
# ----------------------------------------------------------------------

def compiled_entries(schedule):
    """The schedule's entries grouped by slot, read from the simulator's
    compile cache."""
    return engine._compilation(schedule).entries


class TestCompileCache:
    def _schedule(self):
        schedule = Schedule(num_nodes=4, num_slots=6, num_offsets=2)
        schedule.add(TransmissionRequest(0, 0, 0, 0, sender=0, receiver=1,
                                         release_slot=0, deadline_slot=5),
                     slot=0, offset=0)
        return schedule

    def test_repeat_compiles_share_the_cache_entry(self):
        schedule = self._schedule()
        first = compiled_entries(schedule)
        assert compiled_entries(schedule) is first

    def test_schedule_growth_invalidates_the_entry(self):
        schedule = self._schedule()
        first = compiled_entries(schedule)
        schedule.add(TransmissionRequest(1, 0, 0, 0, sender=2, receiver=3,
                                         release_slot=0, deadline_slot=5),
                     slot=1, offset=1)
        second = compiled_entries(schedule)
        assert second is not first
        assert sorted(second) == [0, 1]

    def test_same_length_edit_invalidates_the_entry(self):
        """Evict-then-add keeps the entry count; the mutation counter
        still retires the cached compilation."""
        schedule = self._schedule()
        first = compiled_entries(schedule)
        moved = schedule.entries[0].request
        schedule.evict([0])
        schedule.add(moved, slot=3, offset=1)
        second = compiled_entries(schedule)
        assert second is not first
        assert sorted(second) == [3]

    def test_distinct_schedules_get_distinct_entries(self):
        assert (compiled_entries(self._schedule())
                is not compiled_entries(self._schedule()))


# ----------------------------------------------------------------------
# The manage loop end to end
# ----------------------------------------------------------------------

QUICK = dict(scheduler_policy="RA", num_flows=40, repetitions_per_epoch=8,
             warmup_epochs=1, confirm_epochs=1, cooldown_epochs=1)


class TestNetworkManager:
    def test_report_is_deterministic_and_worker_invariant(self, wustl):
        topology, environment = wustl
        config = ManagerConfig(policy="reschedule", num_epochs=5, seed=7,
                               **QUICK)
        serial = run_manager(topology, environment, WUSTL_PLAN, config,
                             seeds=[7, 8, 9, 10], workers=1)
        fanned = run_manager(topology, environment, WUSTL_PLAN, config,
                             seeds=[7, 8, 9, 10], workers=4)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in fanned]
        again = NetworkManager(topology, environment, WUSTL_PLAN,
                               config).run()
        assert again.to_dict() == serial[0].to_dict()

    def test_unschedulable_initial_workload_raises(self, wustl):
        topology, environment = wustl
        config = ManagerConfig(num_flows=400, channels=(11,), **{
            k: v for k, v in QUICK.items() if k != "num_flows"})
        with pytest.raises(RuntimeError, match="unschedulable"):
            NetworkManager(topology, environment, WUSTL_PLAN, config).run()

    def test_reschedule_recovers_pdr_lost_to_reuse_storm(self, wustl):
        """The acceptance experiment: under the reuse-interference fault,
        RescheduleVictims must claw back PDR that NoOp keeps losing."""
        topology, environment = wustl
        base = ManagerConfig(scenario="reuse-storm", scheduler_policy="RA",
                             num_epochs=10, seed=3)
        noop = NetworkManager(topology, environment, WUSTL_PLAN,
                              replace_policy(base, "noop")).run()
        fixer = NetworkManager(topology, environment, WUSTL_PLAN,
                               replace_policy(base, "reschedule")).run()

        # Identical fault timeline and identical behaviour until the
        # first remediation fires.
        assert [o.conditions for o in noop.epochs] == [
            o.conditions for o in fixer.epochs]
        assert noop.median_pdr_series()[:3] == fixer.median_pdr_series()[:3]
        assert not noop.actions_taken()
        assert fixer.actions_taken()
        assert fixer.barred_links

        # The storm lands at epoch 3 and must actually hurt.
        healthy = noop.median_pdr_series()[2]
        assert min(noop.median_pdr_series()[3:]) < healthy - 0.1

        # Tail comparison: the remediated network ends clearly above the
        # static baseline.
        noop_tail = noop.median_pdr_series()[-2:]
        fixer_tail = fixer.median_pdr_series()[-2:]
        assert min(fixer_tail) > max(noop_tail) + 0.1


def replace_policy(config: ManagerConfig, policy: str) -> ManagerConfig:
    from dataclasses import replace

    return replace(config, policy=policy)


def fail_every_repair(monkeypatch) -> None:
    """Make every remediation's repair fail placement, so each one falls
    back to the rebuild (patched where ``remediate`` looks it up, which
    reaches the manager and the service alike)."""
    from repro.core.repair import BlastRadius, RepairOutcome
    from repro.manager import loop as loop_mod

    def unschedulable(schedule, *args, **kwargs):
        return RepairOutcome(schedulable=False, schedule=schedule,
                             blast=BlastRadius(), evicted=0,
                             failed_request="forced")

    monkeypatch.setattr(loop_mod, "repair_schedule", unschedulable)


class TestRebuildAudit:
    """A remediation policy's rebuilt schedule only goes live after the
    independent auditor accepts it; a corrupt rebuild is rolled back."""

    def test_corrupt_rebuild_is_rolled_back(self, wustl, monkeypatch):
        from repro.obs import recorder as _obs
        from repro.obs.recorder import Recorder

        from repro.manager import loop as loop_mod

        topology, environment = wustl
        # A failing repair sends every remediation through the rebuild
        # so the corruption below reliably reaches the audit (the repair
        # path has its own corrupt-repair test in TestRepairRemediation).
        fail_every_repair(monkeypatch)
        config = ManagerConfig(scenario="reuse-storm", policy="reschedule",
                               num_epochs=6, seed=3, **QUICK)

        real_rebuild = loop_mod.reschedule_without_reuse_on

        def corrupt_rebuild(*args, **kwargs):
            result = real_rebuild(*args, **kwargs)
            if result.schedulable and len(result.schedule):
                entry = result.schedule.entries[0]
                result.schedule._used_mask[entry.slot] &= \
                    ~(1 << entry.offset)
            return result

        monkeypatch.setattr(loop_mod, "reschedule_without_reuse_on",
                            corrupt_rebuild)
        with _obs.recording(Recorder()) as rec:
            report = NetworkManager(topology, environment, WUSTL_PLAN,
                                    config).run()

        attempted = [o for o in report.epochs if o.action is not None]
        assert attempted, "the storm never triggered a remediation"
        failed_audits = [o for o in report.epochs if not o.audit_ok]
        assert failed_audits, "no corrupt rebuild reached the audit"
        for outcome in failed_audits:
            assert not outcome.action_applied  # rolled back, not applied
            assert outcome.to_dict()["audit_ok"] is False
        # Rollback must also undo the barred-link additions.
        assert report.barred_links == ()

        # One counted rollback per failed epoch, its violations by kind;
        # the forced repair failures are counted as placement fallbacks.
        counters = rec.snapshot()["counters"]
        assert counters["manager.audit_failures"] == len(failed_audits)
        assert counters["manager.audit_violations.occupancy"] >= 1
        assert counters["manager.repair_fallbacks.placement"] == \
            counters["manager.repair_fallbacks"]
        assert "manager.repair_fallbacks.audit" not in counters
        # `repro top`'s health panel shows the rollbacks.
        from repro.obs.timeseries import TimeSeriesStore
        from repro.obs.top import render_top

        panel = render_top(TimeSeriesStore(), snapshot=rec.snapshot())
        row = next(line for line in panel.splitlines()
                   if line.strip().startswith("audit failures"))
        assert row.split()[-1] == str(len(failed_audits))

    def test_clean_rebuild_keeps_audit_ok(self, wustl, monkeypatch):
        topology, environment = wustl
        fail_every_repair(monkeypatch)
        config = ManagerConfig(scenario="reuse-storm", policy="reschedule",
                               num_epochs=6, seed=3, **QUICK)
        report = NetworkManager(topology, environment, WUSTL_PLAN,
                                config).run()
        assert all(o.audit_ok for o in report.epochs)
        applied = [o for o in report.epochs if o.action_applied]
        assert applied
        assert all(o.repair_mode == "rebuild" for o in applied)


class TestRepairRemediation:
    """Repair-first remediation: the incremental repair scheduler is the
    default path, and a repair the auditor rejects (or that fails
    placement) falls back to the audited full rebuild."""

    def test_repair_is_default_remediation_path(self, wustl):
        topology, environment = wustl
        config = ManagerConfig(scenario="reuse-storm", policy="reschedule",
                               num_epochs=6, seed=3, **QUICK)
        report = NetworkManager(topology, environment, WUSTL_PLAN,
                                config).run()
        repaired = [o for o in report.epochs if o.repair_mode == "repair"]
        assert repaired, "no remediation took the repair path"
        assert all(o.audit_ok for o in report.epochs)
        for outcome in repaired:
            assert outcome.action_applied
            assert outcome.evicted_cells > 0
            as_dict = outcome.to_dict()
            assert as_dict["repair_mode"] == "repair"
            assert as_dict["evicted_cells"] == outcome.evicted_cells
        idle = [o for o in report.epochs if o.action is None]
        assert all(o.repair_mode is None and o.evicted_cells == 0
                   for o in idle)

    def test_corrupt_repair_falls_back_to_rebuild(self, wustl,
                                                  monkeypatch):
        from repro.manager import loop as loop_mod
        from repro.obs import recorder as _obs
        from repro.obs.recorder import Recorder

        topology, environment = wustl
        config = ManagerConfig(scenario="reuse-storm", policy="reschedule",
                               num_epochs=6, seed=3, **QUICK)

        real_repair = loop_mod.repair_schedule

        def corrupt_repair(*args, **kwargs):
            outcome = real_repair(*args, **kwargs)
            if outcome.schedulable and len(outcome.schedule):
                entry = outcome.schedule.entries[0]
                cells = outcome.schedule._cells
                cell = (entry.slot, entry.offset)
                cells[cell] = tuple(i for i in cells[cell] if i != 0)
            return outcome

        monkeypatch.setattr(loop_mod, "repair_schedule", corrupt_repair)
        with _obs.recording(Recorder()) as rec:
            report = NetworkManager(topology, environment, WUSTL_PLAN,
                                    config).run()

        applied = [o for o in report.epochs if o.action_applied]
        assert applied, "the storm never triggered a remediation"
        # Every corrupt repair must be rejected by the audit and land
        # via the rebuild instead — never as "repair", never unaudited.
        assert all(o.repair_mode == "rebuild" for o in applied)
        assert all(o.audit_ok for o in report.epochs)
        # Every fallback was the audit's, and its violations are counted
        # by kind.
        counters = rec.snapshot()["counters"]
        assert counters["manager.repair_fallbacks"] >= 1
        assert counters["manager.repair_fallbacks.audit"] == \
            counters["manager.repair_fallbacks"]
        assert "manager.repair_fallbacks.placement" not in counters
        assert counters["manager.audit_violations.occupancy"] >= 1
        assert "manager.audit_failures" not in counters
        # Each remediation is one repair stage, each fallback one
        # rebuild stage.
        histograms = rec.snapshot()["histograms"]
        attempted = sum(o.action is not None for o in report.epochs)
        assert histograms["span.repair.seconds"]["count"] == attempted
        assert histograms["span.rebuild.seconds"]["count"] == \
            counters["manager.repair_fallbacks"]


class TestPinnedManagedRun:
    """One short managed run pinned bit for bit: a repair, a rebuild
    fallback and SLO alerts, on the same epoch-report, SLO-window,
    reuse-link and simulator-compile paths manage-storm runs."""

    #: sha256 of ``json.dumps(report.to_dict(), sort_keys=True)``, with
    #: unrounded floats, recorded before those paths moved to numpy and
    #: running sums.
    DIGEST = ("28e4ef31f812638f23cbdb1b3cb2b00a"
              "accc31fb34768fa854667b68426c394b")

    def test_report_digest(self, wustl):
        topology, environment = wustl
        config = ManagerConfig(scenario="reuse-storm", policy="reschedule",
                               scheduler_policy="RA", num_flows=80,
                               repetitions_per_epoch=8, num_epochs=8,
                               seed=2, warmup_epochs=1, confirm_epochs=1,
                               cooldown_epochs=1)
        report = NetworkManager(topology, environment, WUSTL_PLAN,
                                config).run()
        modes = [outcome.repair_mode for outcome in report.epochs]
        assert "repair" in modes and "rebuild" in modes, modes
        assert any(outcome.slo_alerts for outcome in report.epochs)
        assert len({outcome.num_reuse_links
                    for outcome in report.epochs}) > 2
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
