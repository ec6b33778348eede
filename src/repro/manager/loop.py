"""The closed-loop network-manager runtime.

:class:`NetworkManager` advances a simulated WirelessHART network in
health-report epochs.  Each epoch it (1) resolves the fault scenario
into a :class:`~repro.simulator.conditions.Conditions` overlay, (2)
executes the current schedule for one epoch's worth of hyperperiods with
the ASN continuing where the previous epoch stopped, (3) feeds the
epoch's PRR distributions through the K-S detection policy and the
:class:`~repro.detection.health.StreamingHealthMonitor`, and (4) lets a
remediation policy decide whether to change the schedule — barring
victims from reuse, blacklisting a channel, or raising ρ_t — which
:func:`remediate` carries out (the service's ``reschedule`` verb calls
it too).

Everything is deterministic: given the same (topology, scenario, policy,
seed) the epoch-by-epoch :class:`ManagerReport` is bit-identical, for
any ``--workers`` fan-out (seeds derive from the trial key alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import (
    AbstractSet,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.core.ra import DEFAULT_RHO_T
from repro.core.repair import ChangeSet, ChannelChange, repair_schedule
from repro.core.reschedule import reschedule_without_reuse_on
from repro.core.schedule import Schedule
from repro.detection.classifier import (
    DetectionConfig,
    Verdict,
    diagnose_epoch,
)
from repro.detection.health import (
    SAMPLES_PER_EPOCH,
    StreamingHealthMonitor,
    build_epoch_report,
)
from repro.experiments.common import (
    PreparedNetwork,
    make_policy,
    prepare_network,
    schedule_workload,
)
from repro.experiments.detection_exp import build_detection_flow_set
from repro.experiments.parallel import parallel_map
from repro.flows.flow import FlowSet
from repro.mac.channels import ChannelMap
from repro.manager.faults import (
    ConditionSchedule,
    ScenarioResolver,
    resolve_scenario,
)
from repro.manager.policies import Action, Observation, make_manager_policy
from repro.network.topology import Topology
from repro.obs import recorder as _obs
from repro.obs.slo import STATE_ALERT, STATE_WARN, SloConfig, SloEngine
from repro.obs.spans import stage
from repro.simulator.engine import SimulationConfig, TschSimulator
from repro.simulator.stats import Link
from repro.testbeds.layout import FloorPlan
from repro.testbeds.synth import RadioEnvironment
from repro.validate.audit import Violation, audit_schedule

#: Default hopping set for manager runs: the paper's reliability channels
#: (11-14, all overlapped by WiFi channel 1) plus channel 15, which WiFi
#: channel 1 leaves clean — giving the blacklist policy somewhere to go.
MANAGE_CHANNELS = (11, 12, 13, 14, 15)


@dataclass(frozen=True)
class ManagerConfig:
    """Parameters of one manager run.

    Attributes:
        scenario: Fault timeline — a preset name, a scenario-JSON path,
            or a :class:`ConditionSchedule`.
        policy: Remediation policy — a name from
            :data:`~repro.manager.policies.MANAGER_POLICIES` or an
            instance.
        scheduler_policy: Placement policy building the schedules
            ("NR" / "RA" / "RC").
        rho_t: Initial reuse hop floor for RA / RC.
        num_epochs: Health-report epochs to run.
        repetitions_per_epoch: Hyperperiods per epoch (18 matches the
            paper's 15-minute reports at a 1 s top period).
        num_flows: Peer-to-peer 1 s flows in the workload.
        channels: Physical channels the network hops over.
        seed: Base seed (workload, simulation, and fault resolution all
            derive from it deterministically).
        detection: K-S detection parameters.
        warmup_epochs / confirm_epochs / cooldown_epochs: Streaming
            monitor hysteresis (see
            :class:`~repro.detection.health.StreamingHealthMonitor`).
        slo: Per-flow objective and burn-rate windows
            (:class:`~repro.obs.slo.SloConfig`); every epoch the
            manager feeds the simulator's per-flow tallies to an
            :class:`~repro.obs.slo.SloEngine` and exposes the alert
            state to the remediation policy as an early-warning input
            alongside the K-S verdicts.
        series_prefix: Prepended to every time-series name this run
            records (so concurrent managers — e.g. the adaptation
            study's per-policy arms — don't collide in one store).
    """

    scenario: Union[str, ConditionSchedule] = "reuse-storm"
    policy: Any = "noop"
    scheduler_policy: str = "RC"
    rho_t: int = DEFAULT_RHO_T
    num_epochs: int = 8
    repetitions_per_epoch: int = SAMPLES_PER_EPOCH
    num_flows: int = 80
    channels: Tuple[int, ...] = MANAGE_CHANNELS
    seed: int = 0
    detection: DetectionConfig = DetectionConfig()
    warmup_epochs: int = 2
    confirm_epochs: int = 2
    cooldown_epochs: int = 1
    suspect_prr: float = 0.7
    slo: SloConfig = SloConfig()
    series_prefix: str = ""

    def __post_init__(self) -> None:
        if self.num_epochs < 1:
            raise ValueError("num_epochs must be positive")
        if self.repetitions_per_epoch < 1:
            raise ValueError("repetitions_per_epoch must be positive")
        object.__setattr__(self, "channels", tuple(self.channels))


@dataclass(frozen=True)
class EpochOutcome:
    """Everything the manager recorded about one epoch.

    Attributes:
        epoch: Epoch index.
        conditions: Human-readable overlay summary
            (:meth:`repro.simulator.conditions.Conditions.describe`).
        median_pdr / worst_pdr: Per-flow PDR statistics for this epoch's
            repetitions only.
        num_reuse_links: Links sharing cells in the schedule this epoch
            ran under.
        num_reject / num_accept: This epoch's raw K-S verdict counts.
        confirmed_victims: Streak-confirmed reuse-degraded links.
        confirmed_external: Streak-confirmed other-cause links.
        confirmed_suspects: Streak-confirmed degraded reuse-only links
            the K-S test could not attribute.
        action: Short action label (``None`` when the policy held still).
        action_reason: The policy's trigger summary.
        action_applied: Whether the rebuild succeeded (a failed rebuild
            keeps the previous schedule running).
        num_channels / rho_t: Network state *after* the epoch's action.
        audit_ok: Whether this epoch's rebuild (if any) passed the
            independent schedule audit (:mod:`repro.validate.audit`).
            True when no rebuild was attempted; False means the policy
            produced a schedule that violated the paper's correctness
            contract and the manager rolled it back.
        repair_mode: How this epoch's accepted schedule was produced —
            ``"repair"`` (incremental, :mod:`repro.core.repair`),
            ``"rebuild"`` (full re-schedule, including the fallback
            path), or ``None`` when no action was applied.
        evicted_cells: Cells the incremental repair evicted and
            re-placed (0 outside ``repair_mode == "repair"``).
        slo_alerts / slo_warns: Flow ids whose SLO burn-rate state is
            ``alert`` / ``warn`` after this epoch.
    """

    epoch: int
    conditions: str
    median_pdr: float
    worst_pdr: float
    num_reuse_links: int
    num_reject: int
    num_accept: int
    confirmed_victims: Tuple[Link, ...]
    confirmed_external: Tuple[Link, ...]
    confirmed_suspects: Tuple[Link, ...]
    action: Optional[str]
    action_reason: str
    action_applied: bool
    num_channels: int
    rho_t: int
    audit_ok: bool = True
    repair_mode: Optional[str] = None
    evicted_cells: int = 0
    slo_alerts: Tuple[int, ...] = ()
    slo_warns: Tuple[int, ...] = ()

    def to_dict(self) -> Dict:
        """JSON-serializable form (links become 2-lists)."""
        return {
            "epoch": self.epoch,
            "conditions": self.conditions,
            "median_pdr": self.median_pdr,
            "worst_pdr": self.worst_pdr,
            "num_reuse_links": self.num_reuse_links,
            "num_reject": self.num_reject,
            "num_accept": self.num_accept,
            "confirmed_victims": [list(l) for l in self.confirmed_victims],
            "confirmed_external": [list(l) for l in self.confirmed_external],
            "confirmed_suspects": [list(l) for l in self.confirmed_suspects],
            "action": self.action,
            "action_reason": self.action_reason,
            "action_applied": self.action_applied,
            "num_channels": self.num_channels,
            "rho_t": self.rho_t,
            "audit_ok": self.audit_ok,
            "repair_mode": self.repair_mode,
            "evicted_cells": self.evicted_cells,
            "slo_alerts": list(self.slo_alerts),
            "slo_warns": list(self.slo_warns),
        }


@dataclass
class ManagerReport:
    """Epoch-by-epoch record of one manager run.

    The :meth:`to_dict` form is the determinism artifact: two runs with
    the same (topology, scenario, policy, seed) must produce identical
    dicts, regardless of worker counts elsewhere in the sweep.
    """

    scenario: str
    policy: str
    scheduler_policy: str
    seed: int
    epochs: List[EpochOutcome] = field(default_factory=list)
    barred_links: Tuple[Link, ...] = ()
    final_channels: Tuple[int, ...] = ()
    final_rho_t: int = DEFAULT_RHO_T

    def median_pdr_series(self) -> List[float]:
        """Median per-flow PDR, per epoch (the Fig 8-style y-axis)."""
        return [outcome.median_pdr for outcome in self.epochs]

    def worst_pdr_series(self) -> List[float]:
        """Worst-case per-flow PDR, per epoch."""
        return [outcome.worst_pdr for outcome in self.epochs]

    def actions_taken(self) -> List[Tuple[int, str]]:
        """(epoch, action label) for every applied action."""
        return [(o.epoch, o.action) for o in self.epochs
                if o.action is not None and o.action_applied]

    def to_dict(self) -> Dict:
        """JSON-serializable form."""
        return {
            "scenario": self.scenario,
            "policy": self.policy,
            "scheduler_policy": self.scheduler_policy,
            "seed": self.seed,
            "epochs": [outcome.to_dict() for outcome in self.epochs],
            "barred_links": [list(l) for l in self.barred_links],
            "final_channels": list(self.final_channels),
            "final_rho_t": self.final_rho_t,
        }


@dataclass(frozen=True)
class Remediation:
    """What :func:`remediate` decided.

    Attributes:
        schedule: The schedule to run next, or ``None`` to roll back
            (the caller keeps the previous schedule running — a live
            network cannot stop).
        mode: ``"repair"`` or ``"rebuild"``; ``None`` on rollback.
        evicted: Cells the accepted repair evicted and re-placed (0
            unless ``mode == "repair"``).
        fallback: Why repair gave way to the rebuild — ``"placement"``
            or ``"audit"`` — or ``None`` when it did not.
        audit_ok: The rebuild's audit verdict; True when no rebuild was
            audited.
        violations: The audit violations of every rejected result, the
            repair's first.
    """

    schedule: Optional[Schedule]
    mode: Optional[str] = None
    evicted: int = 0
    fallback: Optional[str] = None
    audit_ok: bool = True
    violations: Tuple[Violation, ...] = ()


def remediate(network: PreparedNetwork, flow_set: FlowSet,
              schedule: Schedule, change: ChangeSet, *, policy: str,
              rho_t: int, barred: Set[Link], audit: bool) -> Remediation:
    """Move reuse-degraded transmissions to other cells (Section VI).

    Repairs locally first (:func:`~repro.core.repair.repair_schedule`
    evicts only the change's blast radius and re-places it against the
    surviving schedule), and falls back to the full barrier rebuild
    (:func:`~repro.core.reschedule.reschedule_without_reuse_on`, every
    barred link and the change's victims held out of shared cells) when
    repair fails placement or its result fails the audit.  With
    ``audit`` set, each result is checked by the independent auditor
    (:func:`~repro.validate.audit.audit_schedule`: conflict-freedom,
    precedence, deadlines, the ρ floor, barred-link exclusivity) before
    it may go live.  The three steps are called through this module's
    names, where tests and perfbench's traced runs patch them.

    Args:
        network: The network the schedule runs on after the change (the
            restricted one for a blacklist).
        flow_set: The routed, priority-ordered flows.
        schedule: The running schedule (never mutated).
        change: What changed.
        policy: Placement policy name ("NR" / "RA" / "RC").
        rho_t: The reuse floor in force after the change.
        barred: Links already barred; ``change.victims`` join them.
        audit: Audit every result before accepting it.
    """
    barred_all = set(barred) | set(change.victims)
    floor = math.inf if policy == "NR" else rho_t
    violations: List[Violation] = []

    def rejected(candidate: Schedule) -> bool:
        if not audit:
            return False
        report = audit_schedule(candidate, network.reuse, floor,
                                flow_set=flow_set, barred_links=barred_all)
        violations.extend(report.violations)
        return not report.ok

    with stage("repair") as sp:
        outcome = repair_schedule(schedule, flow_set, network.reuse, change,
                                  rho_t=rho_t, barred=barred,
                                  policy_name=policy)
        if sp is not None:
            sp.annotate(victims=len(change.victims),
                        repaired=outcome.schedulable,
                        evicted=outcome.evicted)
    if not outcome.schedulable:
        fallback = "placement"
    elif rejected(outcome.schedule):
        fallback = "audit"
    else:
        return Remediation(outcome.schedule, "repair", outcome.evicted)

    with stage("rebuild") as sp:
        rebuilt = reschedule_without_reuse_on(
            flow_set, network.topology.num_nodes, network.num_channels,
            network.reuse, make_policy(policy, rho_t), barred_all)
        if sp is not None:
            sp.annotate(barred=len(barred_all),
                        schedulable=rebuilt.schedulable)
    audit_ok = not (rebuilt.schedulable and rejected(rebuilt.schedule))
    live = rebuilt.schedulable and audit_ok
    return Remediation(rebuilt.schedule if live else None,
                       "rebuild" if live else None, 0, fallback, audit_ok,
                       tuple(violations))


class NetworkManager:
    """Runs one closed manage loop over a prepared testbed.

    Args:
        topology: Full testbed topology (all synthesized channels — the
            manager restricts it itself, and blacklisting re-restricts).
        environment: Ground-truth RF environment.
        plan: Building geometry (fault interferer placement).
        config: Run parameters.
    """

    def __init__(self, topology: Topology, environment: RadioEnvironment,
                 plan: FloorPlan, config: ManagerConfig = ManagerConfig()):
        self.topology = topology
        self.environment = environment
        self.plan = plan
        self.config = config
        self.scenario = resolve_scenario(config.scenario)
        self.policy = make_manager_policy(config.policy)

    # ------------------------------------------------------------------
    # Schedule (re)construction
    # ------------------------------------------------------------------

    def _initial_state(self) -> Tuple[PreparedNetwork, FlowSet, Schedule]:
        """Prepare the network, draw the workload, build the schedule."""
        network = prepare_network(self.topology,
                                  channels=self.config.channels)
        rng = np.random.default_rng(self.config.seed)
        flow_set = build_detection_flow_set(network, rng,
                                            self.config.num_flows)
        result = schedule_workload(network, flow_set,
                                   self.config.scheduler_policy,
                                   self.config.rho_t)
        if not result.schedulable:
            raise RuntimeError(
                f"initial workload unschedulable "
                f"({self.config.num_flows} flows, "
                f"{len(self.config.channels)} channels, "
                f"{self.config.scheduler_policy}, "
                f"rho_t={self.config.rho_t}) — reduce --flows or add "
                f"channels")
        return network, flow_set, result.schedule

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def run(self) -> ManagerReport:
        """Execute the manage loop and return its epoch-by-epoch report."""
        config = self.config
        network, flow_set, schedule = self._initial_state()
        resolver = ScenarioResolver(self.scenario, self.environment,
                                    self.plan, seed=config.seed)
        monitor = StreamingHealthMonitor(
            warmup_epochs=config.warmup_epochs,
            confirm_epochs=config.confirm_epochs,
            cooldown_epochs=config.cooldown_epochs,
            suspect_prr=config.suspect_prr)
        slo_engine = SloEngine(config.slo,
                               series_prefix=config.series_prefix)
        report = ManagerReport(
            scenario=self.scenario.name, policy=self.policy.name,
            scheduler_policy=config.scheduler_policy, seed=config.seed)

        rho_t = config.rho_t
        barred: Set[Link] = set()
        # Derived once per adopted schedule: the epoch outcome and the
        # SLO candidates read it, and only a remediation changes it.
        reuse_links = frozenset(schedule.reuse_links())
        for epoch in range(config.num_epochs):
            conditions = resolver.conditions_for(epoch)
            simulator = TschSimulator(
                schedule=schedule, flow_set=flow_set,
                environment=self.environment,
                channel_map=network.topology.channel_map,
                config=SimulationConfig(
                    seed=(config.seed + 1) * 1_000_003 + epoch),
                conditions=conditions)
            stats = simulator.run(
                config.repetitions_per_epoch,
                start_repetition=epoch * config.repetitions_per_epoch)

            epoch_report = build_epoch_report(stats, epoch)
            diagnoses = diagnose_epoch(epoch_report, config.detection)
            monitor.observe(diagnoses)

            # SLO burn-rate evaluation over this epoch's per-flow
            # tallies — the detector-independent early-warning signal.
            slo_states = slo_engine.observe_epoch(
                epoch, dict(stats.flow_released),
                dict(stats.flow_delivered))
            slo_alerts = tuple(s.flow_id for s in slo_states
                               if s.state == STATE_ALERT)
            slo_warns = tuple(s.flow_id for s in slo_states
                              if s.state == STATE_WARN)
            slo_candidates = self._slo_victim_candidates(
                slo_alerts, flow_set, reuse_links, barred)

            observation = Observation(
                epoch=epoch, report=epoch_report, diagnoses=diagnoses,
                confirmed_victims=monitor.confirmed_reuse_victims(),
                confirmed_external=monitor.confirmed_external(),
                confirmed_suspects=monitor.confirmed_suspects(),
                channel_prr=stats.channel_prr(),
                actionable=monitor.actionable(epoch),
                rho_t=rho_t, num_channels=network.num_channels,
                barred_links=tuple(sorted(barred)),
                slo_alerts=slo_alerts, slo_warns=slo_warns,
                slo_victim_candidates=slo_candidates)

            action = self.policy.decide(observation)
            remedy = Remediation(None)
            if action is not None:
                remedy, network, rho_t = self._apply(
                    action, network, flow_set, schedule, rho_t, barred)
                if remedy.schedule is not None:
                    schedule = remedy.schedule
                    reuse_links = frozenset(schedule.reuse_links())
                # Cooldown regardless of success: pre-action streaks are
                # stale either way, and retry spacing prevents thrash.
                monitor.note_action(epoch)
            applied = remedy.schedule is not None

            outcome = EpochOutcome(
                epoch=epoch, conditions=conditions.describe(),
                median_pdr=stats.median_pdr(), worst_pdr=stats.worst_pdr(),
                num_reuse_links=len(reuse_links),
                num_reject=sum(d.verdict is Verdict.REJECT
                               for d in diagnoses),
                num_accept=sum(d.verdict is Verdict.ACCEPT
                               for d in diagnoses),
                confirmed_victims=tuple(observation.confirmed_victims),
                confirmed_external=tuple(observation.confirmed_external),
                confirmed_suspects=tuple(observation.confirmed_suspects),
                action=action.describe() if action else None,
                action_reason=action.reason if action else "",
                action_applied=applied,
                num_channels=network.num_channels, rho_t=rho_t,
                audit_ok=remedy.audit_ok,
                repair_mode=remedy.mode, evicted_cells=remedy.evicted,
                slo_alerts=slo_alerts, slo_warns=slo_warns)
            report.epochs.append(outcome)

            if _obs.ENABLED:
                _obs.RECORDER.count("manager.epochs")
                if action is not None:
                    _obs.RECORDER.count(f"manager.action.{action.kind}")
                    if applied:
                        _obs.RECORDER.count("manager.actions_applied")
                self._record_epoch_series(epoch, outcome, stats, monitor,
                                          applied)

        report.barred_links = tuple(sorted(barred))
        report.final_channels = tuple(network.topology.channel_map)
        report.final_rho_t = rho_t
        return report

    @staticmethod
    def _slo_victim_candidates(slo_alerts: Sequence[int],
                               flow_set: FlowSet,
                               reuse_links: AbstractSet[Link],
                               barred: Set[Link]) -> Tuple[Link, ...]:
        """Reuse links carried by SLO-alerting flows, as victim hints.

        Burn rates indict *flows*; remediation bars *links*.  The
        bridge is route membership: a link is a candidate when it is on
        an alerting flow's route *and* is one of the running schedule's
        ``reuse_links`` (reuse is the only cause the manager can
        remediate by rescheduling).  Already-barred links are excluded —
        re-barring them is a no-op.
        """
        if not slo_alerts:
            return ()
        alerting = set(slo_alerts)
        candidates: Set[Link] = set()
        for flow in flow_set:
            if flow.flow_id not in alerting:
                continue
            for link in flow.links:
                if link in reuse_links and link not in barred:
                    candidates.add(link)
        return tuple(sorted(candidates))

    def _record_epoch_series(self, epoch: int, outcome: EpochOutcome,
                             stats, monitor: StreamingHealthMonitor,
                             applied: bool) -> None:
        """Feed this epoch's network-level samples to the time-series
        store (the SLO engine already recorded the per-flow series).

        No-op unless the active recorder has a store attached.
        """
        recorder = _obs.RECORDER
        if recorder.timeseries is None:
            return
        prefix = self.config.series_prefix
        recorder.sample(prefix + "manager.median_pdr", epoch,
                        outcome.median_pdr)
        recorder.sample(prefix + "manager.worst_pdr", epoch,
                        outcome.worst_pdr)
        recorder.sample(prefix + "manager.reuse_links", epoch,
                        outcome.num_reuse_links)
        recorder.sample(prefix + "manager.actions", epoch,
                        1.0 if applied else 0.0)
        recorder.sample(prefix + "manager.slo_alerting", epoch,
                        len(outcome.slo_alerts))
        for kind, count in monitor.streak_counts().items():
            recorder.sample(prefix + f"manager.health.{kind}_streaks",
                            epoch, count)
        for channel, prr in sorted(stats.channel_prr().items()):
            recorder.sample(prefix + f"channel.{channel}.prr", epoch, prr)

    def _apply(self, action: Action, network: PreparedNetwork,
               flow_set: FlowSet, schedule: Schedule, rho_t: int,
               barred: Set[Link],
               ) -> Tuple[Remediation, PreparedNetwork, int]:
        """Carry out one action through :func:`remediate`, audited.

        Returns the remediation and the network / ρ_t to run next; a
        rolled-back action keeps the old ones and leaves ``barred`` (the
        accumulated no-reuse set) as it was, an applied one adds its
        victims to it in place.
        """
        new_network, new_rho = network, rho_t
        if action.kind == "reschedule":
            change = ChangeSet(
                victims=tuple(sorted(set(action.victims) - barred)))
        elif action.kind == "blacklist":
            remaining = tuple(ch for ch in network.topology.channel_map
                              if ch != action.channel)
            if not remaining:
                return Remediation(None), network, rho_t
            # Keep the original routes (the flow set is already routed)
            # and remediate on the reduced hopping set.  The reuse graph
            # is re-derived from the restricted topology; route quality
            # is re-assessed only at the next full (re)provisioning —
            # the standard WirelessHART split between the fast blacklist
            # path and slow route maintenance.
            new_network = prepare_network(self.topology, channels=remaining)
            new_map = tuple(new_network.topology.channel_map)
            change = ChangeSet(channel=ChannelChange(
                reuse_graph=new_network.reuse,
                num_offsets=new_network.num_channels,
                offset_map=tuple(
                    new_map.index(ch) if ch in new_map else None
                    for ch in network.topology.channel_map)))
        elif action.kind == "escalate_rho":
            if action.rho_t is not None:
                new_rho = action.rho_t
            change = ChangeSet(rho_t=new_rho)
        else:
            raise ValueError(f"unknown action kind: {action.kind!r}")

        remedy = remediate(new_network, flow_set, schedule, change,
                           policy=self.config.scheduler_policy,
                           rho_t=new_rho, barred=barred, audit=True)
        if _obs.ENABLED:
            recorder = _obs.RECORDER
            if remedy.fallback is not None:
                recorder.count("manager.repair_fallbacks")
                recorder.count(
                    f"manager.repair_fallbacks.{remedy.fallback}")
            if not remedy.audit_ok:
                recorder.count("manager.audit_failures")
            for violation in remedy.violations:
                recorder.count(f"manager.audit_violations.{violation.kind}")
        if remedy.schedule is None:
            return remedy, network, rho_t
        barred.update(change.victims)
        return remedy, new_network, new_rho


def _manager_trial(context: Dict[str, Any], seed: int) -> ManagerReport:
    """One manager run for one seed (the :func:`parallel_map` trial)."""
    config: ManagerConfig = replace(context["config"], seed=seed)
    manager = NetworkManager(context["topology"], context["environment"],
                             context["plan"], config)
    return manager.run()


def run_manager(topology: Topology, environment: RadioEnvironment,
                plan: FloorPlan, config: ManagerConfig = ManagerConfig(),
                *, seeds: Optional[Sequence[int]] = None,
                workers: int = 1) -> List[ManagerReport]:
    """Run the manage loop for one or more seeds.

    Args:
        topology: Full testbed topology.
        environment: Its RF environment.
        plan: Building geometry.
        config: Run parameters (``config.seed`` is overridden per trial).
        seeds: Seeds to fan out over; ``None`` runs just ``config.seed``.
        workers: Worker processes (``0`` = all CPUs).  Reports are
            bit-identical for any worker count.

    Returns:
        One :class:`ManagerReport` per seed, in ``seeds`` order.
    """
    trial_seeds = list(seeds) if seeds is not None else [config.seed]
    context = {"topology": topology, "environment": environment,
               "plan": plan, "config": config}
    return parallel_map(_manager_trial, trial_seeds, workers=workers,
                        context=context)
