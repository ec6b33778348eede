"""Seeded differential fuzzing of the scheduling and simulation paths.

RC places through its fused descent or, inside
:func:`repro.core.rc.stepwise_descent`, through Algorithm 1's stepwise
loop (the oracle); NR and RA have one path each.  The simulator runs
with or without a :class:`~repro.simulator.conditions.Conditions`
overlay.  This harness generates random synthetic networks + flow sets
and, for each case:

* asserts **bit-identical schedules** between RC's fused descent and
  its stepwise oracle, in both ``rho_reset`` modes and both offset
  rules;
* runs the independent auditor (:func:`repro.validate.audit
  .audit_schedule`) over every produced schedule — an audit failure's
  artifact embeds a decision-provenance slice for the violating cells
  (the case is replayed under a live
  :class:`~repro.obs.provenance.ProvenanceRecorder` and decisions
  touching a violation's slot or flow are kept);
* asserts **bit-identical provenance streams and counters** between
  RC's two descents in every variant, and that recording
  provenance does not perturb any policy's schedule;
* exercises the **incremental repair scheduler**
  (:mod:`repro.core.repair`) on a schedulable result: a deterministic
  victim link is evicted and re-placed via warm-start repair, a
  successful repair must pass the full auditor with the victim barred
  from reuse, the input schedule must come back untouched, and a
  ρ-escalation repair must audit clean at the raised floor; when
  repair fails placement, the designed fallback — the full barrier
  rebuild — is run and its product audited instead, so a placement
  failure can never silently escape correctness coverage; every
  product's memoized canonical hash must equal a fresh one;
* cross-checks simulator invariants on a schedulable result:
  deliveries never exceed releases per flow, the observability counters
  ``sim.attempts`` / ``sim.successes`` / ``sim.deliveries`` equal the
  :class:`~repro.simulator.stats.SimulationStats` totals (with and
  without dark nodes), an enabled recorder does not perturb results,
  and an empty ``Conditions()`` overlay is equivalent to no overlay;
* asserts **bit-identical simulation statistics** between the
  slot-driven oracle and the batched event engine
  (:mod:`repro.simulator.events`) — clean and under every overlay axis
  (dark senders, an interferer burst, per-pair drift + reuse boost) —
  and that the event engine's results are invariant to its
  repetition-chunk size.

Everything is derived from ``(seed, case_index)``, so a failing case's
JSON artifact pins the exact network, workload, and draw sequence:
re-running ``run_fuzz`` with the same seed and enough cases replays it.
"""

from __future__ import annotations

import contextlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ra import DEFAULT_RHO_T
from repro.core.rc import (ConservativeReusePolicy, RHO_RESET_FLOW,
                           RHO_RESET_TRANSMISSION, stepwise_descent)
from repro.core.schedule import Schedule
from repro.core.scheduler import (OFFSET_FIRST, OFFSET_LEAST_LOADED,
                                  FixedPriorityScheduler, SchedulingResult)
from repro.experiments.common import (PreparedNetwork, build_workload,
                                      make_policy, prepare_network)
from repro.flows.flow import FlowSet
from repro.flows.generator import PeriodRange
from repro.obs import recorder as _obs
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.recorder import Recorder
from repro.routing.shortest_path import NoRouteError
from repro.routing.traffic import TrafficType
from repro.network.node import Position
from repro.simulator.conditions import Conditions
from repro.simulator.engine import (ENGINE_EVENT, ENGINE_SLOT,
                                    SimulationConfig, TschSimulator)
from repro.simulator.events import run_event_batched
from repro.simulator.interference import WifiInterferer
from repro.simulator.stats import SimulationStats, stats_signature
from repro.testbeds.layout import FloorPlan
from repro.testbeds.synth import RadioEnvironment, make_testbed
from repro.validate.audit import audit_schedule

#: Redraws allowed before a case is recorded as skipped (a draw can land
#: on a network too sparse to route the workload).
_MAX_REDRAWS = 5

#: Hyperperiods executed per simulator invariant check.
_SIM_REPETITIONS = 3


@dataclass
class FuzzCaseResult:
    """Outcome of one fuzz case.

    Attributes:
        index: Case index within the run.
        seed: The run seed (case entropy is ``default_rng([seed, index])``).
        params: The generated case parameters (for the failure artifact).
        skipped: True when no routable network could be drawn.
        failures: One dict per failed cross-check, each with a ``check``
            name and a human-readable ``detail`` (plus the audit report
            for auditor failures).
    """

    index: int
    seed: int
    params: Dict = field(default_factory=dict)
    skipped: bool = False
    failures: List[Dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every cross-check of the case passed."""
        return not self.failures

    def fail(self, check: str, detail: str, **extra) -> None:
        """Record one failed cross-check."""
        self.failures.append({"check": check, "detail": detail, **extra})

    def to_dict(self) -> Dict:
        """JSON-serializable failure artifact."""
        return {
            "index": self.index,
            "seed": self.seed,
            "params": dict(self.params),
            "skipped": self.skipped,
            "ok": self.ok,
            "failures": list(self.failures),
            "reproduce": (f"repro fuzz --cases {self.index + 1} "
                          f"--seed {self.seed}"),
        }


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzz run."""

    seed: int
    num_cases: int
    cases: List[FuzzCaseResult] = field(default_factory=list)

    @property
    def failed_cases(self) -> List[FuzzCaseResult]:
        """Cases with at least one failed cross-check."""
        return [case for case in self.cases if not case.ok]

    @property
    def num_skipped(self) -> int:
        """Cases where no routable network could be drawn."""
        return sum(1 for case in self.cases if case.skipped)

    @property
    def ok(self) -> bool:
        """Whether every executed case passed every cross-check."""
        return not self.failed_cases

    def to_dict(self) -> Dict:
        """JSON-serializable summary (failing cases in full)."""
        return {
            "ok": self.ok,
            "seed": self.seed,
            "num_cases": self.num_cases,
            "num_skipped": self.num_skipped,
            "num_failed": len(self.failed_cases),
            "failed_cases": [case.to_dict() for case in self.failed_cases],
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        verdict = "OK" if self.ok else "FAILED"
        return (f"fuzz {verdict}: {self.num_cases} cases "
                f"({self.num_skipped} skipped), "
                f"{len(self.failed_cases)} failed")


def _draw_params(rng: np.random.Generator) -> Dict:
    """Draw one case's network + workload parameters."""
    return {
        "num_nodes": int(rng.integers(10, 25)),
        "num_floors": int(rng.integers(1, 4)),
        "floor_width_m": float(rng.integers(25, 61)),
        "floor_depth_m": float(rng.integers(15, 41)),
        "topology_seed": int(rng.integers(0, 2 ** 31)),
        "num_channels": int(rng.integers(2, 9)),
        "num_flows": int(rng.integers(3, 9)),
        "min_exp": -2,
        "max_exp": int(rng.integers(-2, 1)),
        "traffic": str(rng.choice(["peer_to_peer", "centralized"])),
        "workload_seed": int(rng.integers(0, 2 ** 31)),
        "rho_t": int(rng.integers(1, 4)),
        "sim_seed": int(rng.integers(0, 2 ** 31)),
    }


def _build_case(params: Dict
                ) -> Tuple[PreparedNetwork, RadioEnvironment, FlowSet]:
    """Materialize a drawn case: testbed, prepared network, routed flows.

    Raises:
        NoRouteError / ValueError: When the drawn network cannot carry
            the drawn workload (caller redraws).
    """
    plan = FloorPlan(num_floors=params["num_floors"],
                     floor_width_m=params["floor_width_m"],
                     floor_depth_m=params["floor_depth_m"])
    topology, environment = make_testbed(
        params["num_nodes"], plan, params["topology_seed"],
        name=f"fuzz-{params['topology_seed']}")
    network = prepare_network(topology, num_channels=params["num_channels"])
    flow_set = build_workload(
        network, params["num_flows"],
        PeriodRange(params["min_exp"], params["max_exp"]),
        TrafficType(params["traffic"]),
        np.random.default_rng(params["workload_seed"]))
    return network, environment, flow_set


def _entries_signature(schedule) -> Tuple:
    """The exact placement sequence of a schedule, bit for bit."""
    return tuple((entry.request.flow_id, entry.request.instance,
                  entry.request.hop_index, entry.request.attempt,
                  entry.request.sender, entry.request.receiver,
                  entry.slot, entry.offset)
                 for entry in schedule.entries)


def _schedule_signature(result: SchedulingResult) -> Tuple:
    """Everything two equivalent scheduling runs must agree on, bit for
    bit: outcome, failure point, and the exact placement sequence."""
    return (
        result.schedulable,
        result.failed_flow,
        result.failed_instance,
        _entries_signature(result.schedule),
    )


#: RC's variants: both ρ reset scopes times both offset rules.
_RC_VARIANTS = tuple((rho_reset, offset_rule)
                     for rho_reset in (RHO_RESET_TRANSMISSION,
                                       RHO_RESET_FLOW)
                     for offset_rule in (OFFSET_LEAST_LOADED, OFFSET_FIRST))

#: RC's two descents: the stepwise oracle and the production path.
_DESCENTS = (("stepwise", stepwise_descent),
             ("fused", contextlib.nullcontext))

def _recorded_work(recorder: Recorder) -> Tuple:
    """What a recorded scheduling run counted: the ``scheduler.*`` /
    ``policy.*`` / ``rc.*`` counters and the ``rc.fallback_rho``
    histogram (per-decision detail is the provenance stream's)."""
    snapshot = recorder.snapshot()
    counters = {name: value for name, value in snapshot["counters"].items()
                if name.startswith(("scheduler.", "policy.", "rc."))}
    return counters, snapshot["histograms"].get("rc.fallback_rho")


def _stats_attempt_totals(stats: SimulationStats) -> Tuple[int, int]:
    """Total (attempts, successes) across the reuse and contention-free
    buckets — the totals the obs counters must match.  The per-channel
    bucket is a second view of the same attempts, not counted again."""
    attempts = successes = 0
    for record in stats.repetitions:
        for counters in (record.reuse, record.contention_free):
            for counter in counters.values():
                attempts += counter.attempts
                successes += counter.successes
    return attempts, successes


def _run_scheduler(network: PreparedNetwork, flow_set: FlowSet, policy
                   ) -> SchedulingResult:
    """One scheduling run with a fresh engine around the given policy."""
    scheduler = FixedPriorityScheduler(
        num_nodes=network.topology.num_nodes,
        num_offsets=network.num_channels,
        reuse_graph=network.reuse,
        policy=policy)
    return scheduler.run(flow_set)


#: Hard cap on the provenance slice embedded in an audit-failure
#: artifact (decisions touching the violating slots / flows).
_MAX_PROVENANCE_SLICE = 50


def _provenance_for_violations(network: PreparedNetwork, flow_set: FlowSet,
                               policy_factory: Callable, report) -> List[Dict]:
    """Replay a failing case under a live provenance recorder and keep
    the decisions that touch a violation's slot or flow — the artifact
    then says not just *what* invariant broke but *which placement
    decisions* produced the offending cells."""
    prov = ProvenanceRecorder()
    with _obs.recording(Recorder(provenance=prov)):
        _run_scheduler(network, flow_set, policy_factory())
    slots = {v.slot for v in report.violations if v.slot is not None}
    flows = {v.flow_id for v in report.violations if v.flow_id is not None}
    kept: List[Dict] = []
    for record in prov.decisions():
        placed = record.get("placed")
        if (placed and placed[0] in slots) or record.get("flow") in flows:
            kept.append(record)
            if len(kept) >= _MAX_PROVENANCE_SLICE:
                break
    return kept


def _audit_result(case: FuzzCaseResult, label: str, network: PreparedNetwork,
                  flow_set: FlowSet, result: SchedulingResult,
                  rho_floor: float,
                  policy_factory: Optional[Callable] = None) -> None:
    """Run the auditor over one scheduling result."""
    report = audit_schedule(
        result.schedule, network.reuse, rho_floor, flow_set=flow_set,
        expect_complete=result.schedulable)
    if not report.ok:
        extra = {"audit": report.to_dict()}
        if policy_factory is not None:
            extra["provenance"] = _provenance_for_violations(
                network, flow_set, policy_factory, report)
        case.fail("audit", f"{label}: {report.summary()}", **extra)


def _rc_factory(rho_t: int, rho_reset: str, offset_rule: str) -> Callable:
    """A factory of fresh RC policies in one variant."""
    return lambda: ConservativeReusePolicy(rho_t=rho_t, rho_reset=rho_reset,
                                           offset_rule=offset_rule)


def _check_differential_schedules(case: FuzzCaseResult,
                                  network: PreparedNetwork,
                                  flow_set: FlowSet, rho_t: int,
                                  plain_signatures: Dict[str, Tuple],
                                  ) -> Optional[SchedulingResult]:
    """Audit every policy's schedule; RC's fused descent must match its
    stepwise oracle in every variant.

    Fills ``plain_signatures`` with each policy's provenance-free
    schedule signature (the reference the provenance-parity check
    compares against).  Returns a schedulable result (for the repair
    and simulator checks), preferring the paper's RC (least-loaded
    offsets), or None when nothing schedulable was produced.
    """
    best_schedulable: Optional[SchedulingResult] = None

    for name in ("NR", "RA"):
        result = _run_scheduler(network, flow_set, make_policy(name, rho_t))
        _audit_result(case, name, network, flow_set, result,
                      rho_floor=math.inf if name == "NR" else rho_t,
                      policy_factory=lambda name=name: make_policy(name,
                                                                   rho_t))
        plain_signatures[name] = _schedule_signature(result)
        if name == "NR" and result.schedule.num_reused_cells():
            case.fail("nr_no_reuse",
                      f"NR produced {result.schedule.num_reused_cells()} "
                      f"shared cell(s)")
        if result.schedulable:
            best_schedulable = result

    for rho_reset, offset_rule in _RC_VARIANTS:
        rc_policy = _rc_factory(rho_t, rho_reset, offset_rule)
        runs = {}
        for descent, scope in _DESCENTS:
            with scope():
                runs[descent] = _run_scheduler(network, flow_set,
                                               rc_policy())
        fused = runs["fused"]
        label = f"RC[{rho_reset},{offset_rule}]"
        if _schedule_signature(runs["stepwise"]) != \
                _schedule_signature(fused):
            case.fail("descent_equivalence",
                      f"{label}: stepwise and fused descents produced "
                      f"different schedules")
        _audit_result(case, label, network, flow_set, fused,
                      rho_floor=rho_t, policy_factory=rc_policy)
        plain_signatures[label] = _schedule_signature(fused)
        if fused.schedulable and offset_rule == OFFSET_LEAST_LOADED:
            best_schedulable = fused
    return best_schedulable


def _check_provenance_parity(case: FuzzCaseResult, network: PreparedNetwork,
                             flow_set: FlowSet, rho_t: int,
                             plain_signatures: Dict[str, Tuple]) -> None:
    """Recording is an observer, and RC's descents narrate identically.

    Every policy runs under a live :class:`ProvenanceRecorder`, and its
    schedule must match the provenance-free run of the same policy.  RC
    runs every variant on both descents: the recorded decision streams
    and work counters must be bit-identical — its fused descent records
    every probe, laxity evaluation and ρ step itself.
    """
    for name in ("NR", "RA"):
        with _obs.recording(Recorder(provenance=ProvenanceRecorder())):
            result = _run_scheduler(network, flow_set,
                                    make_policy(name, rho_t))
        if _schedule_signature(result) != plain_signatures[name]:
            case.fail("provenance_schedule_identity",
                      f"{name}: recording provenance perturbed the "
                      f"schedule")
    for rho_reset, offset_rule in _RC_VARIANTS:
        label = f"RC[{rho_reset},{offset_rule}]"
        rc_policy = _rc_factory(rho_t, rho_reset, offset_rule)
        streams = {}
        work = {}
        signatures = {}
        for descent, scope in _DESCENTS:
            prov = ProvenanceRecorder()
            with scope(), \
                    _obs.recording(Recorder(provenance=prov)) as recorder:
                result = _run_scheduler(network, flow_set, rc_policy())
            streams[descent] = prov.records()
            work[descent] = _recorded_work(recorder)
            signatures[descent] = _schedule_signature(result)
        if streams["stepwise"] != streams["fused"]:
            case.fail("provenance_parity",
                      f"{label}: stepwise and fused descents recorded "
                      f"different provenance streams")
        if work["stepwise"] != work["fused"]:
            case.fail("recording_parity",
                      f"{label}: stepwise and fused descents recorded "
                      f"different counters")
        if signatures["stepwise"] != signatures["fused"]:
            case.fail("provenance_schedule_identity",
                      f"{label}: schedules diverged between descents "
                      f"while recording provenance")
        if signatures["fused"] != plain_signatures[label]:
            case.fail("provenance_schedule_identity",
                      f"{label}: recording provenance perturbed the "
                      f"schedule")


def _check_simulator(case: FuzzCaseResult, network: PreparedNetwork,
                     environment: RadioEnvironment, flow_set: FlowSet,
                     result: SchedulingResult, sim_seed: int) -> None:
    """Simulator invariants on one schedulable result."""
    schedule = result.schedule
    channel_map = network.topology.channel_map
    config = SimulationConfig(seed=sim_seed)

    def simulate(conditions: Optional[Conditions]) -> SimulationStats:
        return TschSimulator(
            schedule=schedule, flow_set=flow_set, environment=environment,
            channel_map=channel_map, config=config,
            conditions=conditions).run(_SIM_REPETITIONS)

    baseline = simulate(None)
    for flow_id, delivered in baseline.flow_delivered.items():
        released = baseline.flow_released.get(flow_id, 0)
        if delivered > released:
            case.fail("sim_conservation",
                      f"flow {flow_id}: {delivered} deliveries out of "
                      f"{released} releases")

    if stats_signature(simulate(Conditions())) != \
            stats_signature(baseline):
        case.fail("sim_overlay_identity",
                  "empty Conditions() overlay changed simulation results")

    # The obs counters must equal the stats totals, and recording must
    # not perturb the simulation itself.  Run the check twice: clean,
    # and with a dark sender (the path that historically diverged).
    dark_sender = schedule.entries[0].request.sender if len(schedule) else None
    overlays = [("clean", None)]
    if dark_sender is not None:
        overlays.append(
            ("dark", Conditions(dark_nodes=frozenset({dark_sender}))))
    for label, conditions in overlays:
        with _obs.recording(Recorder()) as rec:
            observed = simulate(conditions)
        if conditions is None and \
                stats_signature(observed) != stats_signature(baseline):
            case.fail("sim_obs_identity",
                      "recording changed simulation results")
        attempts, successes = _stats_attempt_totals(observed)
        deliveries = sum(observed.flow_delivered.values())
        for counter, expected in (("sim.attempts", attempts),
                                  ("sim.successes", successes),
                                  ("sim.deliveries", deliveries)):
            recorded = rec.registry.counter_value(counter)
            if recorded != expected:
                case.fail("sim_obs_counters",
                          f"{label}: counter {counter} is {recorded}, "
                          f"stats total is {expected}")


def _check_sim_batched(case: FuzzCaseResult, network: PreparedNetwork,
                       environment: RadioEnvironment, flow_set: FlowSet,
                       result: SchedulingResult, sim_seed: int) -> None:
    """Event-vs-slot engine parity on one schedulable result.

    The batched event engine must reproduce the slot-driven oracle's
    statistics bit for bit — clean, and under every overlay axis (dark
    senders, an interferer burst, per-pair drift plus a reuse boost) —
    and, because repetitions draw from independent ``(seed, rep)``
    substreams, its results must not depend on how the repetitions are
    chunked into draw matrices.  An in-place edit that leaves the entry
    count unchanged must not be simulated from the compilation cached
    for the schedule's old state.
    """
    schedule = result.schedule
    channel_map = network.topology.channel_map
    num_nodes = network.topology.num_nodes

    def simulate(engine: str, conditions: Optional[Conditions],
                 chunk_reps: Optional[int] = None,
                 target: Schedule = schedule) -> SimulationStats:
        simulator = TschSimulator(
            schedule=target, flow_set=flow_set, environment=environment,
            channel_map=channel_map, config=SimulationConfig(seed=sim_seed),
            conditions=conditions)
        if engine == ENGINE_SLOT:
            return simulator.run_slot(_SIM_REPETITIONS)
        return run_event_batched(simulator, _SIM_REPETITIONS,
                                 chunk_reps=chunk_reps)

    overlays: List[Tuple[str, Optional[Conditions]]] = [("clean", None)]
    senders = sorted({entry.request.sender for entry in schedule.entries})
    if senders:
        overlays.append(("dark_senders",
                         Conditions(dark_nodes=frozenset(senders[:2]))))
    burst = WifiInterferer(position=Position(0.0, 0.0, 0.0),
                           wifi_channel=1, duty_cycle=0.6)
    overlays.append(("interferer_burst", Conditions(
        extra_interferers=(burst,),
        extra_interferer_rssi_dbm=np.full((1, num_nodes), -55.0))))
    if len(schedule):
        request = schedule.entries[0].request
        overlays.append(("pair_drift", Conditions(
            pair_attenuation_db={
                (request.sender, request.receiver): 6.0,
                (request.receiver, request.sender): 6.0},
            interference_boost_db=3.0)))

    for label, conditions in overlays:
        slot_sig = stats_signature(simulate(ENGINE_SLOT, conditions))
        event_sig = stats_signature(simulate(ENGINE_EVENT, conditions))
        if event_sig != slot_sig:
            case.fail("sim_batched_parity",
                      f"{label}: event engine diverged from the slot "
                      f"oracle")

    if stats_signature(simulate(ENGINE_EVENT, None, chunk_reps=1)) != \
            stats_signature(simulate(ENGINE_EVENT, None)):
        case.fail("sim_batched_chunks",
                  "event-engine results changed with chunk_reps=1")

    if len(schedule):
        # Simulate a clone first so its compilation is cached, then
        # evict one entry and re-add the same request at the same cell:
        # the entry count is back where it was, but the entry now comes
        # last in its slot's order.
        edited = schedule.clone()
        simulate(ENGINE_EVENT, None, target=edited)
        per_slot = Counter(entry.slot for entry in edited.entries)
        victim = next((i for i, entry in enumerate(edited.entries)
                       if per_slot[entry.slot] > 1), 0)
        entry = edited.entries[victim]
        edited.evict([victim])
        edited.add(entry.request, entry.slot, entry.offset)
        fresh = edited.clone()
        for engine in (ENGINE_SLOT, ENGINE_EVENT):
            if stats_signature(simulate(engine, None, target=edited)) != \
                    stats_signature(simulate(engine, None, target=fresh)):
                case.fail("sim_stale_compile",
                          f"{engine}: an evicted and re-added entry "
                          f"simulated differently from a fresh clone")


def _audit_repaired(case: FuzzCaseResult, check: str, label: str,
                    network: PreparedNetwork, flow_set: FlowSet,
                    schedule, rho_floor: float, barred) -> None:
    """Full audit of a repaired (or fallback-rebuilt) schedule."""
    report = audit_schedule(schedule, network.reuse, rho_floor,
                            flow_set=flow_set, expect_complete=True,
                            barred_links=barred)
    if not report.ok:
        case.fail(check, f"{label}: {report.summary()}",
                  audit=report.to_dict())


def _check_hash_memo(case: FuzzCaseResult, label: str, schedule) -> None:
    """The memoized canonical hash must equal one computed afresh, on a
    copy rebuilt entry by entry (which starts with no memo)."""
    fresh = Schedule(schedule.num_nodes, schedule.num_slots,
                     schedule.num_offsets)
    for entry in schedule.entries:
        fresh.force_add(entry.request, entry.slot, entry.offset)
    if schedule.canonical_hash() != fresh.canonical_hash():
        case.fail("hash_memo", f"{label}: memoized canonical hash is "
                               f"stale")


def _check_repair(case: FuzzCaseResult, network: PreparedNetwork,
                  flow_set: FlowSet, rho_t: int,
                  result: SchedulingResult) -> None:
    """Repair and its rebuild fallback on one schedulable result.

    Evicts a deterministic victim link via warm-start repair, audits a
    successful repair with the victim barred, runs + audits the designed
    fallback (full barrier rebuild) when repair fails placement, checks
    the input schedule is never mutated, and repeats the audit for a
    ρ-escalation repair at the raised floor.  Every product's memoized
    hash is checked against a fresh one; the input's hash is computed
    first, so each repair clones a memo it must clear.
    """
    from repro.core.repair import (ChangeSet, repair_schedule,
                                   smallest_reused_link)
    from repro.core.reschedule import reschedule_without_reuse_on

    schedule = result.schedule
    policy_name = result.policy_name
    rho_floor = math.inf if policy_name == "NR" else rho_t
    before = _entries_signature(schedule)
    schedule.canonical_hash()

    victim = smallest_reused_link(schedule)
    if victim is not None:
        repaired = repair_schedule(
            schedule, flow_set, network.reuse, ChangeSet(victims=(victim,)),
            rho_t=rho_t, policy_name=policy_name)
        _check_hash_memo(case, f"{policy_name}/victim {victim}",
                         repaired.schedule)
        if repaired.schedulable:
            _audit_repaired(case, "repair_audit",
                            f"{policy_name}/victim {victim}", network,
                            flow_set, repaired.schedule, rho_floor, {victim})
        else:
            # The designed fallback: repair could not re-place the blast
            # radius, so the manager rebuilds under a barrier policy.
            # Exercise it here so a placement failure never drops the
            # case out of correctness coverage.
            rebuilt = reschedule_without_reuse_on(
                flow_set, network.topology.num_nodes,
                network.num_channels, network.reuse,
                make_policy(policy_name, rho_t), {victim})
            _check_hash_memo(case, f"{policy_name}/victim {victim} "
                                   f"fallback", rebuilt.schedule)
            if rebuilt.schedulable:
                _audit_repaired(case, "repair_fallback_audit",
                                f"{policy_name}/victim {victim} fallback",
                                network, flow_set, rebuilt.schedule,
                                rho_floor, {victim})

    if policy_name != "NR":
        escalated = rho_t + 1
        outcome = repair_schedule(
            schedule, flow_set, network.reuse,
            ChangeSet(rho_t=escalated), rho_t=escalated,
            policy_name=policy_name)
        _check_hash_memo(case, f"{policy_name}/rho {rho_t}->{escalated}",
                         outcome.schedule)
        if outcome.schedulable:
            _audit_repaired(case, "repair_audit",
                            f"{policy_name}/rho {rho_t}->{escalated}",
                            network, flow_set, outcome.schedule,
                            float(escalated), ())

    if _entries_signature(schedule) != before:
        case.fail("repair_purity",
                  f"{policy_name}: repair mutated the input schedule")


def run_case(index: int, seed: int) -> FuzzCaseResult:
    """Execute one fuzz case (deterministic in ``(seed, index)``)."""
    case = FuzzCaseResult(index=index, seed=seed)
    rng = np.random.default_rng([seed, index])
    network = environment = flow_set = None
    for _ in range(_MAX_REDRAWS):
        params = _draw_params(rng)
        try:
            network, environment, flow_set = _build_case(params)
            break
        except (NoRouteError, ValueError):
            continue
    if network is None:
        case.skipped = True
        return case
    case.params = params

    plain_signatures: Dict[str, Tuple] = {}
    schedulable = _check_differential_schedules(
        case, network, flow_set, params["rho_t"], plain_signatures)
    _check_provenance_parity(case, network, flow_set, params["rho_t"],
                             plain_signatures)
    if schedulable is not None:
        _check_repair(case, network, flow_set, params["rho_t"], schedulable)
        _check_simulator(case, network, environment, flow_set, schedulable,
                         params["sim_seed"])
        _check_sim_batched(case, network, environment, flow_set,
                           schedulable, params["sim_seed"])
    return case


def run_fuzz(cases: int, seed: int = 0,
             on_case: Optional[Callable[[FuzzCaseResult], None]] = None
             ) -> FuzzReport:
    """Run the differential fuzzer.

    Args:
        cases: Number of cases to execute.
        seed: Run seed; case ``i`` draws from ``default_rng([seed, i])``.
        on_case: Optional per-case callback (progress reporting).

    Returns:
        A :class:`FuzzReport`; ``report.ok`` is the verdict.
    """
    if cases <= 0:
        raise ValueError("cases must be positive")
    report = FuzzReport(seed=seed, num_cases=cases)
    for index in range(cases):
        case = run_case(index, seed)
        report.cases.append(case)
        if on_case is not None:
            on_case(case)
    return report
