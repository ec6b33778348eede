"""Slot-driven discrete-event execution of a TSCH schedule.

The simulator replays a computed schedule against the ground-truth RF
environment of a synthetic testbed:

* Channel hopping is applied per slot (``logical = (ASN + offset) mod M``),
  so a cell visits different physical channels in different repetitions.
* A scheduled transmission is *active* only when its packet is actually
  waiting at the sender — if the primary attempt on a hop succeeded, the
  reserved retransmission cell stays silent (source routing semantics).
* Reception is SINR-based: concurrent same-channel transmitters and any
  active WiFi interferers add power at the receiver, and the
  802.15.4 PRR curve (capture effect included) decides success.
* An optional :class:`~repro.simulator.conditions.Conditions` overlay
  mutates the environment for one run — extra interferers, per-pair
  attenuation, amplified reuse interference, dark nodes — which is how
  the network manager injects faults between health-report epochs.

Two engines execute the same model, and :meth:`TschSimulator.run` picks
one from the repetition count alone (:func:`engine_for`):

* **slot** — the pure-python oracle in this module
  (:meth:`TschSimulator.run_slot`): one repetition at a time, one entry
  at a time.
* **event** — the batched engine in :mod:`repro.simulator.events`
  (:func:`~repro.simulator.events.run_event_batched`): all repetitions
  advance together, in whole-chunk numpy passes over per-schedule index
  tables, with only the progress-dependent step left in a per-slot
  loop.

Both consume the same pinned draw plan (:class:`repro.simulator.events.
DrawPlan`): repetition ``g = start_repetition + r`` owns the substream
``np.random.default_rng([seed, g])`` and every draw has a fixed,
outcome-independent position, so the engines agree bit-for-bit on stats
and a run may be split across epochs (or batch chunks) without changing
a single outcome.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.schedule import Schedule
from repro.flows.flow import FlowSet
from repro.mac.channels import ChannelMap
from repro.obs import recorder as _obs
from repro.obs.spans import stage
from repro.simulator.conditions import Conditions
from repro.simulator.events import (
    DrawPlan,
    EventTables,
    build_draw_plan,
    build_event_tables,
    repetition_draws,
    run_event_batched,
)
from repro.simulator.interference import WifiInterferer
from repro.propagation.prr_model import get_prr_curve
from repro.simulator.radio import sinr_at_receiver
from repro.simulator.stats import SimulationStats
from repro.testbeds.synth import RadioEnvironment

#: Engine names, as reported by :func:`engine_for` and counted in
#: ``sim.runs.<engine>``.
ENGINE_SLOT = "slot"
ENGINE_EVENT = "event"

#: Repetitions from which :meth:`TschSimulator.run` batches.  Below it
#: the batched engine's per-schedule table build costs more than
#: batching saves.  Measured on WUSTL, 4 channels, RC schedules at 20
#: and 50 flows, a fresh simulator per run, median of 9 rotated rounds
#: on a 2-CPU Xeon host, identical stats: with the schedule's tables
#: already built, batching ran 1.10-1.63x as fast as the slot oracle at
#: 1 repetition, 1.8-2.5x at 2, 3.1-4.4x at 4 and 4.7-5.3x at 8; with
#: every run compiling its schedule afresh it ran 0.83-0.98x at 1 and
#: 1.17-1.36x at 2.  2 is the first count batching wins either way.
EVENT_MIN_REPETITIONS = 2


def engine_for(repetitions: int) -> str:
    """The engine :meth:`TschSimulator.run` uses for this many
    repetitions."""
    if repetitions >= EVENT_MIN_REPETITIONS:
        return ENGINE_EVENT
    return ENGINE_SLOT


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for schedule execution.

    Attributes:
        seed: Seed for all stochastic draws (fading, reception, interferer
            activity).  Repetition ``g`` draws from the substream
            ``default_rng([seed, g])`` where ``g`` is the *global*
            repetition index (``start_repetition + r``), so outcomes
            depend only on ``(seed, g)`` — not on how a run is split
            across epochs or batches.
        fast_fading_sigma_db: Per-attempt multipath fading applied to
            every signal and interference power.
        slow_fading_sigma_db: Per-repetition, per-node-pair gain drift —
            links drift between the topology-collection phase and run
            time, over timescales longer than one hyperperiod.
        frame_bytes: Frame size for the PRR lookup (defaults to the
            environment's).

    Consistency contract: the testbed's *measured* PRRs are expectations
    of the raw 802.15.4 curve over fading
    (:class:`repro.propagation.prr_model.PrrCurve` smoothing), so the
    environment's ``grey_sigma_db`` should equal
    ``sqrt(fast² + slow²)`` of the simulation config.  The defaults
    (3.0, 2.0 → 3.6) are matched to
    :class:`repro.testbeds.synth.SynthesisParams`.  Under that contract a
    link simulated in clean air converges to its measured PRR.
    """

    seed: int = 0
    fast_fading_sigma_db: float = 3.0
    slow_fading_sigma_db: float = 2.0
    frame_bytes: Optional[int] = None

    def total_fading_sigma_db(self) -> float:
        """Aggregate long-run fading spread (for the consistency contract)."""
        return float(np.hypot(self.fast_fading_sigma_db,
                              self.slow_fading_sigma_db))


@dataclass(frozen=True)
class _CompiledEntry:
    """A scheduled transmission, pre-resolved for the hot loop."""

    sender: int
    receiver: int
    offset: int
    flow_id: int
    instance: int
    hop_index: int
    shared_cell: bool


def _compile(schedule: Schedule) -> Dict[int, List[_CompiledEntry]]:
    """Pre-resolve schedule entries per slot for the hot loop."""
    compiled: Dict[int, List[_CompiledEntry]] = {}
    shared_cells = {(s, c) for s, c, txs in schedule.occupied_cells()
                    if len(txs) > 1}
    for slot, entries in schedule.entries_by_slot().items():
        compiled[slot] = [
            _CompiledEntry(
                sender=e.request.sender,
                receiver=e.request.receiver,
                offset=e.offset,
                flow_id=e.request.flow_id,
                instance=e.request.instance,
                hop_index=e.request.hop_index,
                shared_cell=(slot, e.offset) in shared_cells,
            )
            for e in entries
        ]
    return compiled


class _Compilation:
    """One schedule state, pre-resolved for both engines.

    Holds the compiled per-slot entries, per interferer count the draw
    plan, and per (interferer count, channel count) the batched engine's
    :class:`EventTables` (built on the first batched run).  None of it
    depends on conditions, so every simulator of the schedule state
    shares it.
    """

    def __init__(self, schedule: Schedule):
        self.version = schedule.version
        self.compiled = _compile(schedule)
        self._plans: Dict[int, DrawPlan] = {}
        self._tables: Dict[Tuple[int, int], EventTables] = {}

    def plan(self, num_interferers: int) -> DrawPlan:
        plan = self._plans.get(num_interferers)
        if plan is None:
            plan = build_draw_plan(self.compiled, num_interferers)
            self._plans[num_interferers] = plan
        return plan

    def tables(self, num_interferers: int, num_logical: int) -> EventTables:
        key = (num_interferers, num_logical)
        tables = self._tables.get(key)
        if tables is None:
            tables = build_event_tables(self.compiled,
                                        self.plan(num_interferers),
                                        num_logical)
            self._tables[key] = tables
        return tables


#: Compilation cache: schedule -> :class:`_Compilation`.  The manager
#: loop re-instantiates a simulator every epoch (conditions change)
#: against the *same* schedule object; compiling once per schedule state
#: instead of once per simulator keeps the epoch loop cheap.  Keyed
#: weakly so dropped schedules free their compilation, and guarded by
#: the schedule's mutation counter (``Schedule.version``) so an edited
#: schedule — ``add``, ``force_add`` or ``evict``, even back to the same
#: length — recompiles instead of serving stale cells.  A reschedule
#: produces a brand-new Schedule object, which misses the cache by
#: identity.
_COMPILE_CACHE: "weakref.WeakKeyDictionary[Schedule, _Compilation]" = (
    weakref.WeakKeyDictionary())


def _compilation(schedule: Schedule) -> _Compilation:
    cached = _COMPILE_CACHE.get(schedule)
    if cached is None or cached.version != schedule.version:
        cached = _Compilation(schedule)
        _COMPILE_CACHE[schedule] = cached
    return cached


def compiled_entries(schedule: Schedule) -> Dict[int, List[_CompiledEntry]]:
    """The schedule's compiled per-slot entries, cached across simulators."""
    return _compilation(schedule).compiled


class TschSimulator:
    """Executes a schedule repeatedly and collects delivery statistics.

    Args:
        schedule: The computed transmission schedule.
        flow_set: The routed flows the schedule serves.
        environment: Ground-truth RF environment of the testbed.
        channel_map: The channels the network actually hops over (the
            restricted map used when building the schedule, e.g. channels
            11-14 for the reliability experiments).
        interferers: Optional external WiFi interferers.
        interferer_rssi_dbm: ``(num_interferers, num_nodes)`` received
            in-band power of each interferer at each node; required when
            ``interferers`` is non-empty (see
            :func:`repro.simulator.interference.interferer_rssi_matrix`).
        config: Execution parameters.
        conditions: Optional environment overlay for this simulator's
            runs (fault injection; see
            :mod:`repro.simulator.conditions`).  ``None`` keeps the
            pristine environment and the exact legacy behaviour.
    """

    def __init__(self, schedule: Schedule, flow_set: FlowSet,
                 environment: RadioEnvironment, channel_map: ChannelMap,
                 interferers: Sequence[WifiInterferer] = (),
                 interferer_rssi_dbm: Optional[np.ndarray] = None,
                 config: SimulationConfig = SimulationConfig(),
                 conditions: Optional[Conditions] = None):
        if interferers and interferer_rssi_dbm is None:
            raise ValueError(
                "interferer_rssi_dbm is required when interferers are given")
        if interferer_rssi_dbm is not None and interferers:
            expected = (len(interferers), environment.num_nodes)
            if interferer_rssi_dbm.shape != expected:
                raise ValueError(
                    f"interferer_rssi_dbm has shape "
                    f"{interferer_rssi_dbm.shape}, expected {expected}")

        self.schedule = schedule
        self.flow_set = flow_set
        self.environment = environment
        self.channel_map = channel_map
        self.config = config
        self.conditions = conditions if conditions is not None else Conditions()

        # Merge condition-injected interferers behind the base ones so
        # the per-slot activity draws stay in a deterministic order.
        self.interferers = (list(interferers)
                            + list(self.conditions.extra_interferers))
        extra_rssi = self.conditions.extra_interferer_rssi_dbm
        if extra_rssi is not None and interferer_rssi_dbm is not None:
            self.interferer_rssi_dbm = np.vstack(
                [interferer_rssi_dbm, extra_rssi])
        elif extra_rssi is not None:
            self.interferer_rssi_dbm = extra_rssi
        else:
            self.interferer_rssi_dbm = interferer_rssi_dbm

        self._hyperperiod = flow_set.hyperperiod()
        self._num_offsets = schedule.num_offsets
        self._flow_hops = {f.flow_id: f.num_hops for f in flow_set}
        self._instances_per_flow = {
            f.flow_id: self._hyperperiod // f.period_slots for f in flow_set}
        # The raw (unsmoothed) curve: fading is drawn explicitly per
        # attempt, so the smoothed "measured" curve emerges in expectation.
        frame_bytes = config.frame_bytes or environment.frame_bytes
        self._lookup = get_prr_curve(frame_bytes, 0.0)

        # Physical channel -> index into the environment's RSSI tensor.
        env_index = environment.channel_map.index_map()
        self._env_channel_index = {
            ch: env_index[ch] for ch in channel_map}
        # Same mapping keyed by logical channel index, in array form for
        # the batched engine.
        self._env_of_logical = np.array(
            [env_index[channel_map.physical(logical)]
             for logical in range(len(channel_map))], dtype=np.intp)

        # Which 802.15.4 channels each interferer pollutes.
        self._interferer_channels = [set(i.affected_channels())
                                     for i in self.interferers]

        self._compilation = _compilation(schedule)
        self._compiled = self._compilation.compiled
        self._plan = self._compilation.plan(len(self.interferers))

    # -- shared-model views consumed by the event engine ---------------

    @property
    def compiled(self) -> Dict[int, List[_CompiledEntry]]:
        """Per-slot compiled entries (the event timeline)."""
        return self._compiled

    @property
    def draw_plan(self) -> DrawPlan:
        """The pinned draw layout both engines index into."""
        return self._plan

    @property
    def hyperperiod(self) -> int:
        """Slots per repetition."""
        return self._hyperperiod

    @property
    def flow_hops(self) -> Dict[int, int]:
        """Hops per flow (delivery happens at the last one)."""
        return self._flow_hops

    @property
    def instances_per_flow(self) -> Dict[int, int]:
        """Released packet instances per flow per repetition."""
        return self._instances_per_flow

    @property
    def lookup(self):
        """The raw SINR -> PRR curve."""
        return self._lookup

    @property
    def env_of_logical(self) -> np.ndarray:
        """Logical channel index -> environment RSSI channel index."""
        return self._env_of_logical

    @property
    def interferer_channel_sets(self) -> List[set]:
        """Per-interferer sets of polluted physical channels."""
        return self._interferer_channels

    @property
    def tables(self) -> EventTables:
        """The batched engine's index tables for this schedule state,
        built on first use and shared with every simulator of it."""
        return self._compilation.tables(len(self.interferers),
                                        len(self.channel_map))

    # -- execution ------------------------------------------------------

    def run(self, repetitions: int = 100,
            start_repetition: int = 0) -> SimulationStats:
        """Execute the schedule ``repetitions`` times.

        Each repetition replays one full hyperperiod with a fresh release
        of every flow instance; the ASN keeps advancing across
        repetitions, so channel hopping visits different physical channels
        each time (as on the real network).

        Args:
            repetitions: Hyperperiods to execute.
            start_repetition: Global repetition index of the first
                hyperperiod.  The manager loop advances this across
                epochs so the ASN (and hence the hop pattern) keeps
                progressing even though each epoch builds a fresh
                simulator.  Repetition substreams are keyed on the
                global index, so splitting a run across epochs changes
                nothing.

        The engine follows from ``repetitions`` (:func:`engine_for`);
        both give bit-identical stats, so it only trades wall time.
        """
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        engine = engine_for(repetitions)
        # Not "simulate": that is the service verb's stage around this.
        with stage("sim.run"):
            if _obs.ENABLED:
                _obs.RECORDER.count(f"sim.runs.{engine}")
            if engine == ENGINE_EVENT:
                return run_event_batched(self, repetitions,
                                         start_repetition)
            return self.run_slot(repetitions, start_repetition)

    def run_slot(self, repetitions: int,
                 start_repetition: int = 0) -> SimulationStats:
        """The slot-driven python oracle, whatever the repetition count.

        Consumes the pinned draw plan positionally — no inline RNG calls
        — so its per-repetition outcomes are exactly reproducible by the
        batched event engine.  :meth:`run` takes it for short runs;
        tests, the fuzzer and ``repro bench`` call it directly.
        """
        plan = self._plan
        stats = SimulationStats()
        num_logical = len(self.channel_map)
        fading_sigma = self.config.fast_fading_sigma_db
        rssi = self.environment.rssi_dbm
        noise = self.environment.noise_floor_dbm

        slow_sigma = self.config.slow_fading_sigma_db
        attenuation = self.conditions.pair_attenuation_db
        boost = self.conditions.interference_boost_db
        dark = self.conditions.dark_nodes
        num_interferers = len(self.interferers)
        duty_cycles = [i.duty_cycle for i in self.interferers]

        for repetition in range(repetitions):
            normals, uniforms = repetition_draws(
                plan, self.config.seed, start_repetition + repetition)
            record = stats.start_repetition()
            progress: Dict[Tuple[int, int], int] = {}
            # Per-repetition tallies for the observability layer; plain
            # local ints so the disabled path costs nothing measurable.
            recorder = _obs.RECORDER if _obs.ENABLED else None
            rep_attempts = rep_successes = rep_deliveries = 0

            for flow_id, count in self._instances_per_flow.items():
                stats.record_release(flow_id, count)

            base_asn = (start_repetition + repetition) * self._hyperperiod
            for slot_pos, slot in enumerate(plan.slots):
                entries = self._compiled[slot]
                active_flags = [
                    progress.get((entry.flow_id, entry.instance), 0)
                    == entry.hop_index
                    for entry in entries
                ]
                if not any(active_flags):
                    continue
                asn = base_asn + slot

                uniform_base = plan.uniform_offsets[slot_pos]
                active_interferers = [
                    i for i in range(num_interferers)
                    if uniforms[uniform_base + i] < duty_cycles[i]
                ]
                logicals = [(asn + entry.offset) % num_logical
                            for entry in entries]

                for entry_pos, entry in enumerate(entries):
                    if not active_flags[entry_pos]:
                        continue
                    link = (entry.sender, entry.receiver)
                    if entry.sender in dark:
                        # A powered-off sender never puts the frame on
                        # the air: the attempt fails without radiating.
                        # It is still an attempt, so the observability
                        # tallies must count it exactly like the stats
                        # record does (a dark *receiver* flows through
                        # the normal path below and is counted in both).
                        record.record(link, entry.shared_cell, False)
                        if recorder is not None:
                            rep_attempts += 1
                        continue
                    logical = logicals[entry_pos]
                    channel = self.channel_map.physical(logical)
                    env_channel = self._env_channel_index[channel]
                    signal = (rssi[entry.sender, entry.receiver, env_channel]
                              + slow_sigma * normals[
                                  plan.drift_index(entry.sender,
                                                   entry.receiver)]
                              + fading_sigma * normals[
                                  plan.signal_fast_index(slot_pos,
                                                         entry_pos)]
                              - attenuation.get(link, 0.0))
                    interference = []
                    for other_pos, other in enumerate(entries):
                        if (other_pos == entry_pos
                                or not active_flags[other_pos]
                                or other.sender in dark
                                or logicals[other_pos] != logical):
                            continue
                        interference.append(
                            rssi[other.sender, entry.receiver, env_channel]
                            + slow_sigma * normals[
                                plan.drift_index(other.sender,
                                                 entry.receiver)]
                            + fading_sigma * normals[
                                plan.interference_fast_index(
                                    slot_pos, entry_pos, other_pos)]
                            + boost
                            - attenuation.get(
                                (other.sender, entry.receiver), 0.0))
                    for index in active_interferers:
                        if channel in self._interferer_channels[index]:
                            interference.append(
                                self.interferer_rssi_dbm[
                                    index, entry.receiver]
                                + fading_sigma * normals[
                                    plan.interferer_fast_index(
                                        slot_pos, index, entry_pos)])

                    sinr = sinr_at_receiver(signal, noise, interference)
                    if entry.receiver in dark:
                        success = False
                    else:
                        success = bool(
                            uniforms[plan.reception_uniform_index(
                                slot_pos, entry_pos)]
                            < self._lookup(sinr))
                    record.record(link, entry.shared_cell, success,
                                  channel=channel)
                    if recorder is not None:
                        rep_attempts += 1
                        rep_successes += success
                    if success:
                        key = (entry.flow_id, entry.instance)
                        progress[key] = entry.hop_index + 1
                        if progress[key] == self._flow_hops[entry.flow_id]:
                            stats.record_delivery(entry.flow_id)
                            if recorder is not None:
                                rep_deliveries += 1

            if recorder is not None:
                recorder.count("sim.repetitions")
                recorder.count("sim.attempts", rep_attempts)
                recorder.count("sim.successes", rep_successes)
                recorder.count("sim.deliveries", rep_deliveries)
        return stats
