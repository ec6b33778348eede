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

Two engines execute the same model:

* **event** — the batched engine in :mod:`repro.simulator.events`
  (:func:`~repro.simulator.events.run_event_batched`), which
  :meth:`TschSimulator.run` always takes: all repetitions advance
  together, in whole-chunk numpy passes over per-schedule index tables,
  with only the progress-dependent step left in a per-slot loop.
* **slot** — the pure-python oracle in this module
  (:meth:`TschSimulator.run_slot`): one repetition at a time, one entry
  at a time.  Tests, the fuzzer and ``repro bench`` check the batched
  engine against it.

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
from typing import Dict, List, Optional, Tuple

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
from repro.propagation.prr_model import get_prr_curve
from repro.simulator.radio import sinr_at_receiver
from repro.simulator.stats import LinkKey, SimulationStats, record_counters
from repro.testbeds.synth import RadioEnvironment

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


class _Compilation:
    """One schedule state, pre-resolved for both engines.

    Holds the schedule's own entries grouped by slot
    (:meth:`Schedule.entries_by_slot`: slots ascending, each in
    placement order), the set of its shared ``(slot, offset)`` cells,
    per interferer count the draw plan, and per (interferer count,
    channel count) the batched engine's :class:`EventTables` (built on
    the first batched run).  None of it depends on conditions, so every
    simulator of the schedule state shares it.
    """

    def __init__(self, schedule: Schedule):
        self.version = schedule.version
        self.entries = schedule.entries_by_slot()
        self.shared = {(slot, offset) for slot, offset, _
                       in schedule.reused_cell_indices()}
        self._plans: Dict[int, DrawPlan] = {}
        self._tables: Dict[Tuple[int, int], EventTables] = {}

    def plan(self, num_interferers: int) -> DrawPlan:
        plan = self._plans.get(num_interferers)
        if plan is None:
            plan = build_draw_plan(self.entries, num_interferers)
            self._plans[num_interferers] = plan
        return plan

    def tables(self, num_interferers: int, num_logical: int) -> EventTables:
        key = (num_interferers, num_logical)
        tables = self._tables.get(key)
        if tables is None:
            tables = build_event_tables(self.entries, self.shared,
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


class TschSimulator:
    """Executes a schedule repeatedly and collects delivery statistics.

    Args:
        schedule: The computed transmission schedule.
        flow_set: The routed flows the schedule serves.
        environment: Ground-truth RF environment of the testbed.
        channel_map: The channels the network actually hops over (the
            restricted map used when building the schedule, e.g. channels
            11-14 for the reliability experiments).
        config: Execution parameters.
        conditions: Optional environment overlay for this simulator's
            runs — fault injection and external WiFi interferers (see
            :mod:`repro.simulator.conditions`).  ``None`` keeps the
            pristine environment.

    Raises:
        ValueError: When the overlay's interferer RSSI matrix is not
            ``(len(extra_interferers), environment.num_nodes)``.

    Attributes read by the batched engine: ``compiled`` (the schedule's
    entries by slot, shared with every simulator of the schedule
    state), ``draw_plan``, ``hyperperiod``, ``flow_hops`` (hops per
    flow), ``instances_per_flow`` (releases per repetition), ``lookup``
    (the raw SINR -> PRR curve), ``env_of_logical`` (logical channel ->
    environment RSSI channel index), ``interferers``,
    ``interferer_rssi_dbm`` and ``interferer_channel_sets`` (each
    interferer's polluted physical channels).
    """

    def __init__(self, schedule: Schedule, flow_set: FlowSet,
                 environment: RadioEnvironment, channel_map: ChannelMap,
                 config: SimulationConfig = SimulationConfig(),
                 conditions: Optional[Conditions] = None):
        self.schedule = schedule
        self.flow_set = flow_set
        self.environment = environment
        self.channel_map = channel_map
        self.config = config
        self.conditions = conditions if conditions is not None else Conditions()

        self.interferers = self.conditions.extra_interferers
        self.interferer_rssi_dbm = self.conditions.extra_interferer_rssi_dbm
        expected = (len(self.interferers), environment.num_nodes)
        if self.interferers and self.interferer_rssi_dbm.shape != expected:
            raise ValueError(
                f"extra_interferer_rssi_dbm has shape "
                f"{self.interferer_rssi_dbm.shape}, expected {expected}")

        self.hyperperiod = flow_set.hyperperiod()
        self.flow_hops = {f.flow_id: f.num_hops for f in flow_set}
        self.instances_per_flow = {
            f.flow_id: self.hyperperiod // f.period_slots for f in flow_set}
        # The raw (unsmoothed) curve: fading is drawn explicitly per
        # attempt, so the smoothed "measured" curve emerges in expectation.
        frame_bytes = config.frame_bytes or environment.frame_bytes
        self.lookup = get_prr_curve(frame_bytes, 0.0)

        # Physical channel -> index into the environment's RSSI tensor.
        env_index = environment.channel_map.index_map()
        self._env_channel_index = {
            ch: env_index[ch] for ch in channel_map}
        # Same mapping keyed by logical channel index, in array form for
        # the batched engine.
        self.env_of_logical = np.array(
            [env_index[channel_map.physical(logical)]
             for logical in range(len(channel_map))], dtype=np.intp)

        self.interferer_channel_sets = [set(i.affected_channels())
                                        for i in self.interferers]

        self._compilation = _compilation(schedule)
        self.compiled = self._compilation.entries
        self.draw_plan = self._compilation.plan(len(self.interferers))

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

        Runs the batched engine, bit-identical to :meth:`run_slot`.
        """
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        # Not "simulate": that is the service verb's stage around this.
        with stage("sim.run"):
            return run_event_batched(self, repetitions, start_repetition)

    def run_slot(self, repetitions: int,
                 start_repetition: int = 0) -> SimulationStats:
        """The slot-driven python oracle, whatever the repetition count.

        Consumes the pinned draw plan positionally — no inline RNG calls
        — so its per-repetition outcomes are exactly reproducible by the
        batched event engine.  Tests, the fuzzer and ``repro bench``
        call it directly.
        """
        plan = self.draw_plan
        shared = self._compilation.shared
        link_tallies: List[Dict[LinkKey, List[int]]] = []
        channel_tallies: List[Dict[int, List[int]]] = []
        delivered: Dict[int, int] = {}
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
            links: Dict[LinkKey, List[int]] = {}
            channels: Dict[int, List[int]] = {}
            link_tallies.append(links)
            channel_tallies.append(channels)
            progress: Dict[Tuple[int, int], int] = {}

            base_asn = (start_repetition + repetition) * self.hyperperiod
            for slot_pos, slot in enumerate(plan.slots):
                entries = self.compiled[slot]
                requests = [entry.request for entry in entries]
                active_flags = [
                    progress.get((request.flow_id, request.instance), 0)
                    == request.hop_index
                    for request in requests
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

                for entry_pos, (entry, request) in enumerate(
                        zip(entries, requests)):
                    if not active_flags[entry_pos]:
                        continue
                    sender, receiver = request.sender, request.receiver
                    link = (sender, receiver)
                    shared_cell = (slot, entry.offset) in shared
                    if sender in dark:
                        # A powered-off sender never puts the frame on
                        # the air: the attempt fails without radiating,
                        # so it has no channel (a dark *receiver* flows
                        # through the normal path below).
                        _tally(links, (link, shared_cell), False)
                        continue
                    logical = logicals[entry_pos]
                    channel = self.channel_map.physical(logical)
                    env_channel = self._env_channel_index[channel]
                    signal = (rssi[sender, receiver, env_channel]
                              + slow_sigma * normals[
                                  plan.drift_index(sender, receiver)]
                              + fading_sigma * normals[
                                  plan.signal_fast_index(slot_pos,
                                                         entry_pos)]
                              - attenuation.get(link, 0.0))
                    interference = []
                    for other_pos, other in enumerate(requests):
                        if (other_pos == entry_pos
                                or not active_flags[other_pos]
                                or other.sender in dark
                                or logicals[other_pos] != logical):
                            continue
                        interference.append(
                            rssi[other.sender, receiver, env_channel]
                            + slow_sigma * normals[
                                plan.drift_index(other.sender, receiver)]
                            + fading_sigma * normals[
                                plan.interference_fast_index(
                                    slot_pos, entry_pos, other_pos)]
                            + boost
                            - attenuation.get(
                                (other.sender, receiver), 0.0))
                    for index in active_interferers:
                        if channel in self.interferer_channel_sets[index]:
                            interference.append(
                                self.interferer_rssi_dbm[index, receiver]
                                + fading_sigma * normals[
                                    plan.interferer_fast_index(
                                        slot_pos, index, entry_pos)])

                    sinr = sinr_at_receiver(signal, noise, interference)
                    if receiver in dark:
                        success = False
                    else:
                        success = bool(
                            uniforms[plan.reception_uniform_index(
                                slot_pos, entry_pos)]
                            < self.lookup(sinr))
                    _tally(links, (link, shared_cell), success)
                    _tally(channels, channel, success)
                    if success:
                        key = (request.flow_id, request.instance)
                        progress[key] = request.hop_index + 1
                        if progress[key] == self.flow_hops[request.flow_id]:
                            delivered[request.flow_id] = delivered.get(
                                request.flow_id, 0) + 1

        released = {flow_id: count * repetitions
                    for flow_id, count in self.instances_per_flow.items()}
        stats = SimulationStats.from_tallies(released, delivered,
                                             link_tallies, channel_tallies)
        if _obs.ENABLED:
            record_counters(stats)
        return stats


def _tally(tally: Dict, key, success: bool) -> None:
    """Count one attempt, and whether it succeeded, under ``key``."""
    counts = tally.setdefault(key, [0, 0])
    counts[0] += 1
    counts[1] += success
