"""Event-driven, seed-batched execution of a TSCH schedule.

The slot engine (:mod:`repro.simulator.engine`) replays a schedule one
repetition at a time in pure python.  This module is the fast path: it
compiles the schedule into per-slot *transmission events* (only slots
with scheduled cells exist — unoccupied ASNs are never visited) and
executes all Monte-Carlo repetitions of one run through vectorized numpy
passes, one batched SINR/reception evaluation per event instead of one
python loop iteration per (repetition, entry).

Both engines share one *draw plan* (:class:`DrawPlan`): a fixed,
outcome-independent layout of every random number a repetition may
consume.  Each repetition ``g = start_repetition + r`` owns an
independent substream ``np.random.default_rng([seed, g])`` from which
exactly two vectorized draws are taken — ``standard_normal(num_normals)``
then ``random(num_uniforms)`` — and both engines *index* into those
arrays positionally instead of drawing inline.  Because draw positions
never depend on simulated outcomes (a dark sender or an idle cell leaves
its draws unused rather than unallocated), the batched engine reproduces
the slot oracle seed-for-seed, bit-identically, and epochs can be run
batched or one-at-a-time with identical results.

Layout of one repetition's draws (see :class:`DrawPlan`):

* normals ``[0, P)`` — slow-fading drift, one per canonical unordered
  node pair (sorted), covering signal paths and interference paths;
* then per scheduled slot, ascending: ``E`` signal fast-fading draws
  (compiled entry order), ``E*E`` interference fast-fading draws
  (receiver-entry major, interfering-entry minor; the diagonal is
  reserved but unused), ``I*E`` interferer fast-fading draws
  (interferer major);
* uniforms, per scheduled slot: ``I`` interferer-activity draws then
  ``E`` reception draws (compiled entry order).

The parity contract with the slot oracle is enforced by
``repro.validate.fuzz._check_sim_batched`` and the golden-trace tests in
``tests/test_sim_events.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.obs import recorder as _obs
from repro.propagation.pathloss import dbm_to_mw
from repro.simulator.stats import BatchedAccumulator, SimulationStats

Pair = Tuple[int, int]

#: Target size of one chunk's draw matrices.  Small schedules run all
#: repetitions in a single pass; large ones are chunked to bound memory
#: (chunking never changes results — repetitions are independent
#: substreams).
_CHUNK_TARGET_BYTES = 64 * 1024 * 1024


def _unordered(a: int, b: int) -> Pair:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class DrawPlan:
    """Fixed layout of one repetition's random draws.

    Attributes:
        pairs: Canonical (sorted) unordered node pairs that may see
            slow-fading drift — all signal pairs plus all
            (interfering sender, victim receiver) pairs.
        pair_index: Pair -> position in the slow-fading normal block.
        slots: Scheduled slots, ascending (the event timeline).
        entry_counts: Compiled entries per slot, aligned with ``slots``.
        normal_offsets: Start of each slot's normal block, aligned with
            ``slots``.
        uniform_offsets: Start of each slot's uniform block.
        num_normals: Total standard-normal draws per repetition.
        num_uniforms: Total uniform draws per repetition.
        num_interferers: Interferer count the layout was built for.
    """

    pairs: Tuple[Pair, ...]
    pair_index: Dict[Pair, int]
    slots: Tuple[int, ...]
    entry_counts: Tuple[int, ...]
    normal_offsets: Tuple[int, ...]
    uniform_offsets: Tuple[int, ...]
    num_normals: int
    num_uniforms: int
    num_interferers: int

    # -- positional helpers (the documented layout; used by the
    #    golden-trace tests and the slot oracle) -----------------------

    def drift_index(self, node_a: int, node_b: int) -> int:
        """Normal index of the slow-fading draw for an unordered pair."""
        return self.pair_index[_unordered(node_a, node_b)]

    def signal_fast_index(self, slot_pos: int, entry: int) -> int:
        """Normal index of an entry's signal fast-fading draw."""
        return self.normal_offsets[slot_pos] + entry

    def interference_fast_index(self, slot_pos: int, entry: int,
                                other: int) -> int:
        """Normal index of the fast-fading draw on the interference path
        from compiled entry ``other``'s sender to ``entry``'s receiver."""
        count = self.entry_counts[slot_pos]
        return (self.normal_offsets[slot_pos] + count
                + entry * count + other)

    def interferer_fast_index(self, slot_pos: int, interferer: int,
                              entry: int) -> int:
        """Normal index of an external interferer's fast-fading draw at
        ``entry``'s receiver."""
        count = self.entry_counts[slot_pos]
        return (self.normal_offsets[slot_pos] + count + count * count
                + interferer * count + entry)

    def activity_uniform_index(self, slot_pos: int, interferer: int) -> int:
        """Uniform index of an interferer's duty-cycle draw."""
        return self.uniform_offsets[slot_pos] + interferer

    def reception_uniform_index(self, slot_pos: int, entry: int) -> int:
        """Uniform index of an entry's reception draw."""
        return (self.uniform_offsets[slot_pos] + self.num_interferers
                + entry)


def build_draw_plan(compiled: Dict[int, Sequence],
                    num_interferers: int) -> DrawPlan:
    """Build the draw layout for a compiled schedule.

    The layout depends only on the schedule's compiled per-slot entries
    and the interferer count — never on conditions overlays or simulated
    outcomes — so the same plan serves clean and faulted runs alike.
    """
    slots = tuple(sorted(compiled))
    pair_set = set()
    for slot in slots:
        entries = compiled[slot]
        for entry in entries:
            pair_set.add(_unordered(entry.sender, entry.receiver))
            for other in entries:
                if other is not entry:
                    pair_set.add(_unordered(other.sender, entry.receiver))
    pairs = tuple(sorted(pair_set))
    pair_index = {pair: i for i, pair in enumerate(pairs)}

    entry_counts = []
    normal_offsets = []
    uniform_offsets = []
    normal_cursor = len(pairs)
    uniform_cursor = 0
    for slot in slots:
        count = len(compiled[slot])
        entry_counts.append(count)
        normal_offsets.append(normal_cursor)
        uniform_offsets.append(uniform_cursor)
        normal_cursor += count + count * count + num_interferers * count
        uniform_cursor += num_interferers + count
    return DrawPlan(
        pairs=pairs,
        pair_index=pair_index,
        slots=slots,
        entry_counts=tuple(entry_counts),
        normal_offsets=tuple(normal_offsets),
        uniform_offsets=tuple(uniform_offsets),
        num_normals=normal_cursor,
        num_uniforms=uniform_cursor,
        num_interferers=num_interferers,
    )


def repetition_draws(plan: DrawPlan, seed: int,
                     global_repetition: int) -> Tuple[np.ndarray, np.ndarray]:
    """All random draws of one repetition, as two flat arrays.

    Repetition ``g`` owns the substream ``default_rng([seed, g])``; the
    normals are drawn first, then the uniforms.  This is the *entire*
    stochastic state of a repetition — both engines index into these
    arrays and never touch the generator again.
    """
    rng = np.random.default_rng([int(seed), int(global_repetition)])
    normals = rng.standard_normal(plan.num_normals)
    uniforms = rng.random(plan.num_uniforms)
    return normals, uniforms


def default_chunk_size(plan: DrawPlan, repetitions: int) -> int:
    """Repetitions per batch, targeting ``_CHUNK_TARGET_BYTES``."""
    per_rep = 8 * max(1, plan.num_normals + plan.num_uniforms)
    return max(1, min(repetitions, _CHUNK_TARGET_BYTES // per_rep))


@dataclass
class _SlotEvent:
    """One scheduled slot, pre-resolved into numpy form for the batch."""

    slot: int
    plan_pos: int
    senders: np.ndarray        # (E,) int
    receivers: np.ndarray      # (E,) int
    offsets: np.ndarray        # (E,) int
    packet: np.ndarray         # (E,) index into the packet table
    hop: np.ndarray            # (E,) int
    links: List[Pair]          # per-entry directed link
    shared: List[bool]         # per-entry cell category
    flow_ids: List[int]        # per-entry flow
    last_hop: List[bool]       # per-entry: does success deliver?
    dark_sender: np.ndarray    # (E,) bool
    dark_receiver: np.ndarray  # (E,) bool
    sig_base: np.ndarray       # (E, C) RSSI of each entry per env channel
    sig_pair: np.ndarray       # (E,) slow-fading pair index
    sig_atten: np.ndarray      # (E,) conditions attenuation
    int_base: np.ndarray       # (E, E, C) RSSI other.sender -> entry.receiver
    int_pair: np.ndarray       # (E, E) slow-fading pair index
    int_atten: np.ndarray      # (E, E) conditions attenuation
    not_self: np.ndarray       # (E, E) bool, False on the diagonal
    ifr_rssi: np.ndarray       # (I, E) interferer power at each receiver


def compile_events(simulator) -> Tuple[List[_SlotEvent], Dict[Pair, int]]:
    """Compile a simulator's schedule into batched slot events.

    Returns the event list (ascending slot order) and the packet table
    mapping ``(flow_id, instance)`` to a dense index for the vectorized
    progress state.
    """
    plan = simulator.draw_plan
    compiled = simulator.compiled
    rssi = simulator.environment.rssi_dbm
    conditions = simulator.conditions
    attenuation = conditions.pair_attenuation_db
    dark = conditions.dark_nodes
    interferer_rssi = simulator.interferer_rssi_dbm
    num_interferers = len(simulator.interferers)

    packet_index: Dict[Pair, int] = {}
    for slot in plan.slots:
        for entry in compiled[slot]:
            packet_index.setdefault((entry.flow_id, entry.instance),
                                    len(packet_index))

    events: List[_SlotEvent] = []
    for plan_pos, slot in enumerate(plan.slots):
        entries = compiled[slot]
        count = len(entries)
        senders = np.array([e.sender for e in entries], dtype=np.intp)
        receivers = np.array([e.receiver for e in entries], dtype=np.intp)
        sig_pair = np.array(
            [plan.drift_index(e.sender, e.receiver) for e in entries],
            dtype=np.intp)
        int_pair = np.array(
            [[plan.drift_index(o.sender, e.receiver) for o in entries]
             for e in entries], dtype=np.intp)
        events.append(_SlotEvent(
            slot=slot,
            plan_pos=plan_pos,
            senders=senders,
            receivers=receivers,
            offsets=np.array([e.offset for e in entries], dtype=np.int64),
            packet=np.array(
                [packet_index[(e.flow_id, e.instance)] for e in entries],
                dtype=np.intp),
            hop=np.array([e.hop_index for e in entries], dtype=np.int64),
            links=[(e.sender, e.receiver) for e in entries],
            shared=[e.shared_cell for e in entries],
            flow_ids=[e.flow_id for e in entries],
            last_hop=[e.hop_index + 1 == simulator.flow_hops[e.flow_id]
                      for e in entries],
            dark_sender=np.array([e.sender in dark for e in entries],
                                 dtype=bool),
            dark_receiver=np.array([e.receiver in dark for e in entries],
                                   dtype=bool),
            sig_base=rssi[senders, receivers, :],
            sig_pair=sig_pair,
            sig_atten=np.array(
                [attenuation.get((e.sender, e.receiver), 0.0)
                 for e in entries]),
            int_base=rssi[senders[np.newaxis, :], receivers[:, np.newaxis], :],
            int_pair=int_pair,
            int_atten=np.array(
                [[attenuation.get((o.sender, e.receiver), 0.0)
                  for o in entries] for e in entries]),
            not_self=~np.eye(count, dtype=bool),
            ifr_rssi=(interferer_rssi[:, receivers]
                      if num_interferers else np.zeros((0, count))),
        ))
    return events, packet_index


def run_event_batched(simulator, repetitions: int,
                      start_repetition: int = 0,
                      chunk_reps: int = None) -> SimulationStats:
    """Execute all repetitions through the batched event engine.

    Produces stats bit-identical to the slot oracle's
    ``TschSimulator.run_slot`` for the same ``(seed, start_repetition)``.
    ``chunk_reps`` bounds the repetitions drawn per chunk (memory only;
    never changes results).
    """
    plan = simulator.draw_plan
    events, packet_index = simulator.event_tables()
    num_packets = len(packet_index)
    num_interferers = len(simulator.interferers)
    num_logical = len(simulator.channel_map)
    seed = simulator.config.seed
    fast_sigma = simulator.config.fast_fading_sigma_db
    slow_sigma = simulator.config.slow_fading_sigma_db
    boost = simulator.conditions.interference_boost_db
    hyperperiod = simulator.hyperperiod
    noise_mw = float(dbm_to_mw(simulator.environment.noise_floor_dbm))
    env_of_logical = simulator.env_of_logical
    lookup = simulator.lookup

    duty = np.array([i.duty_cycle for i in simulator.interferers])
    # (I, M): does interferer i pollute the physical channel behind
    # logical index l?
    overlap = np.zeros((num_interferers, num_logical), dtype=bool)
    for i, channels in enumerate(simulator.interferer_channel_sets):
        for logical in range(num_logical):
            overlap[i, logical] = (
                simulator.channel_map.physical(logical) in channels)

    accumulator = BatchedAccumulator(repetitions,
                                     tuple(simulator.channel_map))
    for flow_id, count in simulator.instances_per_flow.items():
        accumulator.record_release(flow_id, count)

    chunk = chunk_reps or default_chunk_size(plan, repetitions)
    for chunk_start in range(0, repetitions, chunk):
        batch = min(chunk, repetitions - chunk_start)
        normals = np.empty((batch, plan.num_normals))
        uniforms = np.empty((batch, plan.num_uniforms))
        for row in range(batch):
            n, u = repetition_draws(
                plan, seed, start_repetition + chunk_start + row)
            normals[row] = n
            uniforms[row] = u

        progress = np.zeros((batch, max(1, num_packets)), dtype=np.int64)
        base_asn = ((start_repetition + chunk_start + np.arange(batch))
                    * hyperperiod)
        rep_rows = np.arange(batch)
        out = slice(chunk_start, chunk_start + batch)

        for event in events:
            count = len(event.links)
            active = progress[:, event.packet] == event.hop[np.newaxis, :]
            if not active.any():
                continue
            n0 = plan.normal_offsets[event.plan_pos]
            u0 = plan.uniform_offsets[event.plan_pos]
            radiating = active & ~event.dark_sender[np.newaxis, :]

            logical = ((base_asn[:, np.newaxis] + event.slot
                        + event.offsets[np.newaxis, :]) % num_logical)
            env_idx = env_of_logical[logical]

            # Signal power, matching the oracle's association order:
            # (((rssi + drift) + fast) - attenuation).
            sig_base = event.sig_base[np.arange(count)[np.newaxis, :],
                                      env_idx]
            drift = slow_sigma * normals[:, event.sig_pair]
            fast = fast_sigma * normals[:, n0:n0 + count]
            signal = ((sig_base + drift) + fast) - event.sig_atten
            signal_mw = np.power(10.0, signal / 10.0)

            # Intra-network interference: accumulated sequentially over
            # compiled-entry order with masked terms contributing an
            # exact 0.0, so the linear-domain sum associates exactly as
            # the oracle's python loop.
            interference_mw = np.zeros((batch, count))
            if count > 1:
                same_channel = (logical[:, :, np.newaxis]
                                == logical[:, np.newaxis, :])
                mask = (same_channel
                        & radiating[:, np.newaxis, :]
                        & event.not_self[np.newaxis, :, :])
                int_base = event.int_base[
                    np.arange(count)[np.newaxis, :, np.newaxis],
                    np.arange(count)[np.newaxis, np.newaxis, :],
                    env_idx[:, :, np.newaxis]]
                int_drift = slow_sigma * normals[:, event.int_pair]
                int_fast = fast_sigma * normals[
                    :, n0 + count:n0 + count + count * count
                    ].reshape(batch, count, count)
                term = ((((int_base + int_drift) + int_fast) + boost)
                        - event.int_atten[np.newaxis, :, :])
                term_mw = np.where(mask, np.power(10.0, term / 10.0), 0.0)
                for other in range(count):
                    interference_mw = interference_mw + term_mw[:, :, other]
            if num_interferers:
                active_interferers = (
                    uniforms[:, u0:u0 + num_interferers] < duty)
                ifr_cursor = n0 + count + count * count
                for i in range(num_interferers):
                    hit = (active_interferers[:, i][:, np.newaxis]
                           & overlap[i, logical])
                    ifr_fast = fast_sigma * normals[
                        :, ifr_cursor + i * count:
                        ifr_cursor + (i + 1) * count]
                    term = event.ifr_rssi[i][np.newaxis, :] + ifr_fast
                    interference_mw = interference_mw + np.where(
                        hit, np.power(10.0, term / 10.0), 0.0)

            with np.errstate(divide="ignore"):
                sinr = 10.0 * np.log10(
                    signal_mw / (noise_mw + interference_mw))
            probability = lookup.many(sinr)
            reception = uniforms[:, u0 + num_interferers:
                                 u0 + num_interferers + count]
            success = (radiating & (reception < probability)
                       & ~event.dark_receiver[np.newaxis, :])

            for e in range(count):
                attempted = active[:, e]
                if not attempted.any():
                    continue
                succeeded = success[:, e]
                att, succ = accumulator.link_counters(event.links[e],
                                                      event.shared[e])
                att[out] += attempted
                succ[out] += succeeded
                on_air = radiating[:, e]
                if on_air.any():
                    np.add.at(accumulator.channel_attempts,
                              (chunk_start + rep_rows[on_air],
                               logical[on_air, e]), 1)
                    if succeeded.any():
                        np.add.at(accumulator.channel_successes,
                                  (chunk_start + rep_rows[succeeded],
                                   logical[succeeded, e]), 1)
                if succeeded.any():
                    progress[succeeded, event.packet[e]] = event.hop[e] + 1
                    if event.last_hop[e]:
                        accumulator.flow_delivery_counter(
                            event.flow_ids[e])[out] += succeeded

    stats = accumulator.reduce()
    if _obs.ENABLED:
        _emit_observability(accumulator, repetitions)
    return stats


def _emit_observability(accumulator: BatchedAccumulator,
                        repetitions: int) -> None:
    """Emit the same ``sim.*`` counters and ``sim_repetition`` events the
    slot oracle emits, reconstructed from the batched accumulators."""
    recorder = _obs.RECORDER
    attempts = accumulator.attempts_per_repetition()
    successes = accumulator.successes_per_repetition()
    deliveries = accumulator.deliveries_per_repetition()
    outcomes = accumulator.combined_link_outcomes()
    recorder.count("sim.repetitions", repetitions)
    recorder.count("sim.attempts", int(attempts.sum()))
    recorder.count("sim.successes", int(successes.sum()))
    recorder.count("sim.deliveries", int(deliveries.sum()))
    for repetition in range(repetitions):
        links = {}
        for (sender, receiver), (att, succ) in sorted(outcomes.items()):
            if att[repetition]:
                links[f"{sender}->{receiver}"] = [int(att[repetition]),
                                                  int(succ[repetition])]
        recorder.event(
            "sim_repetition", repetition=repetition,
            attempts=int(attempts[repetition]),
            successes=int(successes[repetition]),
            deliveries=int(deliveries[repetition]),
            links=links)
