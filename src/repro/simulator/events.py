"""Event-driven, seed-batched execution of a TSCH schedule.

The slot engine (:mod:`repro.simulator.engine`) replays a schedule one
repetition at a time in pure python.  This module is the fast path: it
runs all Monte-Carlo repetitions of one run together, in whole-chunk
numpy passes over the schedule's *scheduled* entries (unoccupied ASNs
are never visited).

A run has three phases per chunk of repetitions:

* **Hoisted terms.**  Everything that does not depend on packet
  progress is computed once over all entries and interference pairs:
  logical channels, signal power in mW, same-channel intra-network pair
  power, duty-cycled external-interferer power, and the reception
  uniforms.  The entry and pair structure comes from
  :class:`EventTables` — condition-free flat index tables built once
  per schedule — and a per-simulator :class:`_Overlay` applies the
  run's :class:`~repro.simulator.conditions.Conditions`.
* **The slot loop.**  Per scheduled slot only the progress-dependent
  step remains: the active and radiating masks, the masked intra-network
  interference sum, the interferer terms, SINR, the PRR lookup, success
  and the progress update, written into ``(batch × entries)`` outcome
  matrices.
* **One-shot accounting.**  One reduction each turns the outcome
  matrices into ``(repetitions × (link, cell category))`` and
  ``(repetitions × channel)`` attempts and successes and per-flow
  delivery totals.  Those matrices *are* the run's
  :class:`~repro.simulator.stats.SimulationStats`: they are handed over
  as they are, with a column for every scheduled key, fired or not.

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
batched or one-at-a-time with identical results.  Bit-identity further
rests on three arithmetic rules: every element keeps the oracle's
operand order, masked terms are added as an exact ``0.0``, and
intra-network interference is summed left to right from ``0.0`` in
compiled-entry order before the interferers are added in index order
(``np.cumsum`` along the other-entry axis does this; ``sum`` does not).

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
``repro.validate.fuzz._check_sim_batched``, the golden-trace tests in
``tests/test_sim_events.py`` and the recorded digests in
``tests/test_sim_golden.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import AbstractSet, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.schedule import ScheduledTransmission
from repro.obs import recorder as _obs
from repro.propagation.pathloss import dbm_to_mw
from repro.simulator.stats import SimulationStats, record_counters

Pair = Tuple[int, int]

#: Target size of one chunk's working set: its draw matrices plus the
#: ``(batch × entries)`` and ``(batch × pairs)`` arrays of a pass.
#: Small schedules run all repetitions in a single pass; large ones are
#: chunked to bound memory (chunking never changes results —
#: repetitions are independent substreams).
_CHUNK_TARGET_BYTES = 64 * 1024 * 1024

#: Bytes one repetition row holds per entry during a pass: channel and
#: RSSI-index lanes, signal power and its draw gather, the reception
#: uniforms, and the attempt/success outcomes.
_ENTRY_BYTES = 5 * 8 + 2
#: Bytes per interference pair: pair power, its draw gather and the two
#: channel gathers of the same-channel test.
_PAIR_BYTES = 4 * 8
#: Bytes per (interferer, entry): interferer power and its draw gather.
_INTERFERER_ENTRY_BYTES = 2 * 8


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

    def reception_uniform_index(self, slot_pos: int, entry: int) -> int:
        """Uniform index of an entry's reception draw."""
        return (self.uniform_offsets[slot_pos] + self.num_interferers
                + entry)


def _slot_pairs(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every ordered ``(entry, other)`` pair of entries sharing a slot,
    self-pairs included, as flat entry indices: entries numbered in
    compiled order, ``counts`` per slot."""
    count = np.repeat(counts, counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    entry = np.repeat(np.arange(len(count)), count)
    block = np.cumsum(count) - count
    other = (np.repeat(first, count)
             + np.arange(len(entry)) - np.repeat(block, count))
    return entry, other


def build_draw_plan(compiled: Dict[int, Sequence[ScheduledTransmission]],
                    num_interferers: int) -> DrawPlan:
    """Build the draw layout for a schedule's entries grouped by slot
    (:meth:`~repro.core.schedule.Schedule.entries_by_slot`).

    The layout depends only on those per-slot entries and the
    interferer count — never on conditions overlays or simulated
    outcomes — so the same plan serves clean and faulted runs alike.
    """
    slots = tuple(sorted(compiled))
    counts = np.array([len(compiled[slot]) for slot in slots],
                      dtype=np.intp)
    requests = [entry.request for slot in slots for entry in compiled[slot]]
    sender = np.fromiter((request.sender for request in requests), np.intp)
    receiver = np.fromiter((request.receiver for request in requests),
                           np.intp)

    # Each sender reaches every receiver of its slot: its own (the
    # signal path) and the others' (interference paths).  Marking each
    # unordered pair in a presence grid over node pairs and reading the
    # grid row-major gives the sorted pair set without a sort.
    nodes = 1 + int(max(sender.max(initial=0), receiver.max(initial=0)))
    tx, rx = _slot_pairs(counts)
    a, b = sender[tx], receiver[rx]
    present = np.zeros(nodes * nodes, dtype=bool)
    present[np.minimum(a, b) * nodes + np.maximum(a, b)] = True
    keys = np.flatnonzero(present)
    pairs = tuple(zip((keys // nodes).tolist(), (keys % nodes).tolist()))

    # Per slot: E signal, E*E interference and I*E interferer normals;
    # I activity and E reception uniforms.
    normal_sizes = counts + counts * counts + num_interferers * counts
    uniform_sizes = num_interferers + counts
    normal_offsets = len(pairs) + np.cumsum(normal_sizes) - normal_sizes
    uniform_offsets = np.cumsum(uniform_sizes) - uniform_sizes
    return DrawPlan(
        pairs=pairs,
        pair_index=dict(zip(pairs, range(len(pairs)))),
        slots=slots,
        entry_counts=tuple(counts.tolist()),
        normal_offsets=tuple(normal_offsets.tolist()),
        uniform_offsets=tuple(uniform_offsets.tolist()),
        num_normals=len(pairs) + int(normal_sizes.sum()),
        num_uniforms=int(uniform_sizes.sum()),
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
    """Repetitions per batch, targeting ``_CHUNK_TARGET_BYTES``.

    A repetition row costs its draws (8 bytes per normal and uniform)
    plus its share of a pass's working set: the ``(batch × entries)``,
    ``(batch × pairs)`` and ``(interferers × batch × entries)`` arrays,
    counting every ordered pair of a slot (an upper bound on the
    same-channel pairs a pass holds).
    """
    entries = sum(plan.entry_counts)
    pairs = sum(count * (count - 1) for count in plan.entry_counts)
    per_rep = (8 * (plan.num_normals + plan.num_uniforms)
               + _ENTRY_BYTES * entries
               + _PAIR_BYTES * pairs
               + _INTERFERER_ENTRY_BYTES * plan.num_interferers * entries)
    return max(1, min(repetitions, _CHUNK_TARGET_BYTES // max(1, per_rep)))


# ----------------------------------------------------------------------
# Per-schedule tables
# ----------------------------------------------------------------------

#: One scheduled slot of the loop: its entry range ``[first, stop)``,
#: its pair range ``[pair_first, pair_stop)``, its entry count and pair
#: row width, and views of the entries' packet, hop and next-hop columns
#: plus each pair's other entry as a slot-local index.
_Span = Tuple[int, int, int, int, int, int, np.ndarray, np.ndarray,
              np.ndarray, np.ndarray]


@dataclass(frozen=True)
class EventTables:
    """Condition-free flat index tables of one compiled schedule.

    Entries are numbered in compiled order: scheduled slots ascending,
    each slot's entries in placement order.  Two entries of a slot share
    a channel in every repetition exactly when their offsets agree
    modulo the channel count, so only such *pairs* can interfere.  Each
    slot lays its pairs out as one row per receiving entry, listing the
    other same-channel entries in compiled order, padded to the slot's
    widest row with the receiver itself; a padding pair carries no
    power.  Every column is an index — into the draw arrays, the packet
    table or the entry numbering — so the tables depend on the
    schedule, the interferer count and the channel count only, never on
    conditions, and one copy serves every simulator of the schedule.

    Attributes:
        sender, receiver: ``(E,)`` nodes of each entry.
        slot_offset: ``(E,)`` slot plus channel offset (the hop
            pattern's per-entry term).
        next_hop: ``(E,)`` hop index plus one.
        flow: ``(E,)`` flow id.
        drift_col, fast_col: ``(E,)`` normal columns of the signal's
            slow and fast fading.
        reception_col: ``(E,)`` uniform column of the reception draw.
        activity_col, interferer_fast_col: ``(I, E)`` uniform column of
            interferer ``i``'s activity draw in the entry's slot, and
            normal column of its fast fading at the entry's receiver.
        pair_receiver, pair_other: ``(P,)`` entry indices of each pair.
        pair_drift_col, pair_fast_col: ``(P,)`` normal columns of the
            interference path's slow and fast fading.
        pair_padding: ``(P,)`` True on padding pairs.
        spans: One :data:`_Span` per scheduled slot, ascending.
        num_packets: Distinct (flow, instance) packets.
        groups: Distinct ``(link, shared_cell)`` keys, in order of
            their first entry.
        group_order, group_starts: Entries sorted by group and the
            start of each group's run (an ``np.add.reduceat`` plan).
    """

    sender: np.ndarray
    receiver: np.ndarray
    slot_offset: np.ndarray
    next_hop: np.ndarray
    flow: np.ndarray
    drift_col: np.ndarray
    fast_col: np.ndarray
    reception_col: np.ndarray
    activity_col: np.ndarray
    interferer_fast_col: np.ndarray
    pair_receiver: np.ndarray
    pair_other: np.ndarray
    pair_drift_col: np.ndarray
    pair_fast_col: np.ndarray
    pair_padding: np.ndarray
    spans: Tuple[_Span, ...]
    num_packets: int
    groups: Tuple[Tuple[Pair, bool], ...]
    group_order: np.ndarray
    group_starts: np.ndarray

    @property
    def num_entries(self) -> int:
        return len(self.sender)

    @property
    def num_pairs(self) -> int:
        return len(self.pair_receiver)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Start of every run of equal values in a sorted key array."""
    if not len(keys):
        return np.zeros(0, dtype=np.intp)
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])


def _first_appearance(*columns: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of ``columns`` in order of first
    appearance.

    Returns each row's number and, per number, the index of the row
    where it first appears (ascending).
    """
    order = np.lexsort(columns[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[:1] = True
    for column in columns:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    # lexsort is stable, so each run's first row is its earliest.
    firsts = order[starts]
    by_first = np.argsort(firsts, kind="stable")
    number = np.empty(len(firsts), dtype=np.intp)
    number[by_first] = np.arange(len(firsts))
    numbers = np.empty(len(order), dtype=np.intp)
    numbers[order] = number[np.cumsum(starts) - 1]
    return numbers, firsts[by_first]


def build_event_tables(compiled: Dict[int, Sequence[ScheduledTransmission]],
                       shared: AbstractSet[Tuple[int, int]], plan: DrawPlan,
                       num_logical: int) -> EventTables:
    """Flatten a schedule's entries grouped by slot, its ``shared``
    ``(slot, offset)`` cells and its draw plan into index tables for a
    network hopping over ``num_logical`` channels."""
    entries = [entry for slot in plan.slots for entry in compiled[slot]]
    requests = [entry.request for entry in entries]
    num_entries = len(entries)
    counts = np.array(plan.entry_counts, dtype=np.intp)
    slot_pos = np.repeat(np.arange(len(counts)), counts)
    firsts = np.cumsum(counts) - counts
    local = np.arange(num_entries) - firsts[slot_pos]
    count = counts[slot_pos]
    normal0 = np.array(plan.normal_offsets, dtype=np.intp)[slot_pos]
    uniform0 = np.array(plan.uniform_offsets, dtype=np.intp)[slot_pos]
    interferer = np.arange(plan.num_interferers)[:, np.newaxis]

    sender = np.fromiter((r.sender for r in requests), np.intp)
    receiver = np.fromiter((r.receiver for r in requests), np.intp)
    offset = np.fromiter((e.offset for e in entries), np.int64)
    slot = np.repeat(np.array(plan.slots, dtype=np.int64), counts)
    hop = np.fromiter((r.hop_index for r in requests), np.int64)
    next_hop = hop + 1
    flow = np.fromiter((r.flow_id for r in requests), np.intp)
    instance = np.fromiter((r.instance for r in requests), np.int64)

    # Slow-fading columns: each unordered node pair's position in the
    # plan's pair list, looked up in a grid over node pairs.
    pair_nodes = np.fromiter(chain.from_iterable(plan.pairs), np.intp)
    nodes = 1 + int(max(pair_nodes.max(initial=0), sender.max(initial=0),
                        receiver.max(initial=0)))
    pair_column = np.zeros(nodes * nodes, dtype=np.intp)
    pair_column[pair_nodes[0::2] * nodes + pair_nodes[1::2]] = np.arange(
        len(plan.pairs))

    def drift_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return pair_column[np.minimum(a, b) * nodes + np.maximum(a, b)]

    # Shared-cell flags: cells as slot * stride + offset, looked up in a
    # presence table (no sort).
    cells = np.fromiter(chain.from_iterable(shared), np.int64).reshape(-1, 2)
    stride = 1 + int(max(offset.max(initial=0), cells[:, 1].max(initial=0)))
    shared_cell = np.isin(slot * stride + offset,
                          cells[:, 0] * stride + cells[:, 1], kind="table")

    # Packets are (flow, instance) and groups (link, shared cell) keys,
    # each numbered in order of its first entry.
    packet, packet_firsts = _first_appearance(flow, instance)
    group, group_firsts = _first_appearance(sender, receiver, shared_cell)

    # Pair rows per slot: each receiving entry lists the other entries
    # of its (slot, channel class) in compiled order, padded to the
    # slot's widest row with itself.  ``by_class`` lists every class's
    # members contiguously, in compiled order.
    channel_class = slot_pos * num_logical + offset % num_logical
    by_class = np.argsort(channel_class, kind="stable")
    class_starts = _run_starts(channel_class[by_class])
    class_sizes = np.diff(class_starts, append=num_entries)
    sorted_pos = np.empty(num_entries, dtype=np.intp)
    sorted_pos[by_class] = np.arange(num_entries)
    class_start = np.repeat(class_starts, class_sizes)[sorted_pos]
    class_size = np.repeat(class_sizes, class_sizes)[sorted_pos]
    widths = np.maximum.reduceat(class_size, firsts) - 1
    row = widths[slot_pos]
    pair_receiver = np.repeat(np.arange(num_entries), row)
    # Row position k of receiver e, a class's member m_r: the others are
    # m_k for k < r, then m_(k+1), then e as padding.
    k = np.arange(len(pair_receiver)) - np.repeat(np.cumsum(row) - row, row)
    k += k >= (sorted_pos - class_start)[pair_receiver]
    size = class_size[pair_receiver]
    pair_other = np.where(
        k < size,
        by_class[class_start[pair_receiver] + np.minimum(k, size - 1)],
        pair_receiver)
    local_other = local[pair_other]

    pair_counts = counts * widths
    pair_firsts = np.cumsum(pair_counts) - pair_counts
    spans = tuple(
        (first, first + slot_count, pair_first, pair_first + slot_pairs,
         slot_count, width, packet[first:first + slot_count],
         hop[first:first + slot_count], next_hop[first:first + slot_count],
         local_other[pair_first:pair_first + slot_pairs])
        for first, slot_count, pair_first, slot_pairs, width in zip(
            firsts.tolist(), counts.tolist(), pair_firsts.tolist(),
            pair_counts.tolist(), widths.tolist()))

    group_order = np.argsort(group, kind="stable")
    return EventTables(
        sender=sender,
        receiver=receiver,
        slot_offset=slot + offset,
        next_hop=next_hop,
        flow=flow,
        drift_col=drift_columns(sender, receiver),
        fast_col=normal0 + local,
        reception_col=uniform0 + plan.num_interferers + local,
        activity_col=uniform0 + interferer,
        interferer_fast_col=(normal0 + count + count * count
                             + interferer * count + local),
        pair_receiver=pair_receiver,
        pair_other=pair_other,
        pair_drift_col=drift_columns(sender[pair_other],
                                     receiver[pair_receiver]),
        pair_fast_col=(normal0[pair_receiver] + count[pair_receiver]
                       + local[pair_receiver] * count[pair_receiver]
                       + local_other),
        pair_padding=pair_other == pair_receiver,
        spans=spans,
        num_packets=len(packet_firsts),
        groups=tuple(zip(zip(sender[group_firsts].tolist(),
                             receiver[group_firsts].tolist()),
                         shared_cell[group_firsts].tolist())),
        group_order=group_order,
        group_starts=_run_starts(group[group_order]),
    )


# ----------------------------------------------------------------------
# Per-simulator overlay
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Overlay:
    """One simulator's conditions and environment, vectorized over the
    schedule's tables.  ``None`` marks an overlay axis the run leaves
    untouched (its term would be an exact no-op)."""

    lit_sender: Optional[np.ndarray]         # (E,) sender not dark
    live_receiver: Optional[np.ndarray]      # (E,) receiver not dark
    signal_attenuation: Optional[np.ndarray]  # (E,) dB
    pair_attenuation: Optional[np.ndarray]   # (P,) dB
    signal_rssi_base: np.ndarray             # (E,) flat RSSI index base
    pair_rssi_base: np.ndarray               # (P,) flat RSSI index base
    interferer_rssi: np.ndarray              # (I, E) dBm at each receiver
    overlap: np.ndarray                      # (I, M) pollutes logical m?
    duty: np.ndarray                         # (I,)
    delivery_order: np.ndarray               # last-hop entries by flow
    delivery_starts: np.ndarray
    delivery_flows: Tuple[int, ...]


def _attenuation(pair_db: Dict[Pair, float], senders: np.ndarray,
                 receivers: np.ndarray) -> np.ndarray:
    """Per-path attenuation (dB), 0.0 where the overlay names none."""
    attenuation = np.zeros(len(senders))
    for (sender, receiver), db in pair_db.items():
        attenuation[(senders == sender) & (receivers == receiver)] = db
    return attenuation


def _overlay(simulator, tables: EventTables) -> _Overlay:
    conditions = simulator.conditions
    dark = conditions.dark_nodes
    lit_sender = live_receiver = None
    if dark:
        dark_nodes = np.array(sorted(dark))
        lit_sender = ~np.isin(tables.sender, dark_nodes)
        live_receiver = ~np.isin(tables.receiver, dark_nodes)

    pair_sender = tables.sender[tables.pair_other]
    pair_receiver = tables.receiver[tables.pair_receiver]
    signal_attenuation = pair_attenuation = None
    if conditions.pair_attenuation_db:
        signal_attenuation = _attenuation(conditions.pair_attenuation_db,
                                          tables.sender, tables.receiver)
        pair_attenuation = _attenuation(conditions.pair_attenuation_db,
                                        pair_sender, pair_receiver)

    num_nodes, _, num_env = simulator.environment.rssi_dbm.shape
    channel_map = simulator.channel_map
    interferers = simulator.interferers
    overlap = np.array(
        [[channel_map.physical(logical) in channels
          for logical in range(len(channel_map))]
         for channels in simulator.interferer_channel_sets],
        dtype=bool).reshape(len(interferers), len(channel_map))
    interferer_rssi = (simulator.interferer_rssi_dbm[:, tables.receiver]
                       if interferers else np.zeros((0, tables.num_entries)))

    hops = simulator.flow_hops
    last_hop = np.flatnonzero(
        tables.next_hop == np.array([hops[flow] for flow in
                                     tables.flow.tolist()], dtype=np.int64))
    by_flow = last_hop[np.argsort(tables.flow[last_hop], kind="stable")]
    flows = tables.flow[by_flow]
    starts = _run_starts(flows)
    return _Overlay(
        lit_sender=lit_sender,
        live_receiver=live_receiver,
        signal_attenuation=signal_attenuation,
        pair_attenuation=pair_attenuation,
        signal_rssi_base=(tables.sender * num_nodes
                          + tables.receiver) * num_env,
        pair_rssi_base=(pair_sender * num_nodes + pair_receiver) * num_env,
        interferer_rssi=interferer_rssi,
        overlap=overlap,
        duty=np.array([i.duty_cycle for i in interferers]),
        delivery_order=by_flow,
        delivery_starts=starts,
        delivery_flows=tuple(flows[starts].tolist()),
    )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

def run_event_batched(simulator, repetitions: int,
                      start_repetition: int = 0,
                      chunk_reps: int = None) -> SimulationStats:
    """Execute all repetitions through the batched event engine.

    Produces stats bit-identical to the slot oracle's
    ``TschSimulator.run_slot`` for the same ``(seed, start_repetition)``.
    ``chunk_reps`` bounds the repetitions drawn per chunk (memory only;
    never changes results).
    """
    if repetitions <= 0:
        raise ValueError("repetitions must be positive")
    plan = simulator.draw_plan
    tables = simulator.tables
    overlay = _overlay(simulator, tables)
    channels = tuple(simulator.channel_map)
    num_groups = len(tables.groups)

    link_attempts = np.zeros((repetitions, num_groups), dtype=np.int64)
    link_successes = np.zeros((repetitions, num_groups), dtype=np.int64)
    channel_attempts = np.zeros((repetitions, len(channels)), dtype=np.int64)
    channel_successes = np.zeros((repetitions, len(channels)),
                                 dtype=np.int64)
    deliveries = np.zeros(len(overlay.delivery_flows), dtype=np.int64)

    chunk = chunk_reps or default_chunk_size(plan, repetitions)
    for chunk_start in range(0, repetitions, chunk):
        batch = min(chunk, repetitions - chunk_start)
        attempts, successes, logical = _run_chunk(
            simulator, plan, tables, overlay,
            start_repetition + chunk_start, batch)
        out = slice(chunk_start, chunk_start + batch)
        if num_groups:
            link_attempts[out] = np.add.reduceat(
                attempts[:, tables.group_order], tables.group_starts,
                axis=1, dtype=np.int64)
            link_successes[out] = np.add.reduceat(
                successes[:, tables.group_order], tables.group_starts,
                axis=1, dtype=np.int64)
        if len(overlay.delivery_flows):
            deliveries += np.add.reduceat(
                successes[:, overlay.delivery_order], overlay.delivery_starts,
                axis=1, dtype=np.int64).sum(axis=0)
        # Per-channel counts cover attempts that went on the air.
        radiated = (attempts if overlay.lit_sender is None
                    else attempts & overlay.lit_sender)
        cells = logical + len(channels) * np.arange(batch)[:, np.newaxis]
        size = batch * len(channels)
        channel_attempts[out] = np.bincount(
            cells[radiated], minlength=size).reshape(batch, len(channels))
        channel_successes[out] = np.bincount(
            cells[successes], minlength=size).reshape(batch, len(channels))

    stats = SimulationStats(
        flow_released={flow_id: count * repetitions for flow_id, count
                       in simulator.instances_per_flow.items()},
        flow_delivered={flow_id: total for flow_id, total
                        in zip(overlay.delivery_flows, deliveries.tolist())
                        if total},
        link_keys=tables.groups,
        link_attempts=link_attempts, link_successes=link_successes,
        channels=channels, channel_attempts=channel_attempts,
        channel_successes=channel_successes)
    if _obs.ENABLED:
        record_counters(stats)
    return stats


def _run_chunk(simulator, plan: DrawPlan, tables: EventTables,
               overlay: _Overlay, first_repetition: int, batch: int,
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One chunk of repetitions: hoisted terms, then the slot loop.

    Returns ``(batch × entries)`` attempt and success matrices and the
    logical channel of every entry in every repetition.
    """
    seed = simulator.config.seed
    normals = np.empty((batch, plan.num_normals))
    uniforms = np.empty((batch, plan.num_uniforms))
    for row in range(batch):
        normals[row], uniforms[row] = repetition_draws(
            plan, seed, first_repetition + row)

    fast_sigma = simulator.config.fast_fading_sigma_db
    slow_sigma = simulator.config.slow_fading_sigma_db
    num_logical = len(simulator.channel_map)
    rssi = simulator.environment.rssi_dbm.reshape(-1)

    base_asn = (first_repetition + np.arange(batch)) * simulator.hyperperiod
    logical = (base_asn[:, np.newaxis] + tables.slot_offset) % num_logical
    env = simulator.env_of_logical[logical]

    # Signal power, in the oracle's association order:
    # (((rssi + drift) + fast) - attenuation).
    signal = rssi.take(overlay.signal_rssi_base + env)
    gathered = normals.take(tables.drift_col, axis=1)
    gathered *= slow_sigma
    signal += gathered
    normals.take(tables.fast_col, axis=1, out=gathered)
    gathered *= fast_sigma
    signal += gathered
    del gathered
    if overlay.signal_attenuation is not None:
        signal -= overlay.signal_attenuation
    signal /= 10.0
    signal_mw = np.power(10.0, signal, out=signal)

    # Intra-network pair power, (((rssi + drift) + fast) + boost) -
    # attenuation; padding pairs carry none.
    pair_mw = None
    if tables.num_pairs:
        pair_mw = rssi.take(overlay.pair_rssi_base
                            + env.take(tables.pair_receiver, axis=1))
        gathered = normals.take(tables.pair_drift_col, axis=1)
        gathered *= slow_sigma
        pair_mw += gathered
        normals.take(tables.pair_fast_col, axis=1, out=gathered)
        gathered *= fast_sigma
        pair_mw += gathered
        del gathered
        boost = simulator.conditions.interference_boost_db
        if boost:
            pair_mw += boost
        if overlay.pair_attenuation is not None:
            pair_mw -= overlay.pair_attenuation
        pair_mw /= 10.0
        np.power(10.0, pair_mw, out=pair_mw)
        np.copyto(pair_mw, 0.0, where=tables.pair_padding)
    del env

    # Duty-cycled interferer power at every entry's receiver.
    interferer_mw = np.zeros((len(overlay.duty), batch, tables.num_entries))
    for i, duty in enumerate(overlay.duty):
        hit = uniforms.take(tables.activity_col[i], axis=1) < duty
        hit &= overlay.overlap[i].take(logical)
        term = normals.take(tables.interferer_fast_col[i], axis=1)
        term *= fast_sigma
        term += overlay.interferer_rssi[i]
        term /= 10.0
        np.power(10.0, term, out=term)
        np.copyto(interferer_mw[i], term, where=hit)
    reception = uniforms.take(tables.reception_col, axis=1)
    del normals, uniforms

    noise_mw = float(dbm_to_mw(simulator.environment.noise_floor_dbm))
    lookup = simulator.lookup
    lit_sender = overlay.lit_sender
    live_receiver = overlay.live_receiver
    num_interferers = len(overlay.duty)
    progress = np.zeros((batch, max(1, tables.num_packets)), dtype=np.int64)
    attempts = np.zeros((batch, tables.num_entries), dtype=bool)
    successes = np.zeros((batch, tables.num_entries), dtype=bool)
    with np.errstate(divide="ignore"):
        for (first, stop, pair_first, pair_stop, count, width, packet,
             hop, next_hop, others) in tables.spans:
            active = progress.take(packet, axis=1) == hop
            if not active.any():
                continue
            radiating = (active if lit_sender is None
                         else active & lit_sender[first:stop])
            if width:
                # Left-to-right from 0.0 in compiled-entry order; the
                # terms the oracle skips (silent, other channel, self)
                # are absent or an exact 0.0.
                terms = np.where(radiating.take(others, axis=1),
                                 pair_mw[:, pair_first:pair_stop], 0.0)
                interference = terms.reshape(batch, count, width
                                             ).cumsum(axis=2)[:, :, -1]
            else:
                interference = np.zeros((batch, count))
            for i in range(num_interferers):
                interference = interference + interferer_mw[i, :,
                                                            first:stop]
            sinr = 10.0 * np.log10(signal_mw[:, first:stop]
                                   / (noise_mw + interference))
            success = reception[:, first:stop] < lookup.many(sinr)
            success &= radiating
            if live_receiver is not None:
                success &= live_receiver[first:stop]
            attempts[:, first:stop] = active
            successes[:, first:stop] = success
            rows, cols = success.nonzero()
            progress[rows, packet[cols]] = next_hop[cols]
    return attempts, successes, logical

