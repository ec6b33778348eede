"""The transmission schedule: a slot × channel-offset cell grid.

The network manager's output is an assignment of transmission attempts to
(time slot, channel offset) cells over one hyperperiod.  The entry list,
in placement order, is the one store.  Beside it the schedule keeps the
indexes its hot paths read, two of them as Python-int bitsets:

* ``_busy[node]`` — a slot bitset per node, bit ``s`` set while the node
  sends or receives in slot ``s`` (transmission conflicts, laxity's
  ``q`` terms);
* per-(slot, offset) entry-index tuples — the scalar channel-constraint
  scan, cell sizes for the least-loaded pick, and reuse statistics;
* ``_used_mask[slot]`` — the slot's used-offset bits, plus ``_full``, a
  slot bitset of the slots whose every offset is taken (the ρ = ∞ "any
  free channel?" probe).

Only this module does bit arithmetic on the bitsets: the schedule
answers each placement question itself (:meth:`Schedule.first_free_slot`,
:meth:`Schedule.first_conflict_free_slot`,
:meth:`Schedule.conflict_free_slots`, :meth:`Schedule.conflict_count`,
and Eq. 1's window packed into one int, :meth:`Schedule.conflict_rows`),
and readers that need arrays get a window's bits unpacked at their
boundary (:meth:`Schedule.conflict_mask`,
:meth:`Schedule.free_offset_slots`).  Every other view (per-slot
groups, makespan, cell sizes) is derived from these on demand.

The canonical hash reads a per-entry text cache kept as a prefix of the
entry list, so a hash after a repair formats only the entries placed
since the last one, and ``clone`` copies the cell index as one dict of
immutable tuples: both whole-schedule costs of a reschedule follow the
entries that changed.
"""

from __future__ import annotations

from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.core.transmissions import TransmissionRequest


class ScheduledTransmission(NamedTuple):
    """A transmission request bound to a (slot, channel offset) cell."""

    request: TransmissionRequest
    slot: int
    offset: int

    def __str__(self) -> str:
        return f"{self.request} @ slot {self.slot} offset {self.offset}"


def _entry_text(entries: Sequence[ScheduledTransmission]) -> List[str]:
    """Each entry's canonical JSON row (:meth:`Schedule.canonical_hash`):
    its cell, then its request's fields, as ``%d`` integers."""
    return ["[%d,%d,%d,%d,%d,%d,%d,%d,%d,%d]" % (slot, offset, *request)
            for request, slot, offset in entries]


def _without(items: List, doomed: Sequence[int]) -> List:
    """``items`` minus the positions in ``doomed`` (ascending), copied
    slice by slice; positions past the end are ignored."""
    kept: List = []
    start = 0
    for index in doomed:
        kept += items[start:index]
        start = index + 1
    kept += items[start:]
    return kept


class Schedule:
    """A mutable transmission schedule over one hyperperiod.

    Attributes:
        num_nodes: Number of devices.
        num_slots: Hyperperiod length in slots.
        num_offsets: Number of channel offsets ``|M|``.
    """

    def __init__(self, num_nodes: int, num_slots: int, num_offsets: int):
        if num_nodes <= 0 or num_slots <= 0 or num_offsets <= 0:
            raise ValueError("dimensions must be positive")
        self.num_nodes = num_nodes
        self.num_slots = num_slots
        self.num_offsets = num_offsets
        self._entries: List[ScheduledTransmission] = []
        self._busy: List[int] = [0] * num_nodes
        # Immutable index tuples: clone() shares them, _bind and evict
        # replace them.
        self._cells: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._used_mask: List[int] = [0] * num_slots
        self._full = 0
        # canonical_hash() memo; every entry mutation clears it.
        self._hash: Optional[str] = None
        # Canonical text of entries[:len(_text)], filled by
        # canonical_hash(): always a prefix of the entry list.
        self._text: List[str] = []
        # Mutation counter: every entry mutation bumps it (see version).
        self._version = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, request: TransmissionRequest, slot: int, offset: int
            ) -> ScheduledTransmission:
        """Bind a request to a cell.

        Performs sanity checks (bounds and transmission-conflict freedom)
        but *not* channel-constraint checks — those depend on the reuse
        policy and are the scheduler's job.

        Raises:
            ValueError: On an out-of-range slot, offset or node, or a
                node conflict.
        """
        self._check_bounds(request, slot, offset)
        busy = self._busy
        if (busy[request.sender] | busy[request.receiver]) >> slot & 1:
            raise ValueError(
                f"node conflict placing {request} at slot {slot}")
        return self._bind(request, slot, offset)

    def force_add(self, request: TransmissionRequest, slot: int, offset: int
                  ) -> ScheduledTransmission:
        """Bind a request to a cell, skipping the node-conflict check.

        For artifact loading and audit fixtures only: re-materializing a
        schedule dump must not sanitize it — deciding whether the result
        is valid is the auditor's job (:mod:`repro.validate.audit`), and
        the corrupt-schedule fixtures rely on being able to represent
        invalid placements.  Bounds are still enforced (the indexes
        require in-range slots, offsets and nodes); bookkeeping is
        updated exactly as in :meth:`add`.
        """
        self._check_bounds(request, slot, offset)
        return self._bind(request, slot, offset)

    def _check_bounds(self, request: TransmissionRequest, slot: int,
                      offset: int) -> None:
        """Reject an out-of-range slot, offset or node before any index
        is touched, so a failed placement leaves the schedule as it was."""
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} out of range [0, {self.num_slots})")
        if not 0 <= offset < self.num_offsets:
            raise ValueError(
                f"offset {offset} out of range [0, {self.num_offsets})")
        for node in (request.sender, request.receiver):
            if not 0 <= node < self.num_nodes:
                raise ValueError(
                    f"node {node} out of range [0, {self.num_nodes})")

    def _bind(self, request: TransmissionRequest, slot: int, offset: int
              ) -> ScheduledTransmission:
        # tuple.__new__ skips the NamedTuple's Python-level __new__.
        entry = tuple.__new__(ScheduledTransmission, (request, slot, offset))
        cell = (slot, offset)
        self._cells[cell] = self._cells.get(cell, ()) + (len(self._entries),)
        self._entries.append(entry)
        self._hash = None
        self._version += 1
        bit = 1 << slot
        self._busy[request.sender] |= bit
        self._busy[request.receiver] |= bit
        mask = self._used_mask[slot] | (1 << offset)
        self._used_mask[slot] = mask
        if mask == (1 << self.num_offsets) - 1:
            self._full |= bit
        return entry

    def clone(self) -> "Schedule":
        """An independent copy sharing only immutable pieces.

        Entries, the cell index's tuples and the entries' canonical
        text (all immutable) are shared; each container — entry
        list, busy bitsets, cell dict, used-offset masks, text prefix —
        is copied flat, with no per-cell work, so mutations of the clone
        (``add``/``evict``) never leak into the original.  The hash memo
        and the text prefix carry over, so hashing the clone after a
        repair formats only the re-placed entries.  The incremental
        repair path (:mod:`repro.core.repair`) edits a clone so the
        manager's rollback can keep serving the old schedule.
        """
        dup = Schedule.__new__(Schedule)
        dup.num_nodes = self.num_nodes
        dup.num_slots = self.num_slots
        dup.num_offsets = self.num_offsets
        dup._entries = list(self._entries)
        dup._busy = list(self._busy)
        dup._cells = dict(self._cells)
        dup._used_mask = list(self._used_mask)
        dup._full = self._full
        dup._hash = self._hash
        dup._text = list(self._text)
        dup._version = self._version
        return dup

    def evict(self, indices: Iterable[int]) -> List[ScheduledTransmission]:
        """Remove entries by index, rolling back all bookkeeping.

        The inverse of :meth:`add` for a batch of entries: the cell
        index is rebuilt from the survivors, the canonical text prefix
        drops the evicted entries' text, and the busy bits,
        used-offset masks and full-slot bits of the touched slots are
        recomputed from them, so every index ends exactly as a fresh
        schedule holding only the surviving entries would have it (the
        auditor's bookkeeping checks cross-verify this).  Surviving
        entries keep their relative placement order but are re-indexed,
        so previously held entry indices are invalid after eviction.

        Args:
            indices: Positions into :attr:`entries` to remove.

        Returns:
            The evicted transmissions, in index order.

        Raises:
            IndexError: When an index is out of range.
        """
        doomed = sorted({int(i) for i in indices})
        if not doomed:
            return []
        if doomed[0] < 0 or doomed[-1] >= len(self._entries):
            raise IndexError(
                f"evict index out of range [0, {len(self._entries)})")
        evicted = [self._entries[i] for i in doomed]
        self._entries = _without(self._entries, doomed)
        # The survivors of a prefix are a prefix of the survivors.
        self._text = _without(self._text, doomed)
        self._hash = None
        self._version += 1
        # Survivor indices shifted: rebuild the cell index in one pass
        # (linear in schedule size, far below placement cost).
        cells: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        for i, entry in enumerate(self._entries):
            cell = (entry.slot, entry.offset)
            cells[cell] = cells.get(cell, ()) + (i,)
        self._cells = cells
        # The touched slots' bits are cleared and recomputed from the
        # survivors rather than unset entry by entry: force_add permits
        # node collisions, so a busy bit may be owed to more than one
        # entry.
        touched = {entry.slot for entry in evicted}
        keep = ~sum(1 << slot for slot in touched)
        busy = [bits & keep for bits in self._busy]
        self._full &= keep
        all_offsets = (1 << self.num_offsets) - 1
        for slot in touched:
            bit = 1 << slot
            mask = 0
            for offset in range(self.num_offsets):
                for i in cells.get((slot, offset), ()):
                    request = self._entries[i].request
                    busy[request.sender] |= bit
                    busy[request.receiver] |= bit
                    mask |= 1 << offset
            self._used_mask[slot] = mask
            if mask == all_offsets:
                self._full |= bit
        self._busy = busy
        return evicted

    # ------------------------------------------------------------------
    # Queries used by the schedulers
    # ------------------------------------------------------------------

    @property
    def entries(self) -> List[ScheduledTransmission]:
        """All scheduled transmissions, in placement order.

        The live internal list (callers must not mutate it) — this
        property sits on simulator and analysis hot loops, and copying
        thousands of entries per access dominated their profiles.
        """
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def version(self) -> int:
        """Mutation counter: :meth:`add`, :meth:`force_add` and
        :meth:`evict` bump it, so per-schedule caches keyed on it (the
        simulator's compiled entries, draw plans and event tables) never
        serve a state the schedule has left.  An evict-then-add back to
        the same length changes it, where the entry count would not."""
        return self._version

    @staticmethod
    def _unpack(bitsets: Sequence[int], start: int, end: int) -> np.ndarray:
        """Bits ``start..end`` of each slot bitset as one bool row each:
        the boundary where array readers get the indexes' bits."""
        width = max(end - start + 1, 0)
        nbytes = (width + 7) // 8
        window = (1 << width) - 1
        data = b"".join([(bits >> start & window).to_bytes(nbytes, "little")
                         for bits in bitsets])
        packed = np.frombuffer(data, dtype=np.uint8).reshape(
            len(bitsets), nbytes)
        return np.unpackbits(packed, axis=1, count=width,
                             bitorder="little").view(bool)

    def conflict_mask(self, sender: int, receiver: int,
                      start: int, end: int) -> np.ndarray:
        """Boolean mask over ``[start, end]`` of slots conflicting for a link.

        ``mask[i]`` is True iff slot ``start + i`` already contains a
        transmission sharing the sender or the receiver.
        """
        busy = self._busy
        return self._unpack([busy[sender] | busy[receiver]], start, end)[0]

    def conflict_rows(self, links: Sequence[Tuple[int, int]],
                      start: int, end: int) -> int:
        """The conflict bits of every ``(sender, receiver)`` link over
        ``[start, end]``, packed into one int (Eq. 1's
        :class:`~repro.core.laxity.LaxityTable`): one block of
        ``end - start + 1`` bits per link, the last link's block lowest,
        bit ``i`` of a block set iff slot ``start + i`` conflicts for
        that link."""
        busy = self._busy
        width = max(end - start + 1, 0)
        window = (1 << width) - 1
        packed = 0
        for sender, receiver in links:
            packed = (packed << width
                      | (busy[sender] | busy[receiver]) >> start & window)
        return packed

    def conflict_count(self, sender: int, receiver: int,
                       start: int, end: int) -> int:
        """Number of conflicting slots in ``[start, end]`` for a link.

        This is the paper's ``q_{start,end}^t`` term in the laxity formula.
        """
        if start > end:
            return 0
        conflict = (self._busy[sender] | self._busy[receiver]) >> start
        return (conflict & ((1 << (end - start + 1)) - 1)).bit_count()

    def first_free_slot(self, sender: int, receiver: int,
                        start: int, end: int) -> int:
        """Earliest slot of ``[start, end]`` that is conflict-free for the
        link and has a free offset — the ρ = ∞ probe — or -1."""
        taken = (self._busy[sender] | self._busy[receiver]
                 | self._full) >> start
        # The lowest clear bit: adding one carries through the trailing
        # set bits and stops there.
        slot = start + (taken ^ (taken + 1)).bit_length() - 1
        return slot if slot <= end else -1

    def first_conflict_free_slot(self, sender: int, receiver: int,
                                 start: int, end: int) -> int:
        """Earliest slot of ``[start, end]`` with no transmission sharing
        the link's sender or receiver — the first candidate of every
        finite-ρ probe — or -1."""
        taken = (self._busy[sender] | self._busy[receiver]) >> start
        slot = start + (taken ^ (taken + 1)).bit_length() - 1
        return slot if slot <= end else -1

    def conflict_free_slots(self, sender: int, receiver: int,
                            start: int, end: int) -> Iterator[int]:
        """Slots of ``[start, end]`` with no transmission sharing the
        link's sender or receiver, ascending — the finite-ρ scan's
        candidates."""
        if start > end:
            return
        free = (~(self._busy[sender] | self._busy[receiver]) >> start
                & ((1 << (end - start + 1)) - 1))
        while free:
            low = free & -free
            yield start + low.bit_length() - 1
            free ^= low

    def cell(self, slot: int, offset: int) -> List[ScheduledTransmission]:
        """Transmissions scheduled in a (slot, offset) cell."""
        return [self._entries[i] for i in self._cells.get((slot, offset), ())]

    def cell_indices(self, slot: int, offset: int) -> Tuple[int, ...]:
        """Positions in :attr:`entries` of a cell's occupants, in
        placement order: the cell index's own immutable tuple, so the
        scalar channel-constraint check reads occupant endpoints without
        materializing the cell or copying the index."""
        return self._cells.get((slot, offset), ())

    def cell_size(self, slot: int, offset: int) -> int:
        """Number of transmissions in a cell."""
        return len(self._cells.get((slot, offset), ()))

    def first_free_offset(self, slot: int) -> int:
        """Lowest unused channel offset in a slot (-1 when the slot is
        full) — the NR fast path's pick, without building a list."""
        full = (1 << self.num_offsets) - 1
        free = ~self._used_mask[slot] & full
        return (free & -free).bit_length() - 1 if free else -1

    def free_offset_slots(self, start: int, end: int) -> np.ndarray:
        """Mask over ``[start, end]``: True where some offset is free
        (the full-slot bitset's bit is clear)."""
        return self._unpack([~self._full], start, end)[0]

    def slot_transmissions(self, slot: int) -> List[ScheduledTransmission]:
        """All transmissions in a slot (any offset) — the paper's T_s —
        in placement order."""
        indices = sorted(i for offset in range(self.num_offsets)
                         for i in self._cells.get((slot, offset), ()))
        return [self._entries[i] for i in indices]

    # ------------------------------------------------------------------
    # Whole-schedule queries (metrics, simulation)
    # ------------------------------------------------------------------

    def occupied_cells(self) -> Iterator[Tuple[int, int, List[ScheduledTransmission]]]:
        """Yield ``(slot, offset, transmissions)`` for every non-empty cell."""
        for (slot, offset), indices in sorted(self._cells.items()):
            yield slot, offset, [self._entries[i] for i in indices]

    def reused_cell_indices(self) -> List[Tuple[int, int, Tuple[int, ...]]]:
        """``(slot, offset, indices)`` of every cell holding more than one
        transmission (channel reuse), in ``(slot, offset)`` order: the
        cell index's own tuples of positions in :attr:`entries`, in
        placement order, with no entry materialized."""
        return sorted((slot, offset, indices)
                      for (slot, offset), indices in self._cells.items()
                      if len(indices) > 1)

    def reused_cells(self) -> List[Tuple[int, int, List[ScheduledTransmission]]]:
        """Cells holding more than one transmission (channel reuse), in
        ``(slot, offset)`` order, their occupants materialized from
        :meth:`reused_cell_indices`."""
        return [(slot, offset, [self._entries[i] for i in indices])
                for slot, offset, indices in self.reused_cell_indices()]

    def cell_sizes(self) -> List[int]:
        """Occupant count of every non-empty cell, in no particular
        order: the cell index's tuple lengths, no cell materialized."""
        return [len(indices) for indices in self._cells.values()]

    def num_reused_cells(self) -> int:
        """Number of cells where a channel is shared."""
        return sum(1 for indices in self._cells.values()
                   if len(indices) > 1)

    def reuse_links(self) -> List[Tuple[int, int]]:
        """Directed links that appear in at least one shared cell."""
        links = set()
        for _, _, transmissions in self.reused_cells():
            for entry in transmissions:
                links.add(entry.request.link)
        return sorted(links)

    def entries_by_slot(self) -> Dict[int, List[ScheduledTransmission]]:
        """All transmissions grouped by slot in ascending slot order,
        each group in placement order (for the simulator)."""
        by_slot: Dict[int, List[ScheduledTransmission]] = {}
        for entry in self._entries:
            by_slot.setdefault(entry.slot, []).append(entry)
        return dict(sorted(by_slot.items()))

    def makespan(self) -> int:
        """Last occupied slot + 1, or 0 for an empty schedule."""
        for slot in range(self.num_slots - 1, -1, -1):
            if self._used_mask[slot]:
                return slot + 1
        return 0

    def signature(self) -> List[tuple]:
        """Order-preserving tuple view of every placement.

        One tuple per entry, in placement order, carrying the full
        request identity plus its cell — two schedules are bit-identical
        iff their signatures are equal.  The benchmark's descent
        equivalence check compares through this form, and
        ``json.dumps`` of it is the test oracle of
        :meth:`canonical_hash`, which formats the same fields from its
        per-entry text cache instead.
        """
        return [(e.slot, e.offset, r.flow_id, r.instance, r.hop_index,
                 r.attempt, r.sender, r.receiver, r.release_slot,
                 r.deadline_slot)
                for e in self._entries
                for r in (e.request,)]

    def canonical_hash(self) -> str:
        """SHA-256 over the canonical JSON form of this schedule.

        The document is ``{"num_nodes":N,"num_slots":S,"num_offsets":M,
        "entries":[...]}`` with one ``[slot,offset,flow_id,instance,
        hop_index,attempt,sender,receiver,release_slot,deadline_slot]``
        row per entry in placement order — the bytes ``json.dumps`` of
        :meth:`signature` writes with ``separators=(",", ":")`` — so any
        change to any placement (or to placement *order*) changes the
        hash.  Two processes that built the same schedule — service
        worker and direct library call, RC's fused descent and its
        stepwise oracle — agree on it.

        Computed once per schedule state: ``add``/``force_add`` and
        ``evict`` clear the memo, ``clone`` carries it.  Each entry's
        row text is formatted once and kept as a prefix of the entry
        list, which ``clone`` copies and ``evict`` filters; a recompute
        formats only the entries past the prefix, so hashing a repaired
        clone costs its re-placed entries plus one join and one SHA-256.
        """
        if self._hash is None:
            import hashlib

            text = self._text
            text.extend(_entry_text(self._entries[len(text):]))
            canonical = (
                '{"num_nodes":%d,"num_slots":%d,"num_offsets":%d,'
                '"entries":[%s]}' % (self.num_nodes, self.num_slots,
                                     self.num_offsets, ",".join(text)))
            self._hash = hashlib.sha256(
                canonical.encode("utf-8")).hexdigest()
        return self._hash
