"""The transmission schedule: a slot × channel-offset cell grid.

The network manager's output is an assignment of transmission attempts to
(time slot, channel offset) cells over one hyperperiod.  This structure
maintains the bookkeeping the schedulers and the laxity heuristic query on
their hot paths:

* ``busy[node, slot]`` — whether a node transmits or receives in a slot
  (transmission-conflict checks, laxity's ``q`` terms);
* per-(slot, offset) entry lists — channel-constraint checks and reuse
  statistics;
* per-slot used-offset bitmasks — fast "any free channel?" queries;
* incremental NumPy occupancy arrays — per-cell occupant counts plus
  sender/receiver index planes, consumed wholesale by the vectorized
  placement kernel (:mod:`repro.core.kernel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.kernel import INFINITE_DISTANCE, KERNEL_SCALAR
from repro.core.transmissions import TransmissionRequest


@dataclass(frozen=True)
class ScheduledTransmission:
    """A transmission request bound to a (slot, channel offset) cell."""

    request: TransmissionRequest
    slot: int
    offset: int

    def __str__(self) -> str:
        return f"{self.request} @ slot {self.slot} offset {self.offset}"


class Schedule:
    """A mutable transmission schedule over one hyperperiod.

    Attributes:
        num_nodes: Number of devices.
        num_slots: Hyperperiod length in slots.
        num_offsets: Number of channel offsets ``|M|``.
        kernel: The placement kernel that places onto this schedule
            (see :mod:`repro.core.kernel`): the building policy's
            declaration, carried through clones and repairs.
    """

    def __init__(self, num_nodes: int, num_slots: int, num_offsets: int,
                 kernel: str = KERNEL_SCALAR):
        if num_nodes <= 0 or num_slots <= 0 or num_offsets <= 0:
            raise ValueError("dimensions must be positive")
        self.num_nodes = num_nodes
        self.num_slots = num_slots
        self.num_offsets = num_offsets
        self.kernel = kernel
        self._entries: List[ScheduledTransmission] = []
        self._busy = np.zeros((num_nodes, num_slots), dtype=bool)
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        self._used_mask = np.zeros(num_slots, dtype=np.int32)
        self._slot_entries: Dict[int, List[int]] = {}
        # Occupancy arrays for the vectorized kernel: per-cell occupant
        # counts plus sender/receiver index planes.  The occupant
        # capacity (3rd axis) starts at zero and doubles on demand, so
        # empty schedules stay cheap.
        self._occ_count = np.zeros((num_slots, num_offsets), dtype=np.int32)
        self._occ_senders = np.zeros((num_slots, num_offsets, 0),
                                     dtype=np.int32)
        self._occ_receivers = np.zeros((num_slots, num_offsets, 0),
                                       dtype=np.int32)
        # Incremental per-link min-reuse-distance stacks, built by
        # repro.core.kernel at the first finite-ρ query for the links
        # the engine planned (kernel.plan_links); add() keeps them
        # current once they exist.
        self._link_state = None
        self._link_plan = ()
        # canonical_hash() memo; every entry mutation clears it.
        self._hash: Optional[str] = None

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
            ValueError: On out-of-range slot/offset or a node conflict.
        """
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} out of range [0, {self.num_slots})")
        if not 0 <= offset < self.num_offsets:
            raise ValueError(
                f"offset {offset} out of range [0, {self.num_offsets})")
        if self._busy[request.sender, slot] or self._busy[request.receiver, slot]:
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
        invalid placements.  Bounds are still enforced (the backing
        arrays require in-range indices); bookkeeping is updated exactly
        as in :meth:`add`.
        """
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} out of range [0, {self.num_slots})")
        if not 0 <= offset < self.num_offsets:
            raise ValueError(
                f"offset {offset} out of range [0, {self.num_offsets})")
        return self._bind(request, slot, offset)

    def _bind(self, request: TransmissionRequest, slot: int, offset: int
              ) -> ScheduledTransmission:
        entry = ScheduledTransmission(request, slot, offset)
        index = len(self._entries)
        self._entries.append(entry)
        self._hash = None
        self._busy[request.sender, slot] = True
        self._busy[request.receiver, slot] = True
        self._cells.setdefault((slot, offset), []).append(index)
        self._used_mask[slot] |= (1 << offset)
        self._slot_entries.setdefault(slot, []).append(index)
        lane = int(self._occ_count[slot, offset])
        if lane >= self._occ_senders.shape[2]:
            self._grow_occupancy(lane + 1)
        self._occ_senders[slot, offset, lane] = request.sender
        self._occ_receivers[slot, offset, lane] = request.receiver
        self._occ_count[slot, offset] = lane + 1
        if self._link_state is not None:
            self._update_link_distances(request.sender, request.receiver,
                                        slot, offset)
        return entry

    def clone(self) -> "Schedule":
        """An independent deep copy sharing only immutable pieces.

        Entries are frozen dataclasses and safe to share; every mutable
        bookkeeping structure — busy matrix, cell/slot index maps,
        used-offset masks, occupancy planes, and the kernel's
        incremental distance stacks, if built — is copied so mutations
        of the clone (``add``/``evict``) never leak into the original.
        The incremental repair path (:mod:`repro.core.repair`) edits a
        clone so the manager's rollback can keep serving the old
        schedule.
        """
        dup = Schedule.__new__(Schedule)
        dup.num_nodes = self.num_nodes
        dup.num_slots = self.num_slots
        dup.num_offsets = self.num_offsets
        dup.kernel = self.kernel
        dup._entries = list(self._entries)
        dup._busy = self._busy.copy()
        dup._cells = {cell: list(ix) for cell, ix in self._cells.items()}
        dup._used_mask = self._used_mask.copy()
        dup._slot_entries = {slot: list(ix)
                             for slot, ix in self._slot_entries.items()}
        dup._occ_count = self._occ_count.copy()
        dup._occ_senders = self._occ_senders.copy()
        dup._occ_receivers = self._occ_receivers.copy()
        dup._link_state = (None if self._link_state is None
                           else self._link_state.clone())
        dup._link_plan = self._link_plan
        dup._hash = self._hash
        return dup

    def evict(self, indices: Iterable[int]) -> List[ScheduledTransmission]:
        """Remove entries by index, rolling back all bookkeeping.

        The inverse of :meth:`add` for a batch of entries: the busy
        matrix, cell and slot index maps, used-offset masks, occupancy
        planes, and the kernel's incremental distance stacks are all
        restored to exactly the state a fresh schedule containing only
        the surviving entries would have (the auditor's bookkeeping
        checks cross-verify this).  Surviving entries keep their
        relative placement order but are re-indexed, so previously held
        entry indices are invalid after eviction.

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
        doomed_set = set(doomed)
        evicted = [self._entries[i] for i in doomed]
        affected_cells = {(e.slot, e.offset) for e in evicted}
        affected_slots = {e.slot for e in evicted}
        self._entries = [entry for i, entry in enumerate(self._entries)
                         if i not in doomed_set]
        self._hash = None
        # Survivor indices shifted: rebuild both index maps in one pass
        # (linear in schedule size, far below placement cost).
        cells: Dict[Tuple[int, int], List[int]] = {}
        slot_entries: Dict[int, List[int]] = {}
        for i, entry in enumerate(self._entries):
            cells.setdefault((entry.slot, entry.offset), []).append(i)
            slot_entries.setdefault(entry.slot, []).append(i)
        self._cells = cells
        self._slot_entries = slot_entries
        # Busy columns and used-offset masks of the touched slots are
        # recomputed from the survivors rather than unset bit-by-bit:
        # force_add permits node collisions, so a bit may be owed to
        # more than one entry.
        for slot in affected_slots:
            self._busy[:, slot] = False
            mask = 0
            for i in slot_entries.get(slot, ()):
                entry = self._entries[i]
                self._busy[entry.request.sender, slot] = True
                self._busy[entry.request.receiver, slot] = True
                mask |= (1 << entry.offset)
            self._used_mask[slot] = mask
        # Occupancy lanes of the touched cells: rewrite live lanes from
        # the survivors and zero the tail so stale node indices never
        # linger past the count.
        for slot, offset in affected_cells:
            survivors = cells.get((slot, offset), ())
            for lane, i in enumerate(survivors):
                entry = self._entries[i]
                self._occ_senders[slot, offset, lane] = entry.request.sender
                self._occ_receivers[slot, offset, lane] = entry.request.receiver
            count = len(survivors)
            self._occ_count[slot, offset] = count
            self._occ_senders[slot, offset, count:] = 0
            self._occ_receivers[slot, offset, count:] = 0
        if self._link_state is not None:
            self._refresh_link_distances(affected_cells, affected_slots)
        return evicted

    def _refresh_link_distances(self, cells: Iterable[Tuple[int, int]],
                                slots: Iterable[int]) -> None:
        """Recompute the kernel's distance rows for the given cells.

        ``add`` only ever *lowers* distances (one vectorized minimum per
        occupant), so removing an occupant needs a from-scratch minimum
        over each touched cell's survivors, then a per-slot ``best``
        refresh.
        """
        state = self._link_state
        n = state.count
        if not n:
            return
        for slot, offset in cells:
            row = state.dist[slot, offset, :n]
            row[:] = INFINITE_DISTANCE
            for i in self._cells.get((slot, offset), ()):
                request = self._entries[i].request
                np.minimum(row,
                           state.occupant_candidates(request.sender,
                                                     request.receiver),
                           out=row)
        for slot in slots:
            state.dist[slot, :, :n].max(axis=0, out=state.best[slot, :n])

    def _update_link_distances(self, x: int, y: int, slot: int,
                               offset: int) -> None:
        """Fold a new occupant ``(x, y)`` of cell ``(slot, offset)`` into
        every tracked link's min-reuse-distance row (see
        :mod:`repro.core.kernel`): one vectorized minimum over links."""
        state = self._link_state
        n = state.count
        if not n:
            return
        cell = state.dist[slot, offset, :n]
        np.minimum(cell, state.occupant_candidates(x, y), out=cell)
        state.dist[slot, :, :n].max(axis=0, out=state.best[slot, :n])

    def _grow_occupancy(self, needed: int) -> None:
        """Double the occupant capacity of the kernel arrays."""
        capacity = max(needed, 2 * max(self._occ_senders.shape[2], 1))
        grown = np.zeros((self.num_slots, self.num_offsets, capacity),
                         dtype=np.int32)
        grown[:, :, :self._occ_senders.shape[2]] = self._occ_senders
        self._occ_senders = grown
        grown = np.zeros((self.num_slots, self.num_offsets, capacity),
                         dtype=np.int32)
        grown[:, :, :self._occ_receivers.shape[2]] = self._occ_receivers
        self._occ_receivers = grown

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

    def node_busy(self, node: int, slot: int) -> bool:
        """Whether a node transmits or receives in a slot."""
        return bool(self._busy[node, slot])

    def conflict_mask(self, sender: int, receiver: int,
                      start: int, end: int) -> np.ndarray:
        """Boolean mask over ``[start, end]`` of slots conflicting for a link.

        ``mask[i]`` is True iff slot ``start + i`` already contains a
        transmission sharing the sender or the receiver.
        """
        if start > end:
            return np.zeros(0, dtype=bool)
        window = slice(start, end + 1)
        return self._busy[sender, window] | self._busy[receiver, window]

    def conflict_count(self, sender: int, receiver: int,
                       start: int, end: int) -> int:
        """Number of conflicting slots in ``[start, end]`` for a link.

        This is the paper's ``q_{start,end}^t`` term in the laxity formula.
        """
        return int(np.count_nonzero(
            self.conflict_mask(sender, receiver, start, end)))

    def cell(self, slot: int, offset: int) -> List[ScheduledTransmission]:
        """Transmissions scheduled in a (slot, offset) cell."""
        return [self._entries[i] for i in self._cells.get((slot, offset), [])]

    def cell_size(self, slot: int, offset: int) -> int:
        """Number of transmissions in a cell."""
        return int(self._occ_count[slot, offset])

    @staticmethod
    def _set_bits(mask: int) -> List[int]:
        """Indices of the set bits of ``mask``, ascending."""
        bits = []
        while mask:
            low = mask & -mask
            bits.append(low.bit_length() - 1)
            mask ^= low
        return bits

    def used_offsets(self, slot: int) -> List[int]:
        """Channel offsets with at least one transmission in a slot."""
        return self._set_bits(int(self._used_mask[slot]))

    def free_offsets(self, slot: int) -> List[int]:
        """Channel offsets with no transmission in a slot."""
        full = (1 << self.num_offsets) - 1
        return self._set_bits(~int(self._used_mask[slot]) & full)

    def first_free_offset(self, slot: int) -> int:
        """Lowest unused channel offset in a slot (-1 when the slot is
        full) — the NR fast path's pick, without building a list."""
        full = (1 << self.num_offsets) - 1
        free = ~int(self._used_mask[slot]) & full
        return (free & -free).bit_length() - 1 if free else -1

    def has_free_offset(self, slot: int) -> bool:
        """Whether any channel offset in the slot is unused."""
        return int(self._used_mask[slot]).bit_count() < self.num_offsets

    def free_offset_slots(self, start: int, end: int) -> np.ndarray:
        """Mask over ``[start, end]``: True where some offset is free."""
        if start > end:
            return np.zeros(0, dtype=bool)
        full = (1 << self.num_offsets) - 1
        return self._used_mask[start:end + 1] != full

    def nr_candidate_slots(self, sender: int, receiver: int,
                           start: int, end: int) -> np.ndarray:
        """Mask over ``[start, end]``: slots that are conflict-free for
        the link *and* have a free offset — the ρ = ∞ feasibility test,
        fused into three vector ops for the placement hot path."""
        window = slice(start, end + 1)
        full = (1 << self.num_offsets) - 1
        mask = self._used_mask[window] != full
        conflict = self._busy[sender, window] | self._busy[receiver, window]
        # free & ~conflict, without materializing the inverted mask.
        np.greater(mask, conflict, out=mask)
        return mask

    def slot_transmissions(self, slot: int) -> List[ScheduledTransmission]:
        """All transmissions in a slot (any offset) — the paper's T_s."""
        return [self._entries[i] for i in self._slot_entries.get(slot, [])]

    # ------------------------------------------------------------------
    # Kernel views (read-only; see repro.core.kernel)
    # ------------------------------------------------------------------

    def occupancy(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kernel's occupancy state: ``(counts, senders, receivers)``.

        ``counts`` is ``(num_slots, num_offsets)`` occupant counts;
        ``senders``/``receivers`` are ``(num_slots, num_offsets, K)``
        node-index planes where only the first ``counts[s, c]`` lanes of
        cell ``(s, c)`` are meaningful.  Callers must not mutate these.
        """
        return self._occ_count, self._occ_senders, self._occ_receivers

    def busy_matrix(self) -> np.ndarray:
        """The ``(num_nodes, num_slots)`` busy matrix (do not mutate)."""
        return self._busy

    # ------------------------------------------------------------------
    # Whole-schedule queries (metrics, simulation)
    # ------------------------------------------------------------------

    def occupied_cells(self) -> Iterator[Tuple[int, int, List[ScheduledTransmission]]]:
        """Yield ``(slot, offset, transmissions)`` for every non-empty cell."""
        for (slot, offset), indices in sorted(self._cells.items()):
            yield slot, offset, [self._entries[i] for i in indices]

    def reused_cells(self) -> List[Tuple[int, int, List[ScheduledTransmission]]]:
        """Cells holding more than one transmission (channel reuse), in
        ``(slot, offset)`` order.  Read off the entry-derived cell index,
        so only the shared cells are sorted and materialized."""
        shared = sorted((cell, indices) for cell, indices
                        in self._cells.items() if len(indices) > 1)
        return [(slot, offset, [self._entries[i] for i in indices])
                for (slot, offset), indices in shared]

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
        """All transmissions grouped by slot (for the simulator)."""
        return {slot: [self._entries[i] for i in indices]
                for slot, indices in sorted(self._slot_entries.items())}

    def makespan(self) -> int:
        """Last occupied slot + 1, or 0 for an empty schedule."""
        if not self._slot_entries:
            return 0
        return max(self._slot_entries) + 1

    def signature(self) -> List[tuple]:
        """Order-preserving tuple view of every placement.

        One tuple per entry, in placement order, carrying the full
        request identity plus its cell — two schedules are bit-identical
        iff their signatures are equal.  The benchmark's kernel
        equivalence check and the scheduling service's response hashing
        both compare through this form.
        """
        return [(e.slot, e.offset, r.flow_id, r.instance, r.hop_index,
                 r.attempt, r.sender, r.receiver, r.release_slot,
                 r.deadline_slot)
                for e in self._entries
                for r in (e.request,)]

    def canonical_hash(self) -> str:
        """SHA-256 over the canonical JSON form of this schedule.

        Covers dimensions and the full :meth:`signature`, so any change
        to any placement (or to placement *order*) changes the hash.
        Two processes that built the same schedule — service worker and
        direct library call, scalar and vector kernel — agree on it.
        Computed once per schedule state: ``add``/``force_add`` and
        ``evict`` clear the memo, ``clone`` carries it.
        """
        if self._hash is None:
            import hashlib
            import json

            canonical = json.dumps(
                {"num_nodes": self.num_nodes, "num_slots": self.num_slots,
                 "num_offsets": self.num_offsets,
                 "entries": self.signature()},
                separators=(",", ":"))
            self._hash = hashlib.sha256(
                canonical.encode("utf-8")).hexdigest()
        return self._hash

    def validate_basic(self) -> None:
        """Re-check structural invariants (used by tests).

        Verifies that no two transmissions in a slot share a node and that
        the busy matrix matches the entry list.

        Raises:
            AssertionError: If an invariant is violated.
        """
        busy_check = np.zeros_like(self._busy)
        for slot, indices in self._slot_entries.items():
            seen = set()
            for i in indices:
                entry = self._entries[i]
                nodes = {entry.request.sender, entry.request.receiver}
                assert not (nodes & seen), (
                    f"transmission conflict in slot {slot}")
                seen |= nodes
                busy_check[entry.request.sender, slot] = True
                busy_check[entry.request.receiver, slot] = True
        assert np.array_equal(busy_check, self._busy), "busy matrix mismatch"
        for (slot, offset), indices in self._cells.items():
            assert int(self._occ_count[slot, offset]) == len(indices), (
                f"occupancy count mismatch in cell ({slot},{offset})")
            for lane, i in enumerate(indices):
                entry = self._entries[i]
                assert (int(self._occ_senders[slot, offset, lane])
                        == entry.request.sender), "occupancy sender mismatch"
                assert (int(self._occ_receivers[slot, offset, lane])
                        == entry.request.receiver), "occupancy receiver mismatch"
