"""The schedule's one entry store, checked against a brute-force model.

``Schedule`` keeps its entry list plus its indexes (per-node busy slot
bitsets, the cell index, per-slot used-offset masks and the full-slot
bitset); every other view is derived from them.  This module drives
random ``add``/``force_add``/``evict``/``clone`` sequences, and the
per-slot reuse distances RC's walk and provenance read, and after
every step compares each query with the answer a model built from
``entries`` alone gives.  The auditor must also find no bookkeeping
violation at every step.  The canonical hash, read from the per-entry
text the schedule caches, must equal SHA-256 of ``json.dumps`` over the
entries at each ``hash`` step the walk draws and at its end; between
them the cached text covers only part of the entry list, so adds,
evicts and clones also run on a partly hashed schedule.

The bitsets are Python ints, stored in 30-bit digits: the sequences run
on an 8-slot schedule (one digit) and on a 70-slot one, whose windows
cross the 30- and 64-bit boundaries and start after slot 0.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import max_admissible_rho
from repro.core.schedule import Schedule
from repro.core.transmissions import TransmissionRequest
from repro.network.graphs import INFINITE_DISTANCE, ChannelReuseGraph
from repro.obs.provenance import cell_reuse_distances
from repro.validate.audit import audit_schedule

from conftest import build_topology
from core_oracles import (busy_matrix, free_offsets, node_busy, used_offsets,
                          violation_kinds)
from test_schedule_memo import oracle_hash

NODES, SLOTS, OFFSETS = 7, 8, 3

#: A hyperperiod past the 30- and 64-bit digit boundaries.
WIDE_SLOTS = 70

#: Query windows per slot count: the whole hyperperiod, windows that
#: start after slot 0 (on and across digit boundaries), one slot, empty.
WINDOWS = {
    SLOTS: ((0, SLOTS - 1), (2, 5), (6, 6), (4, 3)),
    WIDE_SLOTS: ((0, WIDE_SLOTS - 1), (2, 5), (29, 31), (31, 66),
                 (59, 69), (64, 64), (40, 39)),
}

#: Index violations; the others (node conflicts from force_add, windows,
#: reuse distance) are what random placements legitimately produce.
BOOKKEEPING = {"bounds", "busy_matrix", "occupancy"}

#: A reuse graph with a weak shortcut and an isolated node (6), so the
#: reuse distances see finite and infinite hops alike.
GRAPH = ChannelReuseGraph.from_topology(build_topology(
    NODES, [(0, 1), (1, 2), (2, 3), (4, 5)], weak_links=[(3, 4)]))

links = st.tuples(st.integers(0, NODES - 1),
                  st.integers(0, NODES - 1)).filter(lambda l: l[0] != l[1])


def operations(slots):
    cells = st.tuples(st.integers(0, slots - 1),
                      st.integers(0, OFFSETS - 1))
    return st.lists(st.one_of(
        st.tuples(st.sampled_from(["add", "force_add"]), links, cells),
        st.tuples(st.just("evict"),
                  st.lists(st.integers(0, 40), max_size=4)),
        st.tuples(st.just("clone")),
        st.tuples(st.just("hash")),
        st.tuples(st.just("lanes"), links),
    ), min_size=1, max_size=40)


def model_cells(entries):
    """``{(slot, offset): [entries in placement order]}``, cell-sorted."""
    cells = {}
    for entry in entries:
        cells.setdefault((entry.slot, entry.offset), []).append(entry)
    return dict(sorted(cells.items()))


def model_busy(entries, node, slot):
    return any(entry.slot == slot and node in entry.request.link
               for entry in entries)


def assert_matches_model(schedule: Schedule) -> None:
    slots = schedule.num_slots
    entries = list(schedule.entries)
    cells = model_cells(entries)
    shared = [(s, c, txs) for (s, c), txs in cells.items() if len(txs) > 1]
    full = set(range(OFFSETS))
    busy = {(node, entry.slot) for entry in entries
            for node in entry.request.link}
    assert busy_matrix(schedule).tolist() == [
        [(node, slot) in busy for slot in range(slots)]
        for node in range(NODES)]
    for slot in range(slots):
        used = sorted({c for (s, c) in cells if s == slot})
        free = sorted(full - set(used))
        assert used_offsets(schedule, slot) == used
        assert free_offsets(schedule, slot) == free
        assert schedule.first_free_offset(slot) == (free[0] if free else -1)
        assert schedule.slot_transmissions(slot) == [
            e for e in entries if e.slot == slot]
        for offset in range(OFFSETS):
            occupants = cells.get((slot, offset), [])
            assert schedule.cell(slot, offset) == occupants
            assert schedule.cell_size(slot, offset) == len(occupants)
    assert list(schedule.occupied_cells()) == [
        (s, c, txs) for (s, c), txs in cells.items()]
    assert schedule.reused_cells() == shared
    assert [(s, c, [entries[i] for i in indices]) for s, c, indices
            in schedule.reused_cell_indices()] == shared
    assert schedule.num_reused_cells() == len(shared)
    assert schedule.reuse_links() == sorted(
        {e.request.link for _, _, txs in shared for e in txs})
    by_slot = {}
    for entry in entries:
        by_slot.setdefault(entry.slot, []).append(entry)
    assert schedule.entries_by_slot() == dict(sorted(by_slot.items()))
    assert list(schedule.entries_by_slot()) == sorted(by_slot)
    assert schedule.makespan() == max((e.slot + 1 for e in entries),
                                      default=0)
    probed = ((0, 1), (3, 4), (6, 2))
    for start, end in WINDOWS[slots]:
        window = range(start, end + 1)
        free_slots = [len({c for (s, c) in cells if s == slot}) < OFFSETS
                      for slot in window]
        assert schedule.free_offset_slots(start, end).tolist() == free_slots
        packed = 0
        for sender, receiver in probed:
            conflict = [(sender, slot) in busy or (receiver, slot) in busy
                        for slot in window]
            packed = packed << len(window) | sum(
                1 << i for i, c in enumerate(conflict) if c)
            assert schedule.conflict_mask(
                sender, receiver, start, end).tolist() == conflict
            assert schedule.conflict_count(
                sender, receiver, start, end) == sum(conflict)
            assert list(schedule.conflict_free_slots(
                sender, receiver, start, end)) == [
                    slot for slot, c in zip(window, conflict) if not c]
            assert schedule.first_conflict_free_slot(
                sender, receiver, start, end) == next(
                    (slot for slot, c in zip(window, conflict) if not c), -1)
            assert schedule.first_free_slot(
                sender, receiver, start, end) == next(
                    (slot for slot, f, c in zip(window, free_slots, conflict)
                     if f and not c), -1)
        # Eq. 1's packing: one block per link, the last link lowest.
        assert schedule.conflict_rows(probed, start, end) == packed
    report = audit_schedule(schedule, GRAPH, 1)
    assert not BOOKKEEPING & set(violation_kinds(report)), report.summary()


def model_lane(entries, slots, sender, receiver):
    """Min reuse distance of every cell for the link, from the entries."""
    hops = GRAPH.effective_hops()
    expected = np.full((slots, OFFSETS), INFINITE_DISTANCE, dtype=np.int32)
    for entry in entries:
        x, y = entry.request.link
        expected[entry.slot, entry.offset] = min(
            expected[entry.slot, entry.offset],
            hops[sender, y], hops[x, receiver])
    return expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(operations(SLOTS))
def test_store_answers_like_its_entries(ops):
    run_against_model(ops, SLOTS)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(operations(WIDE_SLOTS))
def test_store_answers_across_int_digits(ops):
    run_against_model(ops, WIDE_SLOTS)


@pytest.mark.parametrize("slot", [3, 29, 30, 63, 64, 69])
def test_evict_keeps_bits_owed_to_a_colliding_survivor(slot):
    """force_add lets two entries of one slot share a node; evicting
    one must leave the shared node busy for the survivor, at any bit
    position, and evicting both must clear the slot."""
    schedule = Schedule(NODES, WIDE_SLOTS, OFFSETS)
    first = TransmissionRequest(0, 0, 0, 0, 0, 1, 0, WIDE_SLOTS - 1)
    second = TransmissionRequest(1, 0, 0, 0, 1, 2, 0, WIDE_SLOTS - 1)
    third = TransmissionRequest(2, 0, 0, 0, 3, 4, 0, WIDE_SLOTS - 1)
    schedule.add(first, slot, 0)
    schedule.force_add(second, slot, 1)    # node 1 collides
    schedule.add(third, slot, 2)           # the slot is now full
    assert schedule.first_free_slot(5, 6, slot, slot) == -1
    schedule.evict([0])
    assert [node_busy(schedule, node, slot) for node in range(5)] == [
        False, True, True, True, True]
    assert used_offsets(schedule, slot) == [1, 2]
    assert schedule.first_free_slot(5, 6, slot, slot) == slot
    assert_matches_model(schedule)
    schedule.evict([0, 1])
    assert not busy_matrix(schedule).any()
    assert used_offsets(schedule, slot) == []
    assert_matches_model(schedule)


def run_against_model(ops, slots):
    schedule = Schedule(NODES, slots, OFFSETS)
    frozen = []    # (a schedule left behind by clone, its entries, hash)
    for step, op in enumerate(ops):
        kind = op[0]
        if kind in ("add", "force_add"):
            (sender, receiver), (slot, offset) = op[1], op[2]
            request = TransmissionRequest(step, 0, 0, 0, sender, receiver,
                                          0, slots - 1)
            before = (list(schedule.entries), schedule.version)
            conflict = (model_busy(before[0], sender, slot)
                        or model_busy(before[0], receiver, slot))
            if kind == "add" and conflict:
                try:
                    schedule.add(request, slot, offset)
                except ValueError:
                    pass
                else:
                    raise AssertionError("node conflict was accepted")
                assert (list(schedule.entries), schedule.version) == before
            else:
                getattr(schedule, kind)(request, slot, offset)
                assert schedule.entries[-1].request is request
                assert schedule.version == before[1] + 1
        elif kind == "evict":
            size = len(schedule)
            doomed = sorted({i % size for i in op[1]}) if size else []
            survivors = [e for i, e in enumerate(schedule.entries)
                         if i not in doomed]
            evicted = [schedule.entries[i] for i in doomed]
            assert schedule.evict(doomed) == evicted
            assert schedule.entries == survivors
        elif kind == "clone":
            frozen.append((schedule, list(schedule.entries),
                           oracle_hash(schedule)))
            schedule = schedule.clone()
        elif kind == "hash":
            assert schedule.canonical_hash() == oracle_hash(schedule)
        else:
            sender, receiver = op[1]
            expected = model_lane(schedule.entries, slots, sender, receiver)
            assert [max_admissible_rho(schedule, GRAPH, sender, receiver,
                                       slot)
                    for slot in range(slots)] == expected.max(
                        axis=1).tolist()
            for slot in range(slots):
                assert np.array_equal(
                    cell_reuse_distances(schedule, GRAPH, sender, receiver,
                                         slot)[0],
                    expected[slot])
        assert_matches_model(schedule)
    assert schedule.canonical_hash() == oracle_hash(schedule)
    for old, entries, digest in frozen:
        assert old.entries == entries
        assert old.canonical_hash() == digest
        assert_matches_model(old)
