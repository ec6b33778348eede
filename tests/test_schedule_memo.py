"""Stale-memo guards for the schedule's hash and reuse queries.

``Schedule.canonical_hash()`` is computed once per schedule state and
the reuse queries read the cell index, so every mutation path must
leave both agreeing with a from-scratch computation over ``entries``.
The oracles are computed here, independently of the schedule: SHA-256
over the canonical JSON form, and a brute-force walk over the entries.
Each test primes the memo before mutating, so a path that forgets to
clear it fails.  The hash formats each entry's row once and keeps the
text beside the entries; an encoder-count test pins that a repaired
clone's hash formats only the re-placed entries.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core import schedule as schedule_mod
from repro.core.ra import DEFAULT_RHO_T
from repro.core.repair import (
    ChangeSet,
    ChannelChange,
    repair_schedule,
    smallest_reused_link,
)
from repro.core.schedule import Schedule
from repro.core.transmissions import TransmissionRequest
from repro.experiments.common import (
    build_workload,
    prepare_network,
    schedule_workload,
)
from repro.flows.generator import PeriodRange
from repro.io import schedule_from_dict, schedule_to_dict
from repro.routing.traffic import TrafficType


def oracle_hash(schedule: Schedule) -> str:
    """SHA-256 of the canonical JSON: dimensions, then one row per
    entry in placement order."""
    rows = [[e.slot, e.offset, e.request.flow_id, e.request.instance,
             e.request.hop_index, e.request.attempt, e.request.sender,
             e.request.receiver, e.request.release_slot,
             e.request.deadline_slot]
            for e in schedule.entries]
    canonical = json.dumps(
        {"num_nodes": schedule.num_nodes, "num_slots": schedule.num_slots,
         "num_offsets": schedule.num_offsets, "entries": rows},
        separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def assert_fresh(schedule: Schedule) -> None:
    """Hash and reuse queries equal their oracles over ``entries``."""
    assert schedule.canonical_hash() == oracle_hash(schedule)
    cells = {}
    for entry in schedule.entries:
        cells.setdefault((entry.slot, entry.offset), []).append(entry)
    shared = [(slot, offset, txs)
              for (slot, offset), txs in sorted(cells.items())
              if len(txs) > 1]
    assert schedule.reused_cells() == shared
    assert schedule.num_reused_cells() == len(shared)
    assert schedule.reuse_links() == sorted(
        {e.request.link for _, _, txs in shared for e in txs})


def request(sender, receiver, flow_id=0, hop=0):
    return TransmissionRequest(flow_id, 0, hop, 0, sender, receiver, 0, 99)


@pytest.fixture
def small():
    """Two shared cells and one lone transmission, memo primed."""
    schedule = Schedule(num_nodes=8, num_slots=6, num_offsets=2)
    schedule.add(request(0, 1, flow_id=0), 0, 0)
    schedule.add(request(2, 3, flow_id=1), 0, 0)
    schedule.add(request(4, 5, flow_id=2), 2, 1)
    schedule.add(request(6, 7, flow_id=3), 2, 1)
    schedule.add(request(1, 2, flow_id=0, hop=1), 3, 0)
    assert_fresh(schedule)
    return schedule


class TestMutationPaths:
    def test_add_clears_the_memo(self, small):
        before = small.canonical_hash()
        small.add(request(3, 4, flow_id=1, hop=1), 3, 0)
        assert small.canonical_hash() != before
        assert small.num_reused_cells() == 3
        assert_fresh(small)

    def test_force_add_clears_the_memo(self, small):
        before = small.canonical_hash()
        # Node 0 is already busy in slot 0: only force_add places it.
        small.force_add(request(0, 6, flow_id=4), 0, 1)
        assert small.canonical_hash() != before
        assert_fresh(small)

    def test_evict_clears_the_memo(self, small):
        before = small.canonical_hash()
        small.evict([1])
        assert small.canonical_hash() != before
        assert small.num_reused_cells() == 1
        assert_fresh(small)

    def test_evict_past_the_hashed_prefix(self, small):
        """Entries added since the last hash have no cached text yet:
        evicting them, or older ones around them, leaves the text a
        prefix of the survivors."""
        small.add(request(3, 4, flow_id=1, hop=1), 3, 0)
        small.add(request(5, 6, flow_id=2, hop=1), 4, 1)
        small.evict([1, 5])
        assert_fresh(small)
        small.add(request(2, 3, flow_id=1, hop=2), 5, 0)
        dup = small.clone()
        dup.evict([len(dup) - 1])
        assert_fresh(dup)
        assert_fresh(small)

    def test_empty_evict_keeps_the_state(self, small):
        before = small.canonical_hash()
        assert small.evict([]) == []
        assert small.canonical_hash() == before
        assert_fresh(small)

    def test_clone_carries_then_diverges(self, small):
        original = small.canonical_hash()
        dup = small.clone()
        assert dup.canonical_hash() == original
        dup.add(request(3, 4, flow_id=1, hop=1), 3, 0)
        assert_fresh(dup)
        dup.evict([0, 2])
        assert_fresh(dup)
        assert dup.canonical_hash() != original
        assert small.canonical_hash() == original
        assert_fresh(small)

    def test_clone_and_original_grow_apart(self, small):
        """A clone and its original each keep their own entry text:
        rows the clone formats never become the original's, nor the
        reverse."""
        dup = small.clone()
        dup.add(request(3, 4, flow_id=1, hop=1), 3, 0)
        assert_fresh(dup)
        small.add(request(5, 6, flow_id=2, hop=1), 4, 1)
        assert_fresh(small)
        dup.add(request(0, 1, flow_id=4), 5, 1)
        assert_fresh(dup)
        assert_fresh(small)

    def test_hash_is_computed_once_per_state(self, rc_case, monkeypatch):
        """Each entry's row text is formatted once: hashing a compile
        formats every entry, hashing it again or hashing its clone
        formats none, and hashing a repaired clone formats only the
        entries repair re-placed."""
        network, flow_set, _ = rc_case
        formatted = []
        encode = schedule_mod._entry_text

        def counted(entries):
            formatted.append(list(entries))
            return encode(entries)

        monkeypatch.setattr(schedule_mod, "_entry_text", counted)
        compiled = schedule_workload(network, flow_set, "RC").schedule
        compiled.canonical_hash()
        assert formatted == [compiled.entries]
        formatted.clear()
        compiled.canonical_hash()
        compiled.clone().canonical_hash()
        outcome = repair_schedule(
            compiled, flow_set, network.reuse,
            ChangeSet(victims=(smallest_reused_link(compiled),)),
            rho_t=DEFAULT_RHO_T)
        assert outcome.schedulable and outcome.evicted > 0
        assert sum(map(len, formatted)) == 0
        assert outcome.schedule.canonical_hash() == oracle_hash(
            outcome.schedule)
        survivors = len(compiled) - outcome.evicted
        assert formatted == [outcome.schedule.entries[survivors:]]
        assert len(formatted[0]) == outcome.evicted


class TestRoundTrip:
    def test_strict_load(self, small):
        loaded = schedule_from_dict(schedule_to_dict(small))
        assert loaded.canonical_hash() == small.canonical_hash()
        assert_fresh(loaded)


@pytest.fixture(scope="module")
def rc_case(indriya):
    """(network, flow_set, RC result) for 30 Indriya flows, with the
    input schedule's hash already memoized."""
    topology, _ = indriya
    network = prepare_network(topology, num_channels=5)
    flow_set = build_workload(network, 30, PeriodRange(0, 4),
                              TrafficType.CENTRALIZED,
                              np.random.default_rng(1))
    result = schedule_workload(network, flow_set, "RC")
    assert result.schedulable and result.schedule.num_reused_cells() > 0
    assert_fresh(result.schedule)
    return network, flow_set, result


class TestRepairProducts:
    def check(self, result, outcome):
        assert outcome.schedulable
        assert_fresh(outcome.schedule)
        assert outcome.schedule.canonical_hash() != \
            result.schedule.canonical_hash()
        assert_fresh(result.schedule)

    def test_victim_repair(self, rc_case):
        network, flow_set, result = rc_case
        victim = smallest_reused_link(result.schedule)
        self.check(result, repair_schedule(
            result.schedule, flow_set, network.reuse,
            ChangeSet(victims=(victim,)), rho_t=DEFAULT_RHO_T))

    def test_rho_escalation_repair(self, rc_case):
        network, flow_set, result = rc_case
        escalated = DEFAULT_RHO_T + 1
        self.check(result, repair_schedule(
            result.schedule, flow_set, network.reuse,
            ChangeSet(rho_t=escalated), rho_t=escalated))

    def test_channel_remap_repair(self, rc_case, indriya):
        network, flow_set, result = rc_case
        topology, _ = indriya
        narrowed = prepare_network(topology, num_channels=4)
        self.check(result, repair_schedule(
            result.schedule, flow_set, network.reuse,
            ChangeSet(channel=ChannelChange(
                reuse_graph=narrowed.reuse, num_offsets=4,
                offset_map=(0, 1, 2, 3, None))),
            rho_t=DEFAULT_RHO_T))


class TestSmallestReusedLink:
    def test_exclude_skips_either_direction(self, small):
        assert smallest_reused_link(small) == (0, 1)
        assert smallest_reused_link(small, exclude=[(1, 0)]) == (2, 3)
        assert smallest_reused_link(
            small, exclude=[(0, 1), (2, 3), (4, 5), (7, 6)]) is None
