"""Tests for repro.core.laxity (Equation 1)."""

import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.laxity import (
    LaxityTable,
    calculate_laxity,
    conflict_slots_for,
)
from repro.core.schedule import Schedule
from repro.core.transmissions import RequestWindow, TransmissionRequest

from core_oracles import node_busy
from test_core_schedule import request


class TestLaxity:
    def test_no_remaining_transmissions(self):
        """With T_post empty the laxity is just the remaining window."""
        schedule = Schedule(6, 100, 2)
        assert calculate_laxity(schedule, slot=10, deadline_slot=50,
                                remaining=[]) == 40

    def test_empty_schedule(self):
        """d - s - 0 - |T_post| on an empty schedule."""
        schedule = Schedule(6, 100, 2)
        remaining = [request(1, 2), request(2, 3)]
        assert calculate_laxity(schedule, 10, 50, remaining) == 40 - 0 - 2

    def test_conflicting_slots_subtracted(self):
        schedule = Schedule(6, 100, 2)
        # Busy slots for node 1 or 2 inside (10, 50]: slots 20 and 30.
        schedule.add(request(1, 4), 20, 0)
        schedule.add(request(2, 5), 30, 0)
        remaining = [request(1, 2)]
        assert calculate_laxity(schedule, 10, 50, remaining) == 40 - 2 - 1

    def test_conflicts_outside_window_ignored(self):
        schedule = Schedule(6, 100, 2)
        schedule.add(request(1, 4), 5, 0)    # before the window
        schedule.add(request(1, 5), 60, 0)   # after the deadline
        remaining = [request(1, 2)]
        assert calculate_laxity(schedule, 10, 50, remaining) == 40 - 0 - 1

    def test_per_transmission_sum_double_counts(self):
        """The paper's estimate sums q per remaining transmission, so one
        busy slot blocking two remaining transmissions counts twice —
        deliberately conservative."""
        schedule = Schedule(6, 100, 2)
        schedule.add(request(1, 2), 20, 0)  # conflicts with both below
        remaining = [request(1, 4), request(2, 5)]
        assert calculate_laxity(schedule, 10, 50, remaining) == 40 - 2 - 2

    def test_negative_laxity(self):
        schedule = Schedule(6, 100, 2)
        remaining = [request(1, 2)] * 5
        assert calculate_laxity(schedule, 46, 50, remaining) == 4 - 0 - 5

    def test_zero_laxity_boundary(self):
        schedule = Schedule(6, 100, 2)
        remaining = [request(1, 2), request(2, 3)]
        assert calculate_laxity(schedule, 48, 50, remaining) == 0

    def test_conflict_slots_for(self):
        schedule = Schedule(6, 100, 2)
        schedule.add(request(1, 4), 20, 0)
        schedule.add(request(3, 5), 25, 0)
        assert conflict_slots_for(schedule, request(1, 3), 0, 99) == 2
        assert conflict_slots_for(schedule, request(0, 2), 0, 99) == 0

    def test_same_slot_conflict_counted_once_per_transmission(self):
        """Two transmissions in one slot both touching t's nodes still
        make just one unusable slot for t."""
        schedule = Schedule(8, 100, 4)
        schedule.add(request(1, 6), 20, 0)
        schedule.add(request(2, 7), 20, 1)
        remaining = [request(1, 2)]
        assert calculate_laxity(schedule, 10, 50, remaining) == 40 - 1 - 1


NODES = 8
SLOTS = 48


def _instance(seed, num_requests, release, deadline):
    """A seeded partial schedule and one flow instance to place on it.

    Other flows occupy random node-disjoint transmissions in about half
    the slots; the instance walks a random route, two attempts per hop.
    The hyperperiod is ``SLOTS`` unless the deadline needs more.
    """
    rng = np.random.default_rng(seed)
    slots = max(SLOTS, deadline + 1)
    schedule = Schedule(NODES, slots, 2)
    for slot in range(slots):
        if rng.random() < 0.5:
            sender, receiver = rng.choice(NODES, size=2, replace=False)
            schedule.add(request(int(sender), int(receiver), flow_id=9),
                         slot, 0)
    route = [int(node) for node in rng.choice(NODES, size=NODES,
                                              replace=False)]
    requests = [TransmissionRequest(1, 0, j // 2, j % 2, route[j // 2],
                                    route[j // 2 + 1], release, deadline)
                for j in range(num_requests)]
    return rng, schedule, requests


class TestLaxityTable:
    """The fused descent's per-instance table against its oracle."""

    @pytest.mark.parametrize("seed,num_requests,release,deadline,built_at", [
        (0, 6, 4, 40, 0),
        (1, 8, 0, 47, 0),
        (2, 6, 10, 30, 2),     # first lookup at a later request
        (3, 5, 6, 20, 4),      # first lookup at the last request
        (4, 1, 12, 12, 0),     # one request, one-slot window
        (5, 3, 12, 12, 0),     # three requests, one-slot window
        (6, 8, 5, 90, 0),      # an 86-slot window across the 30- and
                               # 64-bit bitset boundaries
        (7, 6, 66, 99, 1),     # a window wholly past bit 64
    ])
    def test_lookups_match_calculate_laxity(self, seed, num_requests,
                                            release, deadline, built_at):
        """Place the instance request by request.  Before each placement
        every slot of the request's window [earliest_j, deadline] looks
        up what ``calculate_laxity`` gives on the live schedule, also
        after requests 0..j-1 were added since the table was built —
        the exactness argument of :class:`LaxityTable`."""
        rng, schedule, requests = _instance(seed, num_requests, release,
                                            deadline)
        table = LaxityTable(requests)
        earliest = release
        checked = 0
        for j in range(num_requests):
            window = RequestWindow(table, j + 1)
            if j >= built_at:
                for slot in range(earliest, deadline + 1):
                    assert window.laxity(schedule, slot) == calculate_laxity(
                        schedule, slot, deadline, requests[j + 1:]), (j, slot)
                    checked += 1
            free = [slot for slot in range(earliest, deadline + 1)
                    if not node_busy(schedule, requests[j].sender, slot)
                    and not node_busy(schedule, requests[j].receiver, slot)]
            if not free:
                break
            slot = int(rng.choice(free[:4]))
            schedule.add(requests[j], slot, 1)
            earliest = slot + 1
        assert checked > 0

    def test_last_request_and_deadline_entries(self):
        """The last request has an empty T_post (laxity d - s), and at
        s = d the window is empty (laxity -|T_post|)."""
        _, schedule, requests = _instance(7, 4, 0, 30)
        table = LaxityTable(requests)
        assert [table.laxity(schedule, 3, slot)
                for slot in range(31)] == list(range(30, -1, -1))
        assert [table.laxity(schedule, j, 30)
                for j in range(4)] == [-3, -2, -1, 0]


#: Nodes of the wide-window walks: routes may revisit a node, so up to
#: 16 hops fit, and random background pairs keep every node busy often.
WIDE_NODES = 10


@settings(max_examples=100, deadline=None, derandomize=True)
@given(release=st.integers(65, 130), width=st.integers(0, 800),
       hops=st.integers(1, 16), attempts=st.sampled_from([1, 2]),
       load=st.integers(1, 3), first=st.integers(0, 15),
       seed=st.integers(0, 2 ** 32 - 1))
def test_packed_lookups_match_calculate_laxity(release, width, hops,
                                               attempts, load, first, seed):
    """Lookups against ``calculate_laxity`` on windows of up to ~800
    slots that start past bit 64.  Other flows send in up to ``load``
    node-disjoint transmissions per slot, also before the release and
    after the deadline.  The instance has 1-16 requests; its first
    lookup comes at any position, and before each placement the request
    is looked up at a slot, at earlier slots (the ρ descent finding
    slots earlier), and again at a later slot (the reuse barrier's
    retry from the next slot)."""
    rng = random.Random(seed)
    hops = min(hops, 16 // attempts)
    deadline = release + width
    slots = deadline + 1 + rng.randrange(40)
    schedule = Schedule(WIDE_NODES, slots, 2)
    for slot in range(slots):
        nodes = rng.sample(range(WIDE_NODES), 2 * rng.randint(0, load))
        for sender, receiver in zip(nodes[::2], nodes[1::2]):
            schedule.add(request(sender, receiver, flow_id=9), slot, 0)
    route = [rng.randrange(WIDE_NODES)]
    while len(route) <= hops:
        route.append(rng.choice([node for node in range(WIDE_NODES)
                                 if node != route[-1]]))
    requests = [TransmissionRequest(1, 0, j // attempts, j % attempts,
                                    route[j // attempts],
                                    route[j // attempts + 1], release,
                                    deadline)
                for j in range(hops * attempts)]
    first = min(first, len(requests) - 1)
    table = LaxityTable(requests)
    earliest = release
    for j, current in enumerate(requests):
        if earliest > deadline:
            break
        window = RequestWindow(table, j + 1)
        if j >= first:
            found = rng.randint(earliest, deadline)
            looked = [found] + [rng.randint(earliest, found)
                                for _ in range(rng.randint(0, 2))]
            if found < deadline:
                looked.append(rng.randint(found + 1, deadline))
            for slot in looked:
                assert window.laxity(schedule, slot) == calculate_laxity(
                    schedule, slot, deadline, requests[j + 1:]), (j, slot)
        free = list(islice(schedule.conflict_free_slots(
            current.sender, current.receiver, earliest, deadline), 4))
        if not free:
            break
        slot = rng.choice(free)
        schedule.add(current, slot, 1)
        earliest = slot + 1
