"""Tests for repro.core.laxity (Equation 1)."""

import numpy as np
import pytest

from repro.core.laxity import (
    LaxityTable,
    calculate_laxity,
    conflict_slots_for,
    laxity_table,
)
from repro.core.schedule import Schedule
from repro.core.transmissions import RequestWindow, TransmissionRequest

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
    """
    rng = np.random.default_rng(seed)
    schedule = Schedule(NODES, SLOTS, 2)
    for slot in range(SLOTS):
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
                    if not schedule.node_busy(requests[j].sender, slot)
                    and not schedule.node_busy(requests[j].receiver, slot)]
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
        table = laxity_table(schedule, requests)
        assert table.shape == (4, 31)
        assert table[-1].tolist() == list(range(30, -1, -1))
        assert table[:, -1].tolist() == [-3, -2, -1, 0]
