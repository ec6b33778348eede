"""Reference checks for the schedule store and the reuse constraints.

The library answers every placement question from the schedule's
bitset indexes (busy bits per node, used-offset masks per slot) and
its packed fast paths.  This module derives the same answers the slow
way: it unpacks the indexes into plain lists and arrays, and checks the
channel constraint one offset and one occupant at a time.  Nothing in
the library calls it; the tests compare the fast paths with it.
"""

from typing import List

import numpy as np

from repro.core.constraints import NO_REUSE, clear_of


# ----------------------------------------------------------------------
# Schedule indexes, unpacked
# ----------------------------------------------------------------------

def node_busy(schedule, node: int, slot: int) -> bool:
    """Whether a node transmits or receives in a slot (its busy bit)."""
    return bool(schedule._busy[node] >> slot & 1)


def busy_matrix(schedule) -> np.ndarray:
    """The ``(num_nodes, num_slots)`` busy matrix, unpacked from the
    schedule's busy bitsets into a fresh array."""
    return schedule._unpack(schedule._busy, 0, schedule.num_slots - 1)


def used_offsets(schedule, slot: int) -> List[int]:
    """Channel offsets with at least one transmission in a slot, read
    from the slot's used-offset mask."""
    mask = schedule._used_mask[slot]
    return [offset for offset in range(schedule.num_offsets)
            if mask >> offset & 1]


def free_offsets(schedule, slot: int) -> List[int]:
    """Channel offsets with no transmission in a slot."""
    mask = schedule._used_mask[slot]
    return [offset for offset in range(schedule.num_offsets)
            if not mask >> offset & 1]


def validate_basic(schedule) -> None:
    """Re-check structural invariants from the entry list.

    Verifies that no two transmissions in a slot share a node and that
    the busy bitsets match the entries.

    Raises:
        AssertionError: If an invariant is violated.
    """
    busy_check = np.zeros((schedule.num_nodes, schedule.num_slots),
                          dtype=bool)
    for slot, entries in schedule.entries_by_slot().items():
        seen = set()
        for entry in entries:
            nodes = {entry.request.sender, entry.request.receiver}
            assert not (nodes & seen), (
                f"transmission conflict in slot {slot}")
            seen |= nodes
            busy_check[entry.request.sender, slot] = True
            busy_check[entry.request.receiver, slot] = True
    assert np.array_equal(busy_check, busy_matrix(schedule)), (
        "busy matrix mismatch")


def violation_kinds(report) -> List[str]:
    """An audit report's distinct violation kinds, sorted."""
    return sorted({violation.kind for violation in report.violations})


# ----------------------------------------------------------------------
# Reuse constraints, one offset at a time
# ----------------------------------------------------------------------

def conflicts_in_slot(schedule, sender: int, receiver: int,
                      slot: int) -> bool:
    """Whether the link conflicts with any transmission in the slot."""
    return (node_busy(schedule, sender, slot)
            or node_busy(schedule, receiver, slot))


def offset_satisfies_channel_constraint(schedule, reuse_graph,
                                        sender: int, receiver: int,
                                        slot: int, offset: int,
                                        rho: float) -> bool:
    """Check the channel constraint for one candidate cell.

    ``rho`` may be ``math.inf`` (reuse disabled) or a finite hop count.
    An empty cell always satisfies the constraint.  Occupant endpoints
    come from the cell index, distances from the reuse graph's hop rows.
    """
    occupants = schedule.cell_indices(slot, offset)
    if not occupants:
        return True
    if rho == NO_REUSE:
        return False
    return clear_of(schedule.entries, reuse_graph.effective_hop_rows(),
                    occupants, sender, receiver, rho)


def feasible_offsets_scalar(schedule, reuse_graph, sender: int,
                            receiver: int, slot: int,
                            rho: float) -> List[int]:
    """All channel offsets satisfying the channel constraint in a slot.

    Assumes the transmission-conflict check for the slot already passed.
    Checks every offset, one occupant at a time: the oracle of the
    offset pick (:func:`repro.core.scheduler.pick_offset`) and of RC's
    walk (:func:`repro.core.constraints.max_admissible_rho`).
    """
    return [offset for offset in range(schedule.num_offsets)
            if offset_satisfies_channel_constraint(
                schedule, reuse_graph, sender, receiver, slot, offset, rho)]


def placement_is_valid(schedule, reuse_graph, sender: int, receiver: int,
                       slot: int, offset: int, rho: float) -> bool:
    """Full reuse-constraint check for a candidate placement."""
    if conflicts_in_slot(schedule, sender, receiver, slot):
        return False
    return offset_satisfies_channel_constraint(
        schedule, reuse_graph, sender, receiver, slot, offset, rho)
