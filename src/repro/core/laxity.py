"""Flow laxity (paper Section V-B, Equation 1).

Given a candidate slot ``s`` for transmission ``t_ij`` of flow ``F_i``
with absolute deadline slot ``d_i``, the laxity is

    (d_i − s) − Σ_{t ∈ T_post} q_{s+1,d_i}^t − |T_post|

where ``T_post`` is the set of F_i's transmissions that still need slots
after ``t_ij``, and ``q^t`` estimates how many slots in ``(s, d_i]`` are
already unusable for ``t`` because a scheduled transmission conflicts
with it (shares its sender or receiver).

A non-negative laxity means the window after ``s`` plausibly holds all
remaining transmissions; RC only accepts a placement without channel
reuse when this holds.  The estimate is deliberately conservative:
conflicting slots are summed per remaining transmission, so a slot
blocking two remaining transmissions counts twice.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.schedule import Schedule
from repro.core.transmissions import TransmissionRequest


def conflict_slots_for(schedule: Schedule, request: TransmissionRequest,
                       start: int, end: int) -> int:
    """The paper's ``q_{start,end}^t``: busy slots for a transmission's link."""
    return schedule.conflict_count(request.sender, request.receiver, start, end)


def calculate_laxity(schedule: Schedule, slot: int, deadline_slot: int,
                     remaining: Sequence[TransmissionRequest]) -> int:
    """Evaluate Equation 1 for a candidate placement.

    Args:
        schedule: The partial schedule (higher-priority transmissions and
            earlier transmissions of this flow already placed).
        slot: Candidate slot ``s`` for the current transmission.
        deadline_slot: Absolute deadline slot ``d_i`` (inclusive).
        remaining: ``T_post`` — the flow instance's transmissions after the
            current one, in precedence order.

    Returns:
        The laxity; ≥ 0 means the remaining transmissions are expected to
        fit before the deadline.

    One ``q`` term per remaining transmission: RC's stepwise loop (the
    oracle) calls this, and :class:`LaxityTable`, which the fused
    descent reads, is tested against it.
    """
    window_slots = deadline_slot - slot
    if not remaining:
        return window_slots
    blocked = sum(
        conflict_slots_for(schedule, request, slot + 1, deadline_slot)
        for request in remaining)
    return window_slots - blocked - len(remaining)


def laxity_table(schedule: Schedule,
                 requests: Sequence[TransmissionRequest]) -> np.ndarray:
    """Equation 1 for every request of one flow instance at every slot.

    ``table[j, x]`` equals ``calculate_laxity(schedule, release + x,
    deadline, requests[j + 1:])`` on the schedule as it is now, for
    ``x`` over the instance's window ``[release, deadline]``.  Its ``q``
    terms add up the (request, slot) conflicts strictly after row ``j``
    and strictly after slot ``release + x``: one two-axis suffix sum
    over the instance's conflict rows, unpacked from the schedule's
    busy bitsets for the instance's window.
    """
    first = requests[0]
    release, deadline = first.release_slot, first.deadline_slot
    # Requests n-1..1 and slots deadline..release+1, both reversed, so
    # running sums along both axes are the suffix sums Eq. 1 needs.
    later = requests[:0:-1]
    blocked = schedule.conflict_rows([(r.sender, r.receiver) for r in later],
                                     release + 1, deadline)[:, ::-1]
    sums = blocked.cumsum(axis=1)
    # An instance has few requests: adding rows in a loop beats a
    # cumsum along the strided axis.
    for row in range(1, len(sums)):
        sums[row] += sums[row - 1]
    table = (np.arange(deadline - release, -1, -1)
             - np.arange(len(requests) - 1, -1, -1)[:, None])
    table[:-1, :-1] -= sums[::-1, ::-1]
    return table


class LaxityTable:
    """One flow instance's Equation 1 table, built at its first lookup.

    The fused RC descent reads laxity here instead of evaluating it per
    placement.  The table is built from the busy bitsets at the first
    lookup and stays exact for the rest of the instance, because

    * the engine places an instance's requests consecutively, so only
      this instance's requests change the busy bitsets meanwhile;
    * request ``j``'s candidate slots all lie after every slot that
      requests ``0..j-1`` took (precedence);
    * Eq. 1 at slot ``s`` reads only the slots ``(s, deadline]``.

    Attributes:
        requests: The instance's requests in precedence order.
    """

    __slots__ = ("requests", "_table")

    def __init__(self, requests: Sequence[TransmissionRequest]):
        self.requests = requests
        self._table: Optional[np.ndarray] = None

    def laxity(self, schedule: Schedule, position: int, slot: int) -> int:
        """Eq. 1 for ``requests[position]`` placed at ``slot``."""
        if self._table is None:
            self._table = laxity_table(schedule, self.requests)
        return int(self._table[position,
                               slot - self.requests[0].release_slot])
