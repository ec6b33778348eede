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


class LaxityTable:
    """One flow instance's Equation 1, packed at its first lookup.

    The fused RC descent reads laxity here instead of evaluating it per
    placement.  The first lookup packs the conflict bitsets of requests
    ``n-1, ..., 1`` over the window ``(release, deadline]`` into one int
    (:meth:`~repro.core.schedule.Schedule.conflict_rows`): a block of
    ``deadline - release`` bits per request, request ``n-1``'s lowest,
    so request ``j``'s ``T_post`` is the lowest ``n-1-j`` blocks.  A
    lookup at slot ``s`` keeps each of those blocks' bits after ``s``
    and counts them, which is Eq. 1's ``q`` sum: a few big-int
    operations, whatever the size of ``T_post`` or the window.  The
    packed bits stay exact for the rest of the instance, because

    * the engine places an instance's requests consecutively, so only
      this instance's requests change the busy bitsets meanwhile;
    * request ``j``'s candidate slots all lie after every slot that
      requests ``0..j-1`` took (precedence);
    * Eq. 1 at slot ``s`` reads only the slots ``(s, deadline]``.

    Attributes:
        requests: The instance's requests in precedence order.
    """

    __slots__ = ("requests", "_blocks", "_starts")

    def __init__(self, requests: Sequence[TransmissionRequest]):
        self.requests = requests
        self._blocks: Optional[int] = None

    def laxity(self, schedule: Schedule, position: int, slot: int) -> int:
        """Eq. 1 for ``requests[position]`` placed at ``slot``."""
        requests = self.requests
        release = requests[0].release_slot
        deadline = requests[0].deadline_slot
        width = deadline - release
        if self._blocks is None:
            self._blocks = schedule.conflict_rows(
                [(r.sender, r.receiver) for r in requests[1:]],
                release + 1, deadline)
            starts = 0
            for _ in range(len(requests) - 1):
                starts = starts << width | 1
            self._starts = starts
        # One bit at the start of each T_post block.  The mask keeps
        # bits k..width-1 of each block (k = slot - release): the slots
        # (slot, deadline].  It is the complement, within those blocks,
        # of the bits at or before the slot, (starts << k) - starts.
        starts = self._starts >> position * width
        kept = self._blocks & ((starts << width) - (starts << slot - release))
        return (deadline - slot - kept.bit_count()
                - (len(requests) - 1 - position))
