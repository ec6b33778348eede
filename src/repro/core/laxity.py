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

from typing import Sequence

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
    scalar kernel) calls this, and the fused descent's whole-window
    evaluation is tested against it.
    """
    window_slots = deadline_slot - slot
    if not remaining:
        return window_slots
    blocked = sum(
        conflict_slots_for(schedule, request, slot + 1, deadline_slot)
        for request in remaining)
    return window_slots - blocked - len(remaining)
