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

import numpy as np

from repro.core import kernel as _kernel
from repro.core.schedule import Schedule
from repro.core.transmissions import RequestWindow, TransmissionRequest


def conflict_slots_for(schedule: Schedule, request: TransmissionRequest,
                       start: int, end: int) -> int:
    """The paper's ``q_{start,end}^t``: busy slots for a transmission's link."""
    return schedule.conflict_count(request.sender, request.receiver, start, end)


def calculate_laxity_scalar(schedule: Schedule, slot: int,
                            deadline_slot: int,
                            remaining: Sequence[TransmissionRequest]) -> int:
    """Scalar kernel for :func:`calculate_laxity` (one ``q`` term per
    Python call; the reference the vectorized path is tested against)."""
    window_slots = deadline_slot - slot
    if not remaining:
        return window_slots
    blocked = sum(
        conflict_slots_for(schedule, request, slot + 1, deadline_slot)
        for request in remaining)
    return window_slots - blocked - len(remaining)


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

    The vectorized path gathers the busy-matrix rows of every remaining
    sender and receiver at once: Σ_t q^t is one OR and one popcount over
    a ``(|T_post|, window)`` block instead of ``|T_post|`` Python calls.
    RC evaluates this on every candidate placement, making it the second
    hot spot after the channel-constraint scan.
    """
    if not _kernel.vectorized(schedule):
        return calculate_laxity_scalar(schedule, slot, deadline_slot,
                                       remaining)
    window_slots = deadline_slot - slot
    if not remaining or slot + 1 > deadline_slot:
        return window_slots - len(remaining) if remaining else window_slots
    count = len(remaining)
    if isinstance(remaining, RequestWindow):
        senders = remaining.senders
        receivers = remaining.receivers
    else:
        senders = np.fromiter((r.sender for r in remaining),
                              dtype=np.intp, count=count)
        receivers = np.fromiter((r.receiver for r in remaining),
                                dtype=np.intp, count=count)
    busy = schedule.busy_matrix()
    window = busy[:, slot + 1:deadline_slot + 1]
    blocked = int(np.count_nonzero(window[senders] | window[receivers]))
    return window_slots - blocked - count
