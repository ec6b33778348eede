"""Channel reuse constraints (paper Section V-A).

A transmission ``t = (u, v)`` may occupy slot ``s`` and channel offset
``c`` iff:

1. *Transmission conflict*: ``t`` shares no node with any transmission
   already in slot ``s`` (half-duplex radios perform one operation per
   slot).
2. *Channel constraint*:
   a. ``ρ = ∞`` (no reuse): offset ``c`` must be empty in slot ``s``.
   b. ``ρ < ∞``: for every ``(x, y)`` already in cell ``(s, c)``, the new
      sender ``u`` must be at least ρ reuse-graph hops from the existing
      receiver ``y``, and the existing sender ``x`` at least ρ hops from
      the new receiver ``v``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.core.schedule import Schedule
from repro.network.graphs import INFINITE_DISTANCE, ChannelReuseGraph

#: Convenience alias: "channel reuse disabled".
NO_REUSE = math.inf


def clear_of(entries, hops: List[List[int]], occupants: Sequence[int],
             sender: int, receiver: int, rho: float) -> bool:
    """Whether ``(sender, receiver)`` keeps ρ hops from every occupant
    ``(x, y)``: ``hops[sender][y]`` and ``hops[x][receiver]`` both at
    least ρ, unreachable pairs counting as infinitely far."""
    to_receivers = hops[sender]
    for index in occupants:
        request = entries[index].request
        if (to_receivers[request.receiver] < rho
                or hops[request.sender][receiver] < rho):
            return False
    return True


def first_feasible_offset(schedule: Schedule,
                          reuse_graph: ChannelReuseGraph,
                          sender: int, receiver: int, slot: int,
                          rho: float) -> int:
    """The lowest offset of a slot whose occupants all keep ρ hops from
    the link, or -1: the ``"first"`` offset rule's pick, checking no
    offset past it.

    Every offset below the slot's first free one is occupied, so only
    those need the occupant check; the free one satisfies any ρ.
    """
    free = schedule.first_free_offset(slot)
    entries = schedule.entries
    hops = reuse_graph.effective_hop_rows()
    for offset in range(free if free >= 0 else schedule.num_offsets):
        if clear_of(entries, hops, schedule.cell_indices(slot, offset),
                    sender, receiver, rho):
            return offset
    return free


def max_admissible_rho(schedule: Schedule,
                       reuse_graph: ChannelReuseGraph,
                       sender: int, receiver: int, slot: int,
                       floor: int = 0) -> int:
    """The largest ρ at which some offset of a slot admits the link.

    :data:`~repro.network.graphs.INFINITE_DISTANCE` when the slot has a
    free offset; otherwise the maximum over offsets of the minimum of
    ``hops[sender][y]`` and ``hops[x][receiver]`` over the cell's
    occupants ``(x, y)``.  The channel constraint holds at a finite ρ
    in some offset of the slot iff the result is at least ρ.

    ``floor`` is a caller's running maximum: an offset stops at its
    first occupant within it, so a slot whose value does not exceed
    ``floor`` reads ``floor``.  RC's fused descent walks a window's
    conflict-free slots this way and keeps only the slots that raise
    the maximum.
    """
    entries = schedule.entries
    cell_indices = schedule.cell_indices
    hops = reuse_graph.effective_hop_rows()
    to_receivers = hops[sender]
    best = floor
    for offset in range(schedule.num_offsets):
        nearest = INFINITE_DISTANCE
        for index in cell_indices(slot, offset):
            request = entries[index].request
            forward = to_receivers[request.receiver]
            backward = hops[request.sender][receiver]
            if forward <= best or backward <= best:
                break
            nearest = min(nearest, forward, backward)
        else:
            if nearest == INFINITE_DISTANCE:
                return nearest    # a free offset: nothing can exceed it
            best = nearest
    return best


def validate_schedule(schedule: Schedule, reuse_graph: ChannelReuseGraph,
                      rho_t: float) -> Optional[str]:
    """Audit a finished schedule against the reuse constraints.

    Every shared cell must keep all its sender→other-receiver distances at
    or above ``rho_t`` (the weakest constraint RC/RA may have used).

    Returns:
        None if the schedule is valid, else a description of the first
        violation found.
    """
    for slot, offset, transmissions in schedule.occupied_cells():
        for i, first in enumerate(transmissions):
            for second in transmissions[i + 1:]:
                u, v = first.request.sender, first.request.receiver
                x, y = second.request.sender, second.request.receiver
                if {u, v} & {x, y}:
                    return (f"cell ({slot},{offset}): node shared between "
                            f"{first.request} and {second.request}")
                if not reuse_graph.at_least_hops_apart(u, y, rho_t):
                    return (f"cell ({slot},{offset}): {u}->{y} closer than "
                            f"rho_t={rho_t}")
                if not reuse_graph.at_least_hops_apart(x, v, rho_t):
                    return (f"cell ({slot},{offset}): {x}->{v} closer than "
                            f"rho_t={rho_t}")
    return None
