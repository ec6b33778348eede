"""Distance lanes: the accelerator behind RC's fused descent.

The paper's Section V-A channel constraint asks, for a candidate
transmission ``(u, v)`` and a cell ``(s, c)`` holding occupants
``{(x_k, y_k)}``: is every ``hops[u, y_k]`` and every ``hops[x_k, v]``
at least ρ?  The scalar scan in :mod:`repro.core.constraints` answers
that one slot, one offset, one occupant at a time; it is ``find_slot``'s
only finite-ρ path.  This module answers it for *all* offsets of *all*
candidate slots from the schedule's entry list and the reuse graph's
precomputed hop matrix.

The central quantity is the **min-reuse-distance** of a cell for a
candidate ``(u, v)``::

    dist[s, c] = min over occupants (x, y) of min(hops[u, y], hops[x, v])

with :data:`INFINITE_DISTANCE` for empty cells and unreachable pairs.
A cell satisfies the channel constraint at hop count ρ iff
``dist[s, c] >= rho`` — so one distance array answers the constraint
for *every* finite ρ by re-thresholding.  That is what Algorithm 1
needs, and only Algorithm 1: RC re-tests one request at descending ρ
against the same array (:meth:`repro.core.rc.ConservativeReusePolicy
._descend_fused`).  NR never asks a finite-ρ question and RA asks once
per request, so both run the scalar scan.

Workloads reuse links heavily — every retransmission attempt, every
release instance, and every route sharing a hop asks about the same
``(u, v)`` — so the distance arrays are maintained *incrementally* per
distinct link (:class:`_LinkDistanceState`): adding an occupant
``(x, y)`` to cell ``(s, c)`` lowers ``dist[s, c]`` of every tracked
link by one vectorized minimum, and queries return zero-copy views.
``best[s] = max_c dist[s, c]`` rides along so "does *any* offset of
slot ``s`` admit ρ?" is a single comparison.

The lanes are built on first use.  RC asks finite-ρ questions only once
laxity turns negative, late in a run or never, so a schedule carries no
lanes until its first finite-ρ query.  That query registers, in one
pass over the entry list, every link the run can still ask about:
the engine names them at each flow start (:func:`plan_links`, the links
of that flow and of every later one).  A link outside the plan (a
direct query) registers itself through the same routine.  Lanes belong
to the schedule RC compiled: ``Schedule.clone`` does not copy them and
``Schedule.evict`` drops them, so repairs run the scalar scan on a
schedule without lanes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.schedule import Schedule
    from repro.network.graphs import ChannelReuseGraph

#: Sentinel hop distance meaning "no constraint": empty cells and
#: unreachable node pairs.  Large enough to exceed any real hop count,
#: small enough that int32 arithmetic cannot overflow.
INFINITE_DISTANCE = np.int32(2 ** 30)


class _LinkDistanceState:
    """Per-schedule incremental distance stacks, one lane per link.

    Attributes (``count`` lanes are live):
        hops: The reuse graph's effective hop matrix (int32, unreachable
            mapped to :data:`INFINITE_DISTANCE`).
        index: ``(sender, receiver) -> lane``.
        senders / receivers: Per-lane link endpoints, for the vectorized
            all-lanes update on :meth:`repro.core.schedule.Schedule.add`.
        dist: ``(num_slots, num_offsets, lanes)`` min-reuse distances.
            Lanes-last keeps the per-``add`` touched block — one cell
            across all links — contiguous; queries slice one strided
            lane, which is the cheaper side to penalize.
        best: ``(num_slots, lanes)`` per-slot maxima of ``dist`` over
            offsets — the most permissive offset of each slot.
    """

    __slots__ = ("graph", "hops", "index", "senders", "receivers",
                 "dist", "best", "count", "candidates")

    def __init__(self, schedule: "Schedule",
                 reuse_graph: "ChannelReuseGraph", lanes: int):
        self.graph = reuse_graph
        self.hops = reuse_graph.effective_hops()
        self.index: dict = {}
        self.senders = np.zeros(lanes, dtype=np.intp)
        self.receivers = np.zeros(lanes, dtype=np.intp)
        self.dist = np.full(
            (schedule.num_slots, schedule.num_offsets, lanes),
            INFINITE_DISTANCE, dtype=np.int32)
        self.best = np.full((schedule.num_slots, lanes),
                            INFINITE_DISTANCE, dtype=np.int32)
        self.count = 0
        # Occupants repeat (retransmissions, releases, shared route
        # hops): cache each occupant link's all-lanes candidate vector.
        # Keyed vectors are count-length; adding a lane invalidates.
        self.candidates: dict = {}

    def _grow(self, needed: int) -> None:
        lanes = max(needed, 2 * self.dist.shape[2])
        for name in ("senders", "receivers"):
            old = getattr(self, name)
            new = np.zeros(lanes, dtype=old.dtype)
            new[:old.shape[0]] = old
            setattr(self, name, new)
        for name in ("dist", "best"):
            old = getattr(self, name)
            new = np.full(old.shape[:-1] + (lanes,), INFINITE_DISTANCE,
                          dtype=np.int32)
            new[..., :old.shape[-1]] = old
            setattr(self, name, new)

    def register(self, schedule: "Schedule", links) -> None:
        """Start tracking new links: one pass over the entry list.

        An occupied cell's distance to a new lane ``(u, v)`` is the
        minimum over its occupants ``(x_k, y_k)`` of ``min(hops[u, y_k],
        hops[x_k, v])``; empty cells keep :data:`INFINITE_DISTANCE`, as
        every lane past ``count`` does.
        """
        first = self.count
        end = first + len(links)
        if end > self.dist.shape[2]:
            self._grow(end)
        for lane, link in enumerate(links, first):
            self.senders[lane], self.receivers[lane] = link
            self.index[link] = lane
        self.count = end
        self.candidates.clear()
        entries = schedule.entries
        if not entries:
            return
        columns = np.fromiter(
            (value for e in entries for value in
             (e.slot, e.offset, e.request.sender, e.request.receiver)),
            dtype=np.intp, count=4 * len(entries))
        slots, offsets, xs, ys = columns.reshape(-1, 4).T
        # Node-by-new-lane tables, so that the occupants cost two row
        # gathers: to_y[y, l] = hops[u_l, y], from_x[x, l] = hops[x, v_l].
        to_y = np.ascontiguousarray(self.hops[self.senders[first:end]].T)
        from_x = self.hops[:, self.receivers[first:end]]
        occupant = to_y[ys]
        np.minimum(occupant, from_x[xs], out=occupant)
        lanes = self.dist[:, :, first:end]
        np.minimum.at(lanes, (slots, offsets), occupant)
        lanes.max(axis=1, out=self.best[:, first:end])

    def occupant_candidates(self, x: int, y: int) -> np.ndarray:
        """Per-lane distance bound a new occupant ``(x, y)`` imposes:
        ``min(hops[u, y], hops[x, v])`` for every tracked ``(u, v)``."""
        cached = self.candidates.get((x, y))
        if cached is None:
            n = self.count
            cached = np.minimum(self.hops[self.senders[:n], y],
                                self.hops[x, self.receivers[:n]])
            self.candidates[(x, y)] = cached
        return cached


def plan_links(schedule: "Schedule", link_lists) -> None:
    """Name the links a run can still ask about, one list per flow.

    The engine calls this at every flow start with the links of that
    flow and of every later one (flows are placed in priority order);
    the schedule's first finite-ρ query registers their distinct links
    in one pass (:func:`_link_row`).
    """
    schedule._link_plan = link_lists


def _link_row(schedule: "Schedule", reuse_graph: "ChannelReuseGraph",
              sender: int, receiver: int) -> tuple:
    """The schedule's distance state and the lane tracking a link.

    The first query builds the state for the planned links plus the
    queried one; a link the state lacks registers itself.
    """
    link = (sender, receiver)
    state = schedule._link_state
    if state is None or state.graph is not reuse_graph:
        links = dict.fromkeys(planned for flow_links in schedule._link_plan
                              for planned in flow_links)
        links[link] = None
        state = _LinkDistanceState(schedule, reuse_graph, len(links))
        state.register(schedule, list(links))
        schedule._link_state = state
    lane = state.index.get(link)
    if lane is None:
        state.register(schedule, [link])
        lane = state.count - 1
    return state, lane


def min_reuse_distance(schedule: "Schedule",
                       reuse_graph: "ChannelReuseGraph",
                       sender: int, receiver: int,
                       start: int, end: int) -> np.ndarray:
    """Min-reuse-distance array for slots ``[start, end]`` × all offsets.

    ``result[i, c]`` is the smallest reuse-graph distance the candidate
    ``(sender, receiver)`` would have to any occupant of cell
    ``(start + i, c)`` — :data:`INFINITE_DISTANCE` when the cell is
    empty.  The channel constraint at hop count ρ holds iff
    ``result[i, c] >= rho``.

    Returns a live read-only view of the link's incrementally-maintained
    distance row: O(1) after the link's first query, and it stays
    current across subsequent placements.  Callers must not mutate it
    (nor hold it across mutations expecting a snapshot).
    """
    state, lane = _link_row(schedule, reuse_graph, sender, receiver)
    return state.dist[start:end + 1, :, lane]


def best_reuse_distance(schedule: "Schedule",
                        reuse_graph: "ChannelReuseGraph",
                        sender: int, receiver: int,
                        start: int, end: int) -> np.ndarray:
    """Per-slot best (max over offsets) min-reuse distance over a window.

    Slot ``start + i`` has an offset satisfying the channel constraint
    at ρ iff ``result[i] >= rho``.  Same view semantics as
    :func:`min_reuse_distance`.
    """
    state, lane = _link_row(schedule, reuse_graph, sender, receiver)
    return state.best[start:end + 1, lane]


def cell_distances(schedule: "Schedule", reuse_graph: "ChannelReuseGraph",
                   sender: int, receiver: int, slot: int,
                   ) -> tuple:
    """Per-offset min reuse distance of one slot, with the blocker lane.

    ``dist[c]`` is the smallest ``min(hops[sender, y], hops[x, receiver])``
    over the occupants ``(x, y)`` of cell ``(slot, c)`` —
    :data:`INFINITE_DISTANCE` for empty cells — and ``lane[c]`` is the
    position in ``schedule.cell(slot, c)`` of the first minimizing
    occupant, i.e. the transmission to *name* when explaining why the
    channel constraint rejected offset ``c`` (see
    :mod:`repro.obs.provenance`).

    Unlike :func:`min_reuse_distance` this does not touch the
    incremental link-state lanes: it recomputes from the slot's cells
    and the hop matrix, so the answer is the same whether or not the
    schedule carries lanes, and it never builds or perturbs them.
    Provenance and ``repro explain`` are the intended callers; RC's
    fused descent uses the incremental views above.
    """
    hops = reuse_graph.effective_hops()
    dist = np.full(schedule.num_offsets, INFINITE_DISTANCE, dtype=np.int32)
    lanes = np.zeros(schedule.num_offsets, dtype=np.intp)
    for offset in range(schedule.num_offsets):
        occupants = schedule.cell(slot, offset)
        if occupants:
            pair = [min(hops[sender, e.request.receiver],
                        hops[e.request.sender, receiver])
                    for e in occupants]
            lane = int(np.argmin(pair))
            dist[offset], lanes[offset] = pair[lane], lane
    return dist, lanes
