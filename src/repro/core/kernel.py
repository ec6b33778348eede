"""Vectorized placement kernel (channel-constraint evaluation).

The paper's Section V-A channel constraint asks, for a candidate
transmission ``(u, v)`` and a cell ``(s, c)`` holding occupants
``{(x_k, y_k)}``: is every ``hops[u, y_k]`` and every ``hops[x_k, v]``
at least ρ?  The scalar reference implementation in
:mod:`repro.core.constraints` answers that one slot, one offset, one
occupant at a time; this module answers it for *all* offsets of *all*
candidate slots in a handful of NumPy operations against the schedule's
incremental occupancy arrays (see :meth:`repro.core.schedule.Schedule
.occupancy`) and the reuse graph's precomputed hop matrix.

The central quantity is the **min-reuse-distance** of a cell for a
candidate ``(u, v)``::

    dist[s, c] = min over occupants (x, y) of min(hops[u, y], hops[x, v])

with :data:`INFINITE_DISTANCE` for empty cells and unreachable pairs.
A cell satisfies the channel constraint at hop count ρ iff
``dist[s, c] >= rho`` — so one distance array answers the constraint
for *every* finite ρ by re-thresholding.  RC exploits exactly that: its
Algorithm-1 loop retries the same request at descending ρ against the
same array.

Workloads reuse links heavily — every retransmission attempt, every
release instance, and every route sharing a hop asks about the same
``(u, v)`` — so the kernel maintains the distance arrays *incrementally*
per distinct link on the schedule (:class:`_LinkDistanceState`): adding
an occupant ``(x, y)`` to cell ``(s, c)`` lowers ``dist[s, c]`` of every
tracked link by one vectorized minimum, and queries return zero-copy
views.  ``best[s] = max_c dist[s, c]`` rides along so "does *any*
offset of slot ``s`` admit ρ?" is a single comparison.

The lanes are built on first use.  RC asks finite-ρ questions only once
laxity turns negative, late in a run or never, so a schedule carries no
lanes until its first finite-ρ query.  That query registers, in one
pass over the occupied cells, every link the run can still ask about:
the engine names them at each flow start (:func:`plan_links`, the links
of that flow and of every later one).  A link outside the plan (repair
on a clone, the channel remap's fresh schedule, a direct query)
registers itself through the same routine.

The kernel is a fixed property of each placement policy, measured once
and recorded on the schedule it builds (``Schedule.kernel``): RC runs on
the distance stacks, whose cost its descending-ρ retries amortize; NR
and RA run the scalar scan.  RA asks at its fixed floor from the first
placement on, so the per-``add`` lane maintenance never pays for
itself; NR never leaves ρ = ∞, where both kernels scan for empty cells
alike.
Tests, the differential fuzzer and ``repro bench`` force either kernel
for any policy to check the two against each other::

    with kernel_mode(KERNEL_SCALAR):
        result = scheduler.run(flow_set)   # the scalar reference path
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.schedule import Schedule
    from repro.network.graphs import ChannelReuseGraph

#: Sentinel hop distance meaning "no constraint": empty cells and
#: unreachable node pairs.  Large enough to exceed any real hop count,
#: small enough that int32 arithmetic cannot overflow.
INFINITE_DISTANCE = np.int32(2 ** 30)

#: The incremental distance stacks (RC's kernel).
KERNEL_VECTOR = "vector"
#: The scalar scan, one cell at a time (NR's and RA's kernel, and the
#: reference oracle for the vector kernel).
KERNEL_SCALAR = "scalar"

#: The kernel :func:`kernel_mode` forces on every schedule, or None.
_OVERRIDE: Optional[str] = None


def vectorized(schedule: "Schedule") -> bool:
    """Whether placement on ``schedule`` runs the vector kernel.

    The schedule's own kernel (its policy's declaration) decides,
    unless :func:`kernel_mode` forces one.  Every kernel branch point in
    :mod:`repro.core` asks this.
    """
    return (_OVERRIDE or schedule.kernel) == KERNEL_VECTOR


@contextmanager
def kernel_mode(mode: str) -> Iterator[None]:
    """Force one kernel on every schedule inside a ``with`` block.

    A test and benchmark hook: the fuzzer, the kernel-equivalence tests
    and ``repro bench`` use it to run any policy under either kernel.
    """
    global _OVERRIDE
    if mode not in (KERNEL_VECTOR, KERNEL_SCALAR):
        raise ValueError(f"unknown kernel mode: {mode!r}")
    previous = _OVERRIDE
    _OVERRIDE = mode
    try:
        yield
    finally:
        _OVERRIDE = previous


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

    def clone(self) -> "_LinkDistanceState":
        """An independent copy for :meth:`repro.core.schedule.Schedule
        .clone`: lane arrays are copied, the graph and its hop matrix
        (both read-only) are shared."""
        dup = _LinkDistanceState.__new__(_LinkDistanceState)
        dup.graph = self.graph
        dup.hops = self.hops
        dup.index = dict(self.index)
        dup.senders = self.senders.copy()
        dup.receivers = self.receivers.copy()
        dup.dist = self.dist.copy()
        dup.best = self.best.copy()
        dup.count = self.count
        # Cached candidate vectors are never mutated in place, so the
        # clone may keep serving them.
        dup.candidates = dict(self.candidates)
        return dup

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
        """Start tracking new links: one pass over the occupied cells.

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
        counts, occ_senders, occ_receivers = schedule.occupancy()
        slots, offsets = np.nonzero(counts)
        if not slots.size:
            return
        # Node-by-new-lane tables, so that each occupant plane costs two
        # row gathers: to_y[y, l] = hops[u_l, y], from_x[x, l] =
        # hops[x, v_l].
        to_y = np.ascontiguousarray(self.hops[self.senders[first:end]].T)
        from_x = self.hops[:, self.receivers[first:end]]
        cells = np.minimum(to_y[occ_receivers[slots, offsets, 0]],
                           from_x[occ_senders[slots, offsets, 0]])
        depth = counts[slots, offsets]
        for k in range(1, int(depth.max())):
            rows = np.flatnonzero(depth > k)
            x = occ_senders[slots[rows], offsets[rows], k]
            y = occ_receivers[slots[rows], offsets[rows], k]
            cells[rows] = np.minimum(cells[rows],
                                     np.minimum(to_y[y], from_x[x]))
        lanes = self.dist[:, :, first:end]
        lanes[slots, offsets] = cells
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
    occupancy lane of the minimizing occupant, i.e. the transmission to
    *name* when explaining why the channel constraint rejected offset
    ``c`` (see :mod:`repro.obs.provenance`).

    Unlike :func:`min_reuse_distance` this does not touch the
    incremental link-state lanes: it recomputes from the occupancy
    planes and the hop matrix, so the answer is identical under either
    kernel mode and never perturbs the hot-path state.  Provenance and
    ``repro explain`` are the intended callers; placement uses the
    incremental views above.
    """
    counts, occ_senders, occ_receivers = schedule.occupancy()
    capacity = occ_senders.shape[2]
    num_offsets = schedule.num_offsets
    if capacity == 0 or not counts[slot].any():
        return (np.full(num_offsets, INFINITE_DISTANCE, dtype=np.int32),
                np.zeros(num_offsets, dtype=np.intp))
    hops = reuse_graph.effective_hops()
    pair = np.minimum(hops[sender, occ_receivers[slot]],
                      hops[occ_senders[slot], receiver])
    occupied = np.arange(capacity) < counts[slot][:, None]
    masked = np.where(occupied, pair, INFINITE_DISTANCE)
    lanes = masked.argmin(axis=1)
    return (masked[np.arange(num_offsets), lanes].astype(np.int32),
            lanes.astype(np.intp))
