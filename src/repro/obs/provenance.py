"""Decision provenance: *why* the scheduler placed (or rejected) each cell.

The metrics registry records *what* the scheduler did, in totals;
this module records *why*, one record per decision.  A :class:`ProvenanceRecorder` attached
to the live :class:`~repro.obs.recorder.Recorder` captures, per placed
transmission, one **decision record**:

* the request identity and its admission window (release, precedence
  bound, deadline);
* every ``findSlot`` **probe** the policy ran — for RC, one per ρ of the
  Algorithm-1 descent — each with the candidate slots examined and the
  *first* Section V-A constraint that rejected each candidate
  (``node-busy``, ``channel-busy``, ``reuse-distance``, ``window``),
  run-length encoded so long scans stay compact;
* for the slot a probe settled on, a per-offset verdict chain naming
  the occupant that blocks each infeasible offset and its reuse-graph
  distance (the exact Eq. V-A term that failed);
* the flow's Eq. 1 laxity evaluations and RC's ρ-descent steps;
* the final placement (or rejection) and whether it shares a cell.

Records are derived from the *schedule state*, not from how a policy
searched it: the classifier below reads only structures every schedule
has (the conflict and free-offset masks unpacked from its busy and
full-slot bitsets, the cells' occupants through ``Schedule.cell``, the
reuse graph's hop matrix), never the running maxima of RC's walk, so
RC's fused descent and its stepwise oracle
(:func:`repro.core.rc.stepwise_descent`) emit **bit-identical
provenance streams** whenever they produce identical schedules — a
property the differential fuzz harness (:mod:`repro.validate.fuzz`)
asserts.

Provenance rides behind the same module-level ``ENABLED`` flag as the
rest of the observability layer: instrumentation sites check
``_obs.ENABLED`` first and then ``RECORDER.provenance is not None``, so
a disabled run pays one attribute read and a provenance-less enabled
run pays two.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.network.graphs import INFINITE_DISTANCE

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.schedule import Schedule
    from repro.core.transmissions import TransmissionRequest
    from repro.network.graphs import ChannelReuseGraph

#: Default decision capacity (records).  Provenance keeps the most
#: recent decisions and counts evictions.
DEFAULT_CAPACITY = 200_000

#: First-rejection reasons (the Section V-A constraint taxonomy).
REASON_NODE_BUSY = "node-busy"          # transmission conflict in the slot
REASON_CHANNEL_BUSY = "channel-busy"    # rho = inf and no free offset
REASON_REUSE_DISTANCE = "reuse-distance"  # every offset closer than rho
REASON_WINDOW = "window"                # outside [earliest, deadline]
ACCEPT = "accept"


def _jsonable_rho(rho: float) -> Optional[int]:
    """ρ for JSON payloads: ∞ (no reuse) serializes as None."""
    return None if rho == float("inf") else int(rho)


# ----------------------------------------------------------------------
# Constraint classification (independent of RC's descent)
# ----------------------------------------------------------------------

def cell_reuse_distances(schedule: "Schedule",
                         reuse_graph: "ChannelReuseGraph",
                         sender: int, receiver: int, slot: int,
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-offset min reuse distance of one slot, with its blocker.

    ``dist[c]`` is the smallest ``min(hops[sender, y], hops[x, receiver])``
    over the occupants ``(x, y)`` of cell ``(slot, c)`` —
    :data:`~repro.network.graphs.INFINITE_DISTANCE` for empty cells —
    and ``blocker[c]`` is the position in ``schedule.cell(slot, c)`` of
    the first minimizing occupant, i.e. the transmission to *name* when
    explaining why the channel constraint rejected offset ``c``.

    Computed from the slot's cells and the hop matrix alone, sharing no
    code with RC's walk (:func:`repro.core.constraints
    .max_admissible_rho`), so the two descents' provenance streams stay
    an independent comparison.
    """
    hops = reuse_graph.effective_hops()
    dist = np.full(schedule.num_offsets, INFINITE_DISTANCE, dtype=np.int32)
    blocker = np.zeros(schedule.num_offsets, dtype=np.intp)
    for offset in range(schedule.num_offsets):
        occupants = schedule.cell(slot, offset)
        if occupants:
            pair = [min(hops[sender, e.request.receiver],
                        hops[e.request.sender, receiver])
                    for e in occupants]
            first = int(np.argmin(pair))
            dist[offset], blocker[offset] = pair[first], first
    return dist, blocker


def window_rejection_chain(schedule: "Schedule",
                           reuse_graph: "ChannelReuseGraph",
                           sender: int, receiver: int, rho: float,
                           start: int, end: int) -> List[List]:
    """First-rejection reason for every slot of ``[start, end]``, RLE'd.

    Returns ``[[reason, run_length], ...]`` covering the window in slot
    order — the constraint chain a ``findSlot`` scan walked.  A feasible
    slot maps to :data:`ACCEPT` (in a real scan only the final slot can
    be one).  Empty list when ``start > end``.
    """
    if start > end:
        return []
    conflict = schedule.conflict_mask(sender, receiver, start, end)
    if rho == float("inf"):
        free = schedule.free_offset_slots(start, end)
        reasons = np.where(conflict, 0, np.where(free, 2, 1))
        labels = (REASON_NODE_BUSY, REASON_CHANNEL_BUSY, ACCEPT)
    else:
        best = np.fromiter(
            (int(cell_reuse_distances(schedule, reuse_graph, sender,
                                      receiver, slot)[0].max())
             for slot in range(start, end + 1)),
            dtype=np.int64, count=end - start + 1)
        reasons = np.where(conflict, 0, np.where(best >= rho, 2, 1))
        labels = (REASON_NODE_BUSY, REASON_REUSE_DISTANCE, ACCEPT)
    chain: List[List] = []
    for code in reasons:
        label = labels[int(code)]
        if chain and chain[-1][0] == label:
            chain[-1][1] += 1
        else:
            chain.append([label, 1])
    return chain


def offset_verdicts(schedule: "Schedule", reuse_graph: "ChannelReuseGraph",
                    sender: int, receiver: int, slot: int, rho: float,
                    ) -> List[Dict]:
    """Per-offset constraint verdicts for one slot.

    One dict per channel offset: ``verdict`` (:data:`ACCEPT`,
    :data:`REASON_CHANNEL_BUSY`, or :data:`REASON_REUSE_DISTANCE`),
    ``load`` (occupants already in the cell — the least-loaded rule's
    key), and for reuse-distance rejections the ``blocker`` occupant
    link and its ``distance`` on the reuse graph.
    """
    verdicts: List[Dict] = []
    if rho == float("inf"):
        for offset in range(schedule.num_offsets):
            load = schedule.cell_size(slot, offset)
            verdicts.append({
                "offset": offset, "load": load,
                "verdict": ACCEPT if load == 0 else REASON_CHANNEL_BUSY,
            })
        return verdicts
    dist, blockers = cell_reuse_distances(schedule, reuse_graph, sender,
                                          receiver, slot)
    for offset in range(schedule.num_offsets):
        occupants = schedule.cell(slot, offset)
        entry: Dict = {"offset": offset, "load": len(occupants)}
        if dist[offset] >= rho:
            entry["verdict"] = ACCEPT
        else:
            blocker = occupants[int(blockers[offset])].request
            entry["verdict"] = REASON_REUSE_DISTANCE
            entry["blocker"] = [int(blocker.sender), int(blocker.receiver)]
            entry["distance"] = int(dist[offset])
        verdicts.append(entry)
    return verdicts


# ----------------------------------------------------------------------
# The recorder
# ----------------------------------------------------------------------

class ProvenanceRecorder:
    """Bounded sink for scheduler decision records.

    The engine brackets every placement with :meth:`begin_decision` /
    :meth:`end_decision`; ``findSlot`` contributes one :meth:`record_probe`
    per scan; RC contributes :meth:`record_laxity` and
    :meth:`record_descent` from its Algorithm-1 loop.  Records are plain
    JSON-ready dicts (see the module docstring for the shape).

    Args:
        capacity: Maximum retained decisions; the oldest are evicted
            (and counted in :attr:`dropped`) once full.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._decisions: deque = deque(maxlen=capacity)
        self._current: Optional[Dict] = None
        self._next_id = 0
        self.dropped = 0

    # -- identity -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._decisions)

    @property
    def capacity(self) -> int:
        """Maximum number of retained decisions."""
        return self._decisions.maxlen  # type: ignore[return-value]

    # -- engine hooks ---------------------------------------------------

    def begin_decision(self, policy: str, request: "TransmissionRequest",
                       earliest: int, context: Optional[Dict] = None) -> int:
        """Open the decision record for one transmission placement."""
        record: Dict = {
            "kind": "decision",
            "id": self._next_id,
            "policy": policy,
            "flow": request.flow_id,
            "instance": request.instance,
            "hop": request.hop_index,
            "attempt": request.attempt,
            "sender": request.sender,
            "receiver": request.receiver,
            "release": request.release_slot,
            "earliest": earliest,
            "deadline": request.deadline_slot,
            "probes": [],
            "laxity": [],
            "descent": [],
            "placed": None,
            "reused": False,
        }
        if earliest > request.release_slot:
            # The window opens late because a predecessor (earlier hop /
            # attempt of the same instance) was placed at earliest - 1.
            record["precedence_bound"] = earliest
        if context:
            record["context"] = dict(context)
        self._next_id += 1
        self._current = record
        return record["id"]

    def end_decision(self, placement: Optional[Tuple[int, int]],
                     reused: bool = False) -> Optional[int]:
        """Close the open decision with its outcome; returns its id."""
        record = self._current
        if record is None:
            return None
        record["placed"] = list(placement) if placement is not None else None
        record["reused"] = bool(reused)
        if len(self._decisions) == self._decisions.maxlen:
            self.dropped += 1
        self._decisions.append(record)
        self._current = None
        return record["id"]

    # -- policy / findSlot hooks ---------------------------------------

    def record_probe(self, schedule: "Schedule",
                     reuse_graph: "ChannelReuseGraph",
                     request: "TransmissionRequest", rho: float,
                     earliest: int, offset_rule: str,
                     result: Optional[Tuple[int, int]]) -> None:
        """Record one ``findSlot`` scan and its constraint chain.

        Derives, from the schedule state the scan ran against, the first
        rejecting constraint of every candidate slot up to the found
        slot (or the deadline when the scan came up empty), plus the
        per-offset verdicts of the found slot.
        """
        record = self._current
        if record is None:
            return
        deadline = request.deadline_slot
        probe: Dict = {
            "rho": _jsonable_rho(rho),
            "earliest": earliest,
            "rule": offset_rule,
            "result": list(result) if result is not None else None,
        }
        if earliest > deadline:
            probe["chain"] = []
            probe["exhausted"] = REASON_WINDOW
        else:
            last = result[0] if result is not None else deadline
            probe["chain"] = window_rejection_chain(
                schedule, reuse_graph, request.sender, request.receiver,
                rho, earliest, last)
            if result is None:
                probe["exhausted"] = REASON_WINDOW
            else:
                probe["offsets"] = offset_verdicts(
                    schedule, reuse_graph, request.sender, request.receiver,
                    result[0], rho)
        record["probes"].append(probe)

    def record_laxity(self, slot: int, rho: float, laxity: int) -> None:
        """Record one Eq. 1 evaluation of the open decision."""
        record = self._current
        if record is None:
            return
        record["laxity"].append({
            "slot": slot, "rho": _jsonable_rho(rho), "laxity": int(laxity)})

    def record_descent(self, from_rho: float, to_rho: float) -> None:
        """Record one RC ρ-descent step of the open decision."""
        record = self._current
        if record is None:
            return
        record["descent"].append({
            "from": _jsonable_rho(from_rho), "to": _jsonable_rho(to_rho)})

    # -- repair hooks ---------------------------------------------------

    def record_blast(self, change: str, evicted: List[Dict]) -> int:
        """Record one repair's blast radius: the change summary and the
        evicted cells with their per-cell evict reasons (see
        :mod:`repro.core.repair`).  The record shares the decision id
        space, so a repair's eviction and its re-placement decisions
        stay adjacent and citable as one ``[first, last)`` range.
        """
        record: Dict = {
            "kind": "blast",
            "id": self._next_id,
            "change": change,
            "count": len(evicted),
            "evicted": [dict(cell) for cell in evicted],
        }
        self._next_id += 1
        if len(self._decisions) == self._decisions.maxlen:
            self.dropped += 1
        self._decisions.append(record)
        return record["id"]

    # -- reads / export -------------------------------------------------

    def decisions(self) -> List[Dict]:
        """Retained decision records, oldest first."""
        return list(self._decisions)

    def records(self) -> List[Dict]:
        """Everything :meth:`export_jsonl` writes: the retained decisions
        plus a ``prov_meta`` trailer accounting for ring evictions."""
        return self.decisions() + [{
            "kind": "prov_meta",
            "dropped": self.dropped,
            "capacity": self.capacity,
            "decisions": self._next_id,
        }]

    def export_jsonl(self, path) -> int:
        """Write the decision records (plus trailer) as JSON Lines.

        Returns:
            The number of decision records written (trailer excluded).
        """
        from repro.io import save_jsonl

        return save_jsonl(self.records(), path) - 1
