"""Fixed-priority transmission scheduling engine (paper Sections III-B, V).

The engine walks flows in priority order (the FlowSet's order — apply
Deadline Monotonic first), takes each release instance's transmission
requests from the flow set's request plan (expanded once per flow set,
see :func:`~repro.core.transmissions.request_plan`), and delegates every
placement to a *placement policy*.  The three policies of the paper —
NR, RA, RC — differ only in how they pick a (slot, channel offset)
cell; the surrounding machinery (priority order, precedence, deadline
checks, timing) is shared here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Protocol, Sequence, Tuple

from repro.core.constraints import (
    NO_REUSE,
    clear_of,
    first_feasible_offset,
)
from repro.core.laxity import LaxityTable
from repro.core.schedule import Schedule
from repro.core.transmissions import (
    ATTEMPTS_PER_LINK,
    RequestWindow,
    TransmissionRequest,
    request_plan,
)
from repro.flows.flow import Flow, FlowSet
from repro.network.graphs import ChannelReuseGraph
from repro.obs import recorder as _obs

#: Offset selection rules understood by :func:`find_slot`.
OFFSET_FIRST = "first"
OFFSET_LEAST_LOADED = "least_loaded"
OFFSET_RULES = (OFFSET_FIRST, OFFSET_LEAST_LOADED)

#: Registry counters folded into :attr:`SchedulingResult.counters`
#: (``registry name`` -> ``result key``).  The RC entries stay zero for
#: NR / RA runs.
RESULT_COUNTERS = (
    ("scheduler.slots_scanned", "slots_scanned"),
    ("scheduler.placements_tried", "placements_tried"),
    ("scheduler.placements", "placements"),
    ("scheduler.reuse_placements", "reuse_placements"),
    ("rc.laxity_triggers", "laxity_triggers"),
    ("rc.reuse_fallbacks", "reuse_fallbacks"),
)


def _note_scan(slots: int) -> None:
    """Credit ``slots`` scanned slots to the live recorder."""
    if slots and _obs.ENABLED:
        _obs.RECORDER.count("scheduler.slots_scanned", slots)


def find_slot(schedule: Schedule, reuse_graph: ChannelReuseGraph,
              request: TransmissionRequest, rho: float,
              earliest: int, offset_rule: str = OFFSET_FIRST,
              ) -> Optional[Tuple[int, int]]:
    """The paper's ``findSlot()``: earliest feasible (slot, offset).

    Scans slots from ``earliest`` to the request's deadline, skipping
    slots with transmission conflicts, and returns the first slot holding
    a channel offset that satisfies the channel constraint at reuse hop
    count ``rho``.

    Args:
        schedule: Partial schedule.
        reuse_graph: Channel reuse graph (hop distances).
        request: The transmission to place.
        rho: Reuse hop count; ``math.inf`` forbids reuse.
        earliest: First admissible slot (release / precedence bound).
        offset_rule: ``"first"`` picks the lowest feasible offset (RA);
            ``"least_loaded"`` picks the feasible offset with the fewest
            scheduled transmissions, lowest index on ties (RC — reduces
            per-channel contention, paper Section V-C).

    Returns:
        ``(slot, offset)`` or None if nothing fits by the deadline.
    """
    if _obs.ENABLED:
        _obs.RECORDER.count("scheduler.placements_tried")
        prov = _obs.RECORDER.provenance
        if prov is not None:
            # Record the scan *and* its derived constraint chain against
            # the pre-scan schedule state (see repro.obs.provenance).
            result = _find_slot(schedule, reuse_graph, request, rho,
                                earliest, offset_rule)
            prov.record_probe(schedule, reuse_graph, request, rho,
                              earliest, offset_rule, result)
            return result
    return _find_slot(schedule, reuse_graph, request, rho, earliest,
                      offset_rule)


def _find_slot(schedule: Schedule, reuse_graph: ChannelReuseGraph,
               request: TransmissionRequest, rho: float,
               earliest: int, offset_rule: str,
               ) -> Optional[Tuple[int, int]]:
    """:func:`find_slot` minus the provenance probe hook."""
    deadline = request.deadline_slot
    if earliest > deadline:
        return None

    sender, receiver = request.sender, request.receiver
    if rho == NO_REUSE:
        # Fast path: feasible slots need a completely free offset.
        slot = schedule.first_free_slot(sender, receiver, earliest, deadline)
        if slot < 0:
            _note_scan(deadline - earliest + 1)
            return None
        _note_scan(slot - earliest + 1)
        return (slot, schedule.first_free_offset(slot))

    if offset_rule not in OFFSET_RULES:
        raise ValueError(f"unknown offset rule: {offset_rule}")
    # Finite ρ: the scalar scan, one cell at a time.  RC's fused
    # descent walks the same slots once for all its finite-ρ probes
    # (repro.core.rc); every other question is asked here.
    scanned = 0
    for slot in schedule.conflict_free_slots(sender, receiver, earliest,
                                             deadline):
        scanned += 1
        offset = pick_offset(schedule, reuse_graph, sender, receiver, slot,
                             rho, offset_rule)
        if offset >= 0:
            _note_scan(scanned)
            return (slot, offset)
    _note_scan(scanned)
    return None


def pick_offset(schedule: Schedule, reuse_graph: ChannelReuseGraph,
                sender: int, receiver: int, slot: int, rho: float,
                offset_rule: str) -> int:
    """The channel offset :func:`find_slot` takes in a conflict-free
    slot at ρ, or -1 when no offset admits the link.

    ``"first"`` takes the lowest feasible offset
    (:func:`~repro.core.constraints.first_feasible_offset`);
    ``"least_loaded"`` the feasible offset with the fewest occupants,
    lowest index on ties.  At ρ = ∞ only an empty cell is feasible, so
    both rules take the lowest free offset, and at finite ρ an empty
    cell is always the least loaded, so the lowest free offset wins
    there too.  A full slot visits its offsets in ascending order and
    skips every cell no lighter than the best pick so far.
    """
    if rho == NO_REUSE:
        return schedule.first_free_offset(slot)
    if offset_rule == OFFSET_FIRST:
        return first_feasible_offset(schedule, reuse_graph, sender,
                                     receiver, slot, rho)
    free = schedule.first_free_offset(slot)
    if free >= 0:
        return free
    entries = schedule.entries
    hops = reuse_graph.effective_hop_rows()
    best, lightest = -1, 0
    for offset in range(schedule.num_offsets):
        occupants = schedule.cell_indices(slot, offset)
        if best >= 0 and len(occupants) >= lightest:
            continue
        if clear_of(entries, hops, occupants, sender, receiver, rho):
            best, lightest = offset, len(occupants)
    return best


class PlacementPolicy(Protocol):
    """Strategy deciding where each transmission request goes."""

    #: Human-readable policy name ("NR", "RA", "RC", ...).
    name: str

    def start_flow(self, flow: Flow) -> None:
        """Hook invoked when the engine starts a new flow."""

    def place(self, schedule: Schedule, reuse_graph: ChannelReuseGraph,
              request: TransmissionRequest, earliest: int,
              remaining: Sequence[TransmissionRequest],
              ) -> Optional[Tuple[int, int]]:
        """Choose a (slot, offset) for the request, or None if impossible."""


@dataclass
class SchedulingResult:
    """Outcome of scheduling one flow set.

    Attributes:
        schedulable: Whether every transmission of every instance made its
            deadline.
        schedule: The complete schedule when schedulable; the partial
            schedule at the point of failure otherwise.
        flow_set: The (priority-ordered, routed) input flows.
        policy_name: Which placement policy produced this result.
        failed_flow: Flow id of the first unschedulable flow, if any.
        failed_instance: Release index where scheduling failed, if any.
        elapsed_s: Wall-clock placement time in seconds (the paper's
            Fig 6 quantity).  It excludes building the flow set's
            request plan, which the first run over a flow set pays and
            later runs reuse, so every policy is timed on the same work.
        counters: Per-run instrumentation counters (slots scanned,
            placements tried/made, reuse placements, RC laxity triggers
            and fallback steps).  Populated from the observability
            registry when recording is enabled (see :mod:`repro.obs`);
            empty otherwise so the disabled path stays free.
    """

    schedulable: bool
    schedule: Schedule
    flow_set: FlowSet
    policy_name: str
    failed_flow: Optional[int] = None
    failed_instance: Optional[int] = None
    elapsed_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)


class FixedPriorityScheduler:
    """Schedules a routed, priority-ordered flow set with a policy.

    Args:
        num_nodes: Number of devices in the topology.
        num_offsets: Number of channels used ``|M|``.
        reuse_graph: Channel reuse graph of the topology.
        policy: Placement policy (NR / RA / RC).
        attempts_per_link: Cells reserved per link (2 = source routing).
    """

    def __init__(self, num_nodes: int, num_offsets: int,
                 reuse_graph: ChannelReuseGraph, policy: PlacementPolicy,
                 attempts_per_link: int = ATTEMPTS_PER_LINK):
        if reuse_graph.num_nodes != num_nodes:
            raise ValueError("reuse graph size does not match num_nodes")
        self.num_nodes = num_nodes
        self.num_offsets = num_offsets
        self.reuse_graph = reuse_graph
        self.policy = policy
        self.attempts_per_link = attempts_per_link

    def run(self, flow_set: FlowSet) -> SchedulingResult:
        """Schedule every instance of every flow within the hyperperiod.

        The flow set must already be routed and in priority order (highest
        first).  Scheduling stops at the first transmission that cannot
        meet its deadline; the flow set is then unschedulable.

        Requests come from the flow set's memoized request plan, built
        at the first run over it for this ``attempts_per_link`` and
        before the clock starts: :attr:`SchedulingResult.elapsed_s`
        times placement alone, whichever policy runs first.
        """
        if not flow_set.all_routed():
            raise ValueError("all flows must be routed before scheduling")
        plan = request_plan(flow_set, self.attempts_per_link)
        start_time = time.perf_counter()
        hyperperiod = flow_set.hyperperiod()
        schedule = Schedule(self.num_nodes, hyperperiod, self.num_offsets)

        # Resolve observability once per run; ENABLED is a module-level
        # flag so the disabled cost is one attribute read.
        recorder = _obs.RECORDER if _obs.ENABLED else None
        baseline = None
        prov = None
        if recorder is not None:
            baseline = {name: recorder.registry.counter_value(name)
                        for name, _ in RESULT_COUNTERS}
            prov = recorder.provenance
        context = (self.policy.provenance_context()
                   if prov is not None
                   and hasattr(self.policy, "provenance_context") else None)

        for flow, instances in plan:
            self.policy.start_flow(flow)
            for index, release_slot, requests in instances:
                earliest = release_slot
                # Every policy gets T_post as a window onto the
                # instance's Eq. 1 table (packed only if RC's fused
                # descent reads it).
                table = LaxityTable(requests)
                for position, request in enumerate(requests):
                    remaining = RequestWindow(table, position + 1)
                    if prov is not None:
                        prov.begin_decision(self.policy.name, request,
                                            earliest, context)
                    placement = self.policy.place(
                        schedule, self.reuse_graph, request, earliest,
                        remaining)
                    if placement is None:
                        if recorder is not None:
                            recorder.count("scheduler.rejections")
                            if prov is not None:
                                prov.end_decision(None)
                        return self._finish(
                            False, schedule, flow_set, start_time,
                            recorder, baseline,
                            failed_flow=flow.flow_id,
                            failed_instance=index)
                    slot, offset = placement
                    if recorder is not None:
                        reused = schedule.cell_size(slot, offset) > 0
                        recorder.count("scheduler.placements")
                        if reused:
                            recorder.count("scheduler.reuse_placements")
                        if prov is not None:
                            prov.end_decision(placement, reused)
                    schedule.add(request, slot, offset)
                    earliest = slot + 1

        return self._finish(True, schedule, flow_set, start_time,
                            recorder, baseline)

    def _finish(self, schedulable: bool, schedule: Schedule,
                flow_set: FlowSet, start_time: float, recorder, baseline,
                failed_flow: Optional[int] = None,
                failed_instance: Optional[int] = None) -> SchedulingResult:
        """Assemble the result, folding registry deltas into counters."""
        counters: Dict[str, float] = {}
        if recorder is not None:
            registry = recorder.registry
            for name, key in RESULT_COUNTERS:
                delta = registry.counter_value(name) - baseline[name]
                counters[key] = int(delta) if delta.is_integer() else delta
            prefix = f"policy.{self.policy.name}"
            registry.inc(f"{prefix}.runs")
            registry.inc(f"{prefix}.schedulable" if schedulable
                         else f"{prefix}.unschedulable")
            registry.inc(f"{prefix}.placements", counters["placements"])
            registry.inc(f"{prefix}.reuse_placements",
                         counters["reuse_placements"])
        return SchedulingResult(
            schedulable=schedulable, schedule=schedule, flow_set=flow_set,
            policy_name=self.policy.name, failed_flow=failed_flow,
            failed_instance=failed_instance,
            elapsed_s=time.perf_counter() - start_time, counters=counters)
