"""Incremental schedule repair: warm-start rescheduling with a bounded
blast radius.

Every manager remediation used to rebuild the whole schedule from
scratch — O(all flows) per epoch even when a single victim link changed.
The paper's Section VI loop only asks that degraded links "be reassigned
to different channels or time slots"; runtime adaptation should be local
(Recorp's incremental policies make the same argument).  This module
implements that locality as a three-step delta-scheduler:

1. **Blast radius** (:func:`compute_blast_radius`) — from the schedule's
   cells, find the placements the change invalidates directly
   (a newly barred link sharing a cell, a shared cell whose effective ρ
   falls below an escalated floor, a transmission on a blacklisted
   channel), then close transitively over the precedence chains: every
   later (hop, attempt) of an affected release is evicted too, because
   its predecessor may land later than it did before.  Per-instance
   evictions are therefore *suffixes* of the request chain, so every
   survivor keeps a valid precedence bound.
2. **Eviction** — :meth:`repro.core.schedule.Schedule.evict` on a clone
   removes exactly those cells with full bookkeeping rollback (busy
   bitsets, cell index, used-offset masks, full-slot bitset),
   cross-checked by the auditor's bookkeeping invariants.
3. **Re-placement** — evicted transmissions are re-placed in priority
   order with ``findSlot`` against the *existing* busy bitsets: barred
   links at ρ = ∞ (an exclusive cell), everything else at the policy's
   floor ρ_t with the scalar scan, refusing to join a cell that holds a
   barred occupant (the same protection
   :class:`repro.core.reschedule.ReuseBarrierPolicy` enforces during a
   full rebuild).

Repair preserves the Section V-A correctness contract at the configured
floor — the auditor accepts exactly the same invariants either way —
but it is *warm-started*, not history-free: surviving placements stay
where they are, so the repaired schedule generally differs from (and
places the evicted tail more permissively than) a full rebuild.
:func:`repro.manager.loop.remediate`, the one caller in production (the
manager's and the service's), falls back to the full rebuild
(:func:`repro.core.reschedule.reschedule_without_reuse_on`) whenever
repair fails placement or the auditor rejects the result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.constraints import NO_REUSE, clear_of
from repro.core.schedule import Schedule, ScheduledTransmission
from repro.core.scheduler import (
    OFFSET_FIRST,
    OFFSET_LEAST_LOADED,
    find_slot,
)
from repro.flows.flow import FlowSet
from repro.network.graphs import ChannelReuseGraph
from repro.obs import recorder as _obs

Link = Tuple[int, int]

#: Per-entry evict reasons recorded in the blast radius.
REASON_BARRED = "barred-link-shared-cell"
REASON_RHO = "rho-floor-raised"
REASON_CHANNEL = "channel-blacklisted"
REASON_REUSE_RECHECK = "reuse-invalid-on-new-graph"
REASON_PRECEDENCE = "precedence-successor"


@dataclass(frozen=True)
class ChannelChange:
    """A blacklist change: the network after removing one channel.

    Attributes:
        reuse_graph: G_R re-derived from the restricted topology.
        num_offsets: Channel offsets remaining.
        offset_map: Old offset → new offset, ``None`` for the removed
            channel's offset (its transmissions must move).
    """

    reuse_graph: ChannelReuseGraph
    num_offsets: int
    offset_map: Tuple[Optional[int], ...]


@dataclass(frozen=True)
class ChangeSet:
    """What changed since the schedule was built.

    Exactly the manager's three remediation shapes: newly barred victim
    links, an escalated reuse floor, or a blacklisted channel.  Fields
    compose (a ρ escalation with fresh victims is one change set).

    Attributes:
        victims: Links newly barred from channel reuse (either
            direction).
        rho_t: The escalated reuse hop floor, or ``None`` when the floor
            is unchanged.
        channel: The blacklist change, or ``None``.
    """

    victims: Tuple[Link, ...] = ()
    rho_t: Optional[int] = None
    channel: Optional[ChannelChange] = None

    def describe(self) -> str:
        """Short human-readable summary (provenance / trace payloads)."""
        parts = []
        if self.victims:
            parts.append(f"bar {len(self.victims)} link(s)")
        if self.rho_t is not None:
            parts.append(f"rho_t -> {self.rho_t}")
        if self.channel is not None:
            parts.append(f"blacklist -> {self.channel.num_offsets} offsets")
        return ", ".join(parts) if parts else "no-op"


@dataclass
class BlastRadius:
    """The entries a change invalidates, with per-entry reasons.

    Attributes:
        indices: Entry indices into the *original* schedule, ascending.
        reasons: ``index -> reason`` (one of the ``REASON_*`` labels).
        seeds: How many indices were direct casualties (the rest are
            precedence successors).
        bounds: ``(flow, instance) -> last slot`` its surviving entries
            occupy, for every release with an evicted suffix and at
            least one survivor: the precedence bound the suffix's
            re-placement resumes from.
    """

    indices: List[int] = field(default_factory=list)
    reasons: Dict[int, str] = field(default_factory=dict)
    seeds: int = 0
    bounds: Dict[Tuple[int, int], int] = field(default_factory=dict)


@dataclass
class RepairOutcome:
    """Result of one repair attempt.

    Attributes:
        schedulable: Whether every evicted transmission was re-placed by
            its deadline.  False means the caller should fall back to a
            full rebuild.
        schedule: The repaired schedule when schedulable; the partial
            repair otherwise (diagnostics only — never serve it).
        blast: What was evicted and why.
        evicted: Number of evicted cells (``len(blast.indices)``).
        failed_request: The first request repair could not place, if any.
        elapsed_s: Wall-clock repair time in seconds.
    """

    schedulable: bool
    schedule: Schedule
    blast: BlastRadius
    evicted: int
    failed_request: Optional[str] = None
    elapsed_s: float = 0.0


def _expand_links(links: Iterable[Link]) -> Set[Link]:
    """Both directions of every link (the ACK travels the reverse way)."""
    expanded: Set[Link] = set()
    for u, v in links:
        expanded.add((u, v))
        expanded.add((v, u))
    return expanded


def compute_blast_radius(schedule: Schedule, change: ChangeSet,
                         rho_floor: float,
                         barred: Iterable[Link] = (),
                         reuse_graph: Optional[ChannelReuseGraph] = None,
                         ) -> BlastRadius:
    """The transmissions a change invalidates, transitively.

    Direct casualties ("seeds"):

    * any shared-cell occupant whose link is barred (previously barred
      or newly victimized) — barred links must hold exclusive cells;
    * on a ρ escalation, the minimal suffix of each shared cell's
      occupants (in placement-lane order) whose removal restores
      pairwise distances ≥ the new floor;
    * on a blacklist, every transmission on the removed channel's
      offset, plus any shared-cell occupant whose pairwise distance
      falls below the floor on the *new* reuse graph.

    The closure then adds every same-release successor — higher
    (hop, attempt) of the same (flow, instance) — of each seed, because
    a seed's replacement may land later than its old slot and the
    successors' precedence bounds move with it.  Evictions are thus
    per-instance chain suffixes and every survivor's placement remains
    valid as-is.

    Args:
        schedule: The running schedule.
        change: What changed.
        rho_floor: The reuse floor in force *after* the change.
        barred: Previously barred links (the manager's accumulated
            no-reuse set; the change's victims are added internally).
        reuse_graph: The graph shared cells are rechecked against on a ρ
            escalation (``change.channel``'s graph wins when both are
            given; required when only ``change.rho_t`` is set).

    Returns:
        The blast radius, with entry indices into ``schedule.entries``.
    """
    barred_all = _expand_links(barred) | _expand_links(change.victims)
    entries = schedule.entries
    blast = BlastRadius()
    reasons = blast.reasons

    recheck = change.rho_t is not None or change.channel is not None
    graph = (change.channel.reuse_graph if change.channel is not None
             else reuse_graph)
    if recheck and graph is None:
        raise ValueError("a rho recheck needs a reuse graph")
    hops = graph.effective_hop_rows() if recheck else None
    recheck_reason = (REASON_REUSE_RECHECK if change.channel is not None
                      else REASON_RHO)
    if change.channel is not None:
        removed = {offset
                   for offset, mapped in enumerate(change.channel.offset_map)
                   if mapped is None}
        if removed:
            for index, entry in enumerate(entries):
                if entry.offset in removed:
                    reasons.setdefault(index, REASON_CHANNEL)

    for _, _, occupants in schedule.reused_cell_indices():
        for index in occupants:
            if entries[index].request.link in barred_all:
                reasons.setdefault(index, REASON_BARRED)
        if not recheck:
            continue
        # Keep the greedy placement-order subset whose pairwise
        # distances satisfy the (possibly new) floor on the (possibly
        # new) graph; evict the rest.  Greedy-by-lane is deterministic
        # and favors older placements, which keeps the radius minimal
        # for the common one-occupant-too-close case.
        kept: List[int] = []
        for index in occupants:
            if index in reasons:
                continue
            request = entries[index].request
            if clear_of(entries, hops, kept, request.sender,
                        request.receiver, rho_floor):
                kept.append(index)
            else:
                reasons[index] = recheck_reason

    blast.seeds = len(reasons)

    # Transitive precedence closure: evict every later (hop, attempt) of
    # each seeded release, making per-instance evictions chain suffixes;
    # the same pass records where each such chain's survivors end.
    first_hit: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for index in reasons:
        request = entries[index].request
        key = (request.flow_id, request.instance)
        rank = (request.hop_index, request.attempt)
        if key not in first_hit or rank < first_hit[key]:
            first_hit[key] = rank
    bounds = blast.bounds
    for index, entry in enumerate(entries):
        request = entry.request
        key = (request.flow_id, request.instance)
        rank = first_hit.get(key)
        if rank is None or index in reasons:
            continue
        if (request.hop_index, request.attempt) > rank:
            reasons[index] = REASON_PRECEDENCE
        elif entry.slot > bounds.get(key, -1):
            bounds[key] = entry.slot

    blast.indices = sorted(reasons)
    return blast


def _remap_schedule(schedule: Schedule, doomed: List[int],
                    channel: ChannelChange,
                    ) -> Tuple[Schedule, List[ScheduledTransmission]]:
    """A fresh schedule on the restricted channel set: survivors re-added
    at their remapped offsets, the blast radius left out."""
    work = Schedule(schedule.num_nodes, schedule.num_slots,
                    channel.num_offsets)
    doomed_set = set(doomed)
    evicted: List[ScheduledTransmission] = []
    for index, entry in enumerate(schedule.entries):
        if index in doomed_set:
            evicted.append(entry)
            continue
        new_offset = channel.offset_map[entry.offset]
        work.add(entry.request, entry.slot, new_offset)
    return work, evicted


def smallest_reused_link(schedule: Schedule,
                         exclude: Iterable[Link] = ()) -> Optional[Link]:
    """The smallest (by sorted endpoint pair) link occupying any shared
    cell, skipping ``exclude`` (either direction) — the deterministic
    victim choice of the service's ``"auto"`` reschedule, benchmarks and
    fuzzing; None when no eligible link shares a cell."""
    links = set()
    for _, _, transmissions in schedule.reused_cells():
        for entry in transmissions:
            links.add(tuple(sorted(entry.request.link)))
    links -= {tuple(sorted(link)) for link in exclude}
    return min(links) if links else None


def _cell_holds_barred(schedule: Schedule, slot: int, offset: int,
                       barred: Set[Link]) -> bool:
    return any(e.request.link in barred
               for e in schedule.cell(slot, offset))


def repair_schedule(schedule: Schedule, flow_set: FlowSet,
                    reuse_graph: ChannelReuseGraph, change: ChangeSet,
                    rho_t: float, barred: Iterable[Link] = (),
                    policy_name: str = "RC",
                    ) -> RepairOutcome:
    """Repair a schedule in place of a full rebuild.

    Computes the blast radius, evicts it from a clone (the input
    schedule is never mutated — the manager's rollback keeps serving
    it), and re-places the evicted transmissions in priority order
    against the surviving busy bitsets.  O(blast radius) placements
    instead of O(all flows), each one ``find_slot`` call.

    Args:
        schedule: The running schedule (left untouched).
        flow_set: The routed, priority-ordered flows it serves.
        reuse_graph: The reuse graph the schedule was built against
            (``change.channel`` supersedes it when blacklisting).
        change: What changed.
        rho_t: The reuse floor in force after the change (i.e. already
            the escalated value when ``change.rho_t`` is set).
        barred: Previously barred links; ``change.victims`` are barred
            on top of these.
        policy_name: The placement policy's name ("NR" / "RA" / "RC") —
            selects the offset rule and the NR ρ = ∞ behavior.

    Returns:
        A :class:`RepairOutcome`; when ``schedulable`` is False the
        caller must fall back to a full rebuild.
    """
    start_time = time.perf_counter()
    rho_floor = NO_REUSE if policy_name == "NR" else float(rho_t)
    blast = compute_blast_radius(schedule, change, rho_floor, barred,
                                 reuse_graph)
    barred_all = _expand_links(barred) | _expand_links(change.victims)

    if change.channel is not None:
        work, evicted = _remap_schedule(schedule, blast.indices,
                                        change.channel)
        graph = change.channel.reuse_graph
    else:
        work = schedule.clone()
        evicted = work.evict(blast.indices)
        graph = reuse_graph

    prov = (_obs.RECORDER.provenance if _obs.ENABLED else None)
    if prov is not None:
        prov.record_blast(
            change.describe(),
            [{"slot": entry.slot, "offset": entry.offset,
              "flow": entry.request.flow_id,
              "instance": entry.request.instance,
              "hop": entry.request.hop_index,
              "attempt": entry.request.attempt,
              "sender": entry.request.sender,
              "receiver": entry.request.receiver,
              "reason": blast.reasons[index]}
             for index, entry in zip(blast.indices, evicted)])

    failed = _replace_evicted(work, graph, flow_set, evicted, blast.bounds,
                              rho_floor, barred_all, policy_name, prov)

    if _obs.ENABLED:
        _obs.RECORDER.count("repair.attempts")
        _obs.RECORDER.count("repair.evicted_cells", len(evicted))
        if failed is not None:
            _obs.RECORDER.count("repair.placement_failures")

    return RepairOutcome(
        schedulable=failed is None, schedule=work, blast=blast,
        evicted=len(evicted),
        failed_request=str(failed) if failed is not None else None,
        elapsed_s=time.perf_counter() - start_time)


def _replace_evicted(work: Schedule, graph: ChannelReuseGraph,
                     flow_set: FlowSet,
                     evicted: List[ScheduledTransmission],
                     bounds: Dict[Tuple[int, int], int],
                     rho_floor: float, barred: Set[Link],
                     policy_name: str, prov):
    """Re-place evicted transmissions in priority order, each chain from
    its survivors' last slot in ``bounds``; returns the first request
    that could not be placed (None on success)."""
    priority = {flow.flow_id: position
                for position, flow in enumerate(flow_set)}
    chains: Dict[Tuple[int, int], List[ScheduledTransmission]] = {}
    for entry in evicted:
        key = (entry.request.flow_id, entry.request.instance)
        chains.setdefault(key, []).append(entry)
    offset_rule = (OFFSET_LEAST_LOADED if policy_name == "RC"
                   else OFFSET_FIRST)

    for key in sorted(chains,
                      key=lambda k: (priority.get(k[0], len(priority)), k)):
        flow_id, instance = key
        chain = sorted(chains[key],
                       key=lambda e: (e.request.hop_index,
                                      e.request.attempt))
        earliest = max(chain[0].request.release_slot,
                       bounds.get(key, -1) + 1)
        for entry in chain:
            request = entry.request
            rho = NO_REUSE if request.link in barred else rho_floor
            if prov is not None:
                prov.begin_decision(f"{policy_name}+repair", request,
                                    earliest)
            placement = find_slot(work, graph, request, rho, earliest,
                                  offset_rule)
            # The same protection the rebuild's barrier policy gives:
            # never join a cell that already holds a barred occupant.
            while (placement is not None and rho != NO_REUSE
                   and _cell_holds_barred(work, placement[0], placement[1],
                                          barred)):
                placement = find_slot(work, graph, request, rho,
                                      placement[0] + 1, offset_rule)
            if placement is None:
                if prov is not None:
                    prov.end_decision(None)
                return request
            slot, offset = placement
            if prov is not None:
                prov.end_decision(placement,
                                  reused=work.cell_size(slot, offset) > 0)
            work.add(request, slot, offset)
            earliest = slot + 1
    return None
