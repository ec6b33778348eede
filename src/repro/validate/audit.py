"""Independent full-schedule auditor (the paper's correctness contract).

The schedulers *construct* schedules under the Section V-A constraints;
this module *re-derives* those constraints for a finished schedule from
first principles, sharing no code with the placement hot paths it
audits.  For every placed transmission it checks:

* **Transmission-conflict freedom** — no two transmissions in a slot
  share a node (half-duplex radios, Section V-A constraint 1);
* **Release / deadline satisfaction** — every attempt sits inside its
  instance's ``[release, deadline]`` window;
* **Precedence** — an instance's attempts occupy strictly increasing
  slots in hop-major, attempt-minor order (source routing, Section VII);
* **Completeness** — a schedulable result placed every expected attempt
  of every release exactly once (against a fresh
  :func:`~repro.core.transmissions.expand_instance` expansion);
* **The ρ-hop channel constraint** — for every *shared* cell, the
  effective reuse distance (the minimum over occupant pairs of
  ``min(hops[u, y], hops[x, v])`` on G_R) is reported and flagged when
  it falls below the policy's floor ρ_t (Algorithm 1's weakest
  admissible constraint);
* **Bookkeeping cross-checks** — the schedule's indexes (the per-node
  busy bitsets, each cell's entry indices in placement order, each
  slot's used-offset bitmask and the bitset of full slots) must all
  agree with the entry list.  Each is recomputed from the entries with
  this module's own code, in the store's own form, and compared with
  the schedule's store as a whole; only what differs is formatted.
  Violations come back structured, never as assertions.

The auditor is the acceptance gate of the differential fuzzer
(:mod:`repro.validate.fuzz`), the ``repro validate`` CLI command, and
the network manager's post-rebuild rollback check
(:mod:`repro.manager.loop`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, count
from operator import attrgetter, ne
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.schedule import Schedule
from repro.core.transmissions import (ATTEMPTS_PER_LINK, TransmissionRequest,
                                      expand_instance)
from repro.flows.flow import FlowSet
from repro.network.graphs import UNREACHABLE, ChannelReuseGraph

#: Directed link type used throughout the manager.
Link = Tuple[int, int]

#: Hard cap on collected violations: a corrupt schedule should produce
#: a diagnosable artifact, not an unbounded dump.
MAX_VIOLATIONS = 200


@dataclass(frozen=True)
class Violation:
    """One audited invariant that did not hold.

    Attributes:
        kind: Machine-matchable category — one of ``bounds``,
            ``node_conflict``, ``window``, ``precedence``,
            ``completeness``, ``rho_floor``, ``barred_reuse``,
            ``busy_matrix``, ``occupancy``.
        message: Human-readable diagnostic with the precise location.
        slot / offset / flow_id: Location fields when meaningful.
    """

    kind: str
    message: str
    slot: Optional[int] = None
    offset: Optional[int] = None
    flow_id: Optional[int] = None

    def to_dict(self) -> Dict:
        """JSON-serializable form (location fields omitted when unset)."""
        payload: Dict = {"kind": self.kind, "message": self.message}
        for key in ("slot", "offset", "flow_id"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return payload


@dataclass
class AuditReport:
    """Outcome of auditing one schedule.

    Attributes:
        num_entries: Transmissions audited.
        num_shared_cells: Cells holding more than one transmission.
        rho_floor: The floor the shared cells were checked against.
        cell_rho: Effective reuse distance of every shared cell —
            ``math.inf`` when every occupant pair is mutually
            unreachable on G_R.
        violations: Everything that failed, in discovery order (capped
            at :data:`MAX_VIOLATIONS`).
        truncated: Whether the violation list hit the cap.
    """

    num_entries: int
    num_shared_cells: int
    rho_floor: float
    cell_rho: Dict[Tuple[int, int], float] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)
    truncated: bool = False

    @property
    def ok(self) -> bool:
        """Whether every audited invariant held."""
        return not self.violations

    def min_effective_rho(self) -> Optional[float]:
        """The tightest effective ρ over all shared cells (None if no
        cell is shared)."""
        if not self.cell_rho:
            return None
        return min(self.cell_rho.values())

    def to_dict(self) -> Dict:
        """JSON-serializable form (∞ serializes as None)."""
        min_rho = self.min_effective_rho()
        return {
            "ok": self.ok,
            "num_entries": self.num_entries,
            "num_shared_cells": self.num_shared_cells,
            "rho_floor": (None if self.rho_floor == math.inf
                          else self.rho_floor),
            "min_effective_rho": (
                None if min_rho is None or min_rho == math.inf
                else min_rho),
            "cell_rho": {
                f"{slot},{offset}": (None if rho == math.inf else rho)
                for (slot, offset), rho in sorted(self.cell_rho.items())},
            "violations": [v.to_dict() for v in self.violations],
            "truncated": self.truncated,
        }

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        if self.ok:
            min_rho = self.min_effective_rho()
            rho_note = ("no shared cells" if min_rho is None else
                        f"min effective rho "
                        f"{'inf' if min_rho == math.inf else int(min_rho)}")
            return (f"audit OK: {self.num_entries} transmissions, "
                    f"{self.num_shared_cells} shared cells, {rho_note}")
        head = (f"audit FAILED: {len(self.violations)} violation(s)"
                f"{' (truncated)' if self.truncated else ''} over "
                f"{self.num_entries} transmissions")
        lines = [head] + [f"  [{v.kind}] {v.message}"
                          for v in self.violations[:10]]
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more")
        return "\n".join(lines)


class _Collector:
    """Accumulates violations up to the cap."""

    def __init__(self, report: AuditReport):
        self.report = report

    def add(self, kind: str, message: str, slot: Optional[int] = None,
            offset: Optional[int] = None,
            flow_id: Optional[int] = None) -> None:
        if len(self.report.violations) >= MAX_VIOLATIONS:
            self.report.truncated = True
            return
        self.report.violations.append(
            Violation(kind=kind, message=message, slot=slot, offset=offset,
                      flow_id=flow_id))


def _pair_distance(reuse_graph: ChannelReuseGraph, a: int, b: int) -> float:
    """Reuse-graph hop distance with unreachable mapped to ∞."""
    hops = reuse_graph.hop_distance(a, b)
    return math.inf if hops == UNREACHABLE else float(hops)


def _audit_placements(schedule: Schedule, collect: _Collector) -> None:
    """Bounds, per-slot node conflicts, and window satisfaction —
    re-derived from the raw entry list alone.  Each (slot, node) keeps
    the last request that used it, formatted only into a conflict's
    message."""
    num_slots, num_offsets = schedule.num_slots, schedule.num_offsets
    num_nodes = schedule.num_nodes
    last_user: Dict[Tuple[int, int], TransmissionRequest] = {}
    for request, slot, offset in schedule.entries:
        flow_id, _, _, _, sender, receiver, release, deadline = request
        if not 0 <= slot < num_slots:
            collect.add("bounds", f"{request}: slot {slot} outside "
                        f"[0, {num_slots})", slot=slot, flow_id=flow_id)
            continue
        if not 0 <= offset < num_offsets:
            collect.add("bounds", f"{request}: offset {offset} "
                        f"outside [0, {num_offsets})", slot=slot,
                        offset=offset, flow_id=flow_id)
            continue
        for node in (sender, receiver):
            if not 0 <= node < num_nodes:
                collect.add("bounds", f"{request}: node {node} outside "
                            f"[0, {num_nodes})", flow_id=flow_id)
        for node in (sender, receiver):
            other = last_user.get((slot, node))
            if other is not None:
                collect.add(
                    "node_conflict",
                    f"slot {slot}: node {node} used by both {other} and "
                    f"{request}", slot=slot, flow_id=flow_id)
            last_user[(slot, node)] = request
        if slot < release:
            collect.add(
                "window", f"{request}: slot {slot} before release "
                f"{release}", slot=slot, flow_id=flow_id)
        if slot > deadline:
            collect.add(
                "window", f"{request}: slot {slot} after deadline "
                f"{deadline}", slot=slot, flow_id=flow_id)


def _audit_precedence(schedule: Schedule, collect: _Collector) -> None:
    """Attempts of one release must occupy strictly increasing slots in
    hop-major, attempt-minor order."""
    by_instance: Dict[Tuple[int, int], List] = {}
    for entry in schedule.entries:
        key = (entry.request.flow_id, entry.request.instance)
        by_instance.setdefault(key, []).append(entry)
    for (flow_id, instance), entries in sorted(by_instance.items()):
        ordered = sorted(
            entries, key=lambda e: (e.request.hop_index, e.request.attempt))
        for earlier, later in zip(ordered, ordered[1:]):
            if later.slot <= earlier.slot:
                collect.add(
                    "precedence",
                    f"F{flow_id}[{instance}]: {later.request} at slot "
                    f"{later.slot} does not follow {earlier.request} at "
                    f"slot {earlier.slot}", slot=later.slot,
                    flow_id=flow_id)


def _audit_completeness(schedule: Schedule, flow_set: FlowSet,
                        attempts_per_link: int, expect_complete: bool,
                        collect: _Collector) -> None:
    """Placed attempts vs a fresh expansion of every release, as two
    multisets; only their differences are formatted.

    Never the flow set's memoized
    :func:`~repro.core.transmissions.request_plan`: the schedulers
    place from that plan, so a fault in it must show up here as a
    missing or unexpected placement.

    When ``expect_complete`` is False (a partial schedule from an
    unschedulable run) only *unexpected* and *duplicated* attempts are
    flagged; missing ones are the expected failure mode.
    """
    hyperperiod = flow_set.hyperperiod()
    expected = Counter(chain.from_iterable(
        expand_instance(instance, attempts_per_link)
        for flow in flow_set for instance in flow.instances(hyperperiod)))
    placed = Counter(map(attrgetter("request"), schedule.entries))
    if placed.items() == expected.items():
        return
    for request, count in sorted(
            (placed - expected).items(), key=lambda item: str(item[0])):
        kind = "unexpected" if request not in expected else "duplicate"
        collect.add(
            "completeness",
            f"{request}: placed {count} extra time(s) ({kind} for this "
            f"flow set)", flow_id=request.flow_id)
    if expect_complete:
        for request, count in sorted(
                (expected - placed).items(), key=lambda item: str(item[0])):
            collect.add(
                "completeness",
                f"{request}: missing {count} placement(s)",
                flow_id=request.flow_id)


def _audit_reuse(schedule: Schedule, reuse_graph: ChannelReuseGraph,
                 rho_floor: float, barred: frozenset,
                 report: AuditReport, collect: _Collector) -> None:
    """Effective ρ of every shared cell, the floor check, and the
    barred-link exclusivity check (a cell with one occupant passes
    both)."""
    entries = schedule.entries
    for slot, offset, indices in schedule.reused_cell_indices():
        requests = [entries[i].request for i in indices]
        for request in requests:
            if request.link in barred:
                collect.add(
                    "barred_reuse",
                    f"cell ({slot},{offset}): barred link "
                    f"{request.link} shares the cell",
                    slot=slot, offset=offset, flow_id=request.flow_id)
        effective = math.inf
        for i, first in enumerate(requests):
            u, v = first.sender, first.receiver
            for second in requests[i + 1:]:
                x, y = second.sender, second.receiver
                effective = min(effective,
                                _pair_distance(reuse_graph, u, y),
                                _pair_distance(reuse_graph, x, v))
        report.cell_rho[(slot, offset)] = effective
        if effective < rho_floor:
            collect.add(
                "rho_floor",
                f"cell ({slot},{offset}): effective rho "
                f"{'inf' if effective == math.inf else int(effective)} "
                f"below floor {rho_floor}", slot=slot, offset=offset)
    report.num_shared_cells = len(report.cell_rho)


def _set_bits(bits: int) -> Iterator[int]:
    """Positions of the set bits of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _audit_bookkeeping(schedule: Schedule, collect: _Collector) -> None:
    """Busy bits, cell index, used-offset masks and full slots vs the
    entry list.

    One pass over the entries re-derives every index in the store's own
    form — slot bitsets, index tuples, offset masks — and each is
    compared with the schedule's store as a whole, so only the nodes,
    cells and slots that differ are visited and formatted.
    """
    num_slots, num_offsets = schedule.num_slots, schedule.num_offsets
    num_nodes = schedule.num_nodes
    all_offsets = (1 << num_offsets) - 1
    busy = [0] * num_nodes
    cells: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    masks = [0] * num_slots
    full = 0
    for index, (request, slot, offset) in enumerate(schedule.entries):
        sender, receiver = request.sender, request.receiver
        if not (0 <= slot < num_slots and 0 <= offset < num_offsets
                and 0 <= sender < num_nodes and 0 <= receiver < num_nodes):
            continue  # a bounds violation, reported by _audit_placements
        bit = 1 << slot
        busy[sender] |= bit
        busy[receiver] |= bit
        cell = (slot, offset)
        cells[cell] = cells.get(cell, ()) + (index,)
        mask = masks[slot] | 1 << offset
        masks[slot] = mask
        if mask == all_offsets:
            full |= bit

    window = (1 << num_slots) - 1
    busy_diff = [(held ^ derived) & window
                 for held, derived in zip(schedule._busy, busy)]
    places = sum(map(int.bit_count, busy_diff))
    if places:
        node = next(compress(count(), busy_diff))
        slot = next(_set_bits(busy_diff[node]))
        collect.add(
            "busy_matrix",
            f"busy matrix disagrees with entries at (node {node}, "
            f"slot {slot}) and {places - 1} more place(s)", slot=slot)

    held_cells = schedule._cells
    for slot, offset in sorted(
            {cell for cell, _ in held_cells.items() ^ cells.items()}):
        held = list(held_cells.get((slot, offset), ()))
        derived = list(cells.get((slot, offset), ()))
        # An empty index tuple and an absent cell both list no entries.
        if held != derived:
            collect.add(
                "occupancy",
                f"cell ({slot},{offset}): cell index lists entries "
                f"{held} but the entry list places {derived}",
                slot=slot, offset=offset)

    held_masks = schedule._used_mask
    full_diff = (schedule._full ^ full) & window
    mask_diff = sum(1 << slot for slot in compress(
        count(), map(ne, held_masks, masks)))
    for slot in _set_bits(mask_diff | full_diff):
        derived = list(_set_bits(masks[slot]))
        if mask_diff >> slot & 1:
            collect.add(
                "occupancy",
                f"slot {slot}: used-offset mask says "
                f"{list(_set_bits(held_masks[slot]))} but entries occupy "
                f"{derived}", slot=slot)
        if full_diff >> slot & 1:
            collect.add(
                "occupancy",
                f"slot {slot}: full-slot bitset marks it "
                f"{'full' if schedule._full >> slot & 1 else 'open'} but "
                f"entries occupy {derived} of {num_offsets} offsets",
                slot=slot)


def audit_schedule(schedule: Schedule,
                   reuse_graph: ChannelReuseGraph,
                   rho_floor: float,
                   flow_set: Optional[FlowSet] = None,
                   attempts_per_link: int = ATTEMPTS_PER_LINK,
                   expect_complete: bool = True,
                   barred_links: Iterable[Link] = ()) -> AuditReport:
    """Audit a finished schedule against the paper's correctness contract.

    Args:
        schedule: The schedule to audit.
        reuse_graph: G_R — hop distances gate the channel constraint.
        rho_floor: The weakest reuse hop count any placement may have
            used (ρ_t for RA / RC; any shared cell below it is flagged).
        flow_set: The routed flows the schedule was built from; enables
            the precedence-completeness checks.  ``None`` audits the
            schedule standalone (placement, reuse, and bookkeeping
            checks only — precedence within each (flow, instance) group
            is still checked from the entries themselves).
        attempts_per_link: Source-routing expansion factor used when the
            schedule was built (completeness check).
        expect_complete: Set False for the partial schedule of an
            unschedulable run — missing placements are then not flagged.
        barred_links: Links that must not share any cell (the manager's
            accumulated no-reuse set; both directions are enforced).

    Returns:
        An :class:`AuditReport`; ``report.ok`` is the verdict.
    """
    if reuse_graph.num_nodes != schedule.num_nodes:
        raise ValueError("reuse graph size does not match the schedule")
    report = AuditReport(num_entries=len(schedule), num_shared_cells=0,
                         rho_floor=rho_floor)
    collect = _Collector(report)
    barred = frozenset(link for u, v in barred_links
                       for link in ((u, v), (v, u)))

    _audit_placements(schedule, collect)
    _audit_precedence(schedule, collect)
    if flow_set is not None:
        _audit_completeness(schedule, flow_set, attempts_per_link,
                            expect_complete, collect)
    _audit_reuse(schedule, reuse_graph, rho_floor, barred, report, collect)
    _audit_bookkeeping(schedule, collect)
    return report
