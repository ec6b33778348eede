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
  this module's own code and compared with what the schedule reports.
  This subsumes :meth:`repro.core.schedule.Schedule.validate_basic` but
  returns structured violations instead of asserting.

The auditor is the acceptance gate of the differential fuzzer
(:mod:`repro.validate.fuzz`), the ``repro validate`` CLI command, and
the network manager's post-rebuild rollback check
(:mod:`repro.manager.loop`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.schedule import Schedule
from repro.core.transmissions import ATTEMPTS_PER_LINK, expand_instance
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

    def kinds(self) -> List[str]:
        """Sorted distinct violation kinds (test/diagnostic helper)."""
        return sorted({v.kind for v in self.violations})

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
    re-derived from the raw entry list alone."""
    nodes_in_slot: Dict[int, Dict[int, str]] = {}
    for entry in schedule.entries:
        request = entry.request
        if not 0 <= entry.slot < schedule.num_slots:
            collect.add("bounds", f"{request}: slot {entry.slot} outside "
                        f"[0, {schedule.num_slots})", slot=entry.slot,
                        flow_id=request.flow_id)
            continue
        if not 0 <= entry.offset < schedule.num_offsets:
            collect.add("bounds", f"{request}: offset {entry.offset} "
                        f"outside [0, {schedule.num_offsets})",
                        slot=entry.slot, offset=entry.offset,
                        flow_id=request.flow_id)
            continue
        for node in (request.sender, request.receiver):
            if not 0 <= node < schedule.num_nodes:
                collect.add("bounds", f"{request}: node {node} outside "
                            f"[0, {schedule.num_nodes})",
                            flow_id=request.flow_id)
        seen = nodes_in_slot.setdefault(entry.slot, {})
        for node in (request.sender, request.receiver):
            other = seen.get(node)
            if other is not None:
                collect.add(
                    "node_conflict",
                    f"slot {entry.slot}: node {node} used by both "
                    f"{other} and {request}", slot=entry.slot,
                    flow_id=request.flow_id)
            seen[node] = str(request)
        if entry.slot < request.release_slot:
            collect.add(
                "window", f"{request}: slot {entry.slot} before release "
                f"{request.release_slot}", slot=entry.slot,
                flow_id=request.flow_id)
        if entry.slot > request.deadline_slot:
            collect.add(
                "window", f"{request}: slot {entry.slot} after deadline "
                f"{request.deadline_slot}", slot=entry.slot,
                flow_id=request.flow_id)


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
    """Placed attempts vs a fresh expansion of every release.

    Never the flow set's memoized
    :func:`~repro.core.transmissions.request_plan`: the schedulers
    place from that plan, so a fault in it must show up here as a
    missing or unexpected placement.

    When ``expect_complete`` is False (a partial schedule from an
    unschedulable run) only *unexpected* and *duplicated* attempts are
    flagged; missing ones are the expected failure mode.
    """
    hyperperiod = flow_set.hyperperiod()
    expected = Counter()
    for flow in flow_set:
        for instance in flow.instances(hyperperiod):
            expected.update(expand_instance(instance, attempts_per_link))
    placed = Counter(entry.request for entry in schedule.entries)
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
    barred-link exclusivity check."""
    for slot, offset, transmissions in schedule.occupied_cells():
        if barred and len(transmissions) > 1:
            for entry in transmissions:
                if entry.request.link in barred:
                    collect.add(
                        "barred_reuse",
                        f"cell ({slot},{offset}): barred link "
                        f"{entry.request.link} shares the cell",
                        slot=slot, offset=offset,
                        flow_id=entry.request.flow_id)
        if len(transmissions) < 2:
            continue
        effective = math.inf
        for i, first in enumerate(transmissions):
            u, v = first.request.sender, first.request.receiver
            for second in transmissions[i + 1:]:
                x, y = second.request.sender, second.request.receiver
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


def _in_bounds(schedule: Schedule, entry) -> bool:
    """Whether an entry fits the schedule's dimensions (the ones that do
    not are reported as bounds violations and skipped here)."""
    return (0 <= entry.slot < schedule.num_slots
            and 0 <= entry.offset < schedule.num_offsets
            and 0 <= entry.request.sender < schedule.num_nodes
            and 0 <= entry.request.receiver < schedule.num_nodes)


def _audit_bookkeeping(schedule: Schedule, collect: _Collector) -> None:
    """Busy bits, cell index, used-offset masks and full slots vs the
    entry list (subsumes ``validate_basic``)."""
    busy_check = np.zeros((schedule.num_nodes, schedule.num_slots),
                          dtype=bool)
    cells_check: Dict[Tuple[int, int], List[int]] = {}
    masks_check = [0] * schedule.num_slots
    for index, entry in enumerate(schedule.entries):
        if not _in_bounds(schedule, entry):
            continue
        busy_check[entry.request.sender, entry.slot] = True
        busy_check[entry.request.receiver, entry.slot] = True
        cells_check.setdefault((entry.slot, entry.offset), []).append(index)
        masks_check[entry.slot] |= 1 << entry.offset

    busy = schedule.busy_matrix()
    if not np.array_equal(busy_check, busy):
        diff = np.argwhere(busy_check != busy)
        node, slot = (int(diff[0][0]), int(diff[0][1]))
        collect.add(
            "busy_matrix",
            f"busy matrix disagrees with entries at (node {node}, "
            f"slot {slot}) and {len(diff) - 1} more place(s)", slot=slot)

    cells = schedule._cells
    for slot, offset in sorted(set(cells) | set(cells_check)):
        actual = list(cells.get((slot, offset), ()))
        expected = cells_check.get((slot, offset), [])
        if actual != expected:
            collect.add(
                "occupancy",
                f"cell ({slot},{offset}): cell index lists entries "
                f"{actual} but the entry list places {expected}",
                slot=slot, offset=offset)

    has_free = schedule.free_offset_slots(0, schedule.num_slots - 1).tolist()
    for slot, expected_mask in enumerate(masks_check):
        actual = set(schedule.used_offsets(slot))
        expected = {offset for offset in range(schedule.num_offsets)
                    if expected_mask >> offset & 1}
        if actual != expected:
            collect.add(
                "occupancy",
                f"slot {slot}: used-offset mask says {sorted(actual)} but "
                f"entries occupy {sorted(expected)}", slot=slot)
        if has_free[slot] == (len(expected) == schedule.num_offsets):
            collect.add(
                "occupancy",
                f"slot {slot}: full-slot bitset marks it "
                f"{'open' if has_free[slot] else 'full'} but entries "
                f"occupy {sorted(expected)} of {schedule.num_offsets} "
                f"offsets", slot=slot)


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
