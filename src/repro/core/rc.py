"""RC — Reuse Conservatively (paper Algorithm 1).

RC first tries to place each transmission with channel reuse disabled
(ρ = ∞).  If the resulting flow laxity is non-negative — the remaining
transmissions of the flow still fit before the deadline — no reuse is
introduced.  Otherwise RC enables reuse starting from the *largest*
meaningful hop distance, λ_R (the reuse graph's diameter), and walks ρ
down toward the floor ρ_t until the laxity becomes non-negative, keeping
the interference risk as low as the deadline allows.  Among feasible
offsets, RC picks the least-loaded channel to limit cumulative
interference.

Interpretation note (see DESIGN.md §6): Algorithm 1 as printed resets
ρ ← ∞ once per *flow*, while the prose resets it per *transmission*.
The per-transmission reset is the more conservative reading and is the
default; ``rho_reset="flow"`` reproduces the literal pseudocode.

RC places through a fused descent that reads the distance lanes of
:mod:`repro.core.kernel`.  The loop as printed — ``findSlot`` then
``calculateLaxity`` per ρ — stays as its oracle; tests, the
differential fuzzer and ``repro bench`` run it inside
:func:`stepwise_descent`::

    with stepwise_descent():
        result = scheduler.run(flow_set)   # RC's oracle path
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernel as _kernel
from repro.core.constraints import NO_REUSE
from repro.core.laxity import calculate_laxity
from repro.core.ra import DEFAULT_RHO_T
from repro.core.schedule import Schedule
from repro.core.scheduler import (
    OFFSET_FIRST,
    OFFSET_LEAST_LOADED,
    OFFSET_RULES,
    find_slot,
)
from repro.core.transmissions import RequestWindow, TransmissionRequest
from repro.flows.flow import Flow
from repro.network.graphs import ChannelReuseGraph
from repro.obs import recorder as _obs

#: Buckets for the final-ρ fallback histogram (ρ is a small hop count).
_FALLBACK_RHO_BUCKETS = (1, 2, 3, 4, 5, 6, 8, 12)

#: Set inside :func:`stepwise_descent`: RC runs its stepwise oracle.
_STEPWISE = False


@contextmanager
def stepwise_descent() -> Iterator[None]:
    """Run RC on its stepwise loop, the fused descent's oracle, inside a
    ``with`` block.  A test, fuzz and benchmark hook; production never
    sets it."""
    global _STEPWISE
    previous = _STEPWISE
    _STEPWISE = True
    try:
        yield
    finally:
        _STEPWISE = previous


def _note_laxity(recorder, slot: int, rho: float, laxity: int,
                 triggered: bool) -> bool:
    """Record one Eq. 1 evaluation of a placement's descent.

    ``rc.laxity_triggers`` counts placements whose laxity went negative,
    so only the first negative evaluation of a placement counts; returns
    whether that has happened by now.
    """
    if recorder.provenance is not None:
        recorder.provenance.record_laxity(slot, rho, laxity)
    if laxity < 0 and not triggered:
        recorder.count("rc.laxity_triggers")
        return True
    return triggered


def _note_descent(recorder, from_rho: float, to_rho: float) -> None:
    """Record one ρ step of a placement's descent (a reuse fallback)."""
    recorder.count("rc.reuse_fallbacks")
    if recorder.provenance is not None:
        recorder.provenance.record_descent(from_rho, to_rho)


def _pick_offset(schedule: Schedule, reuse_graph: ChannelReuseGraph,
                 sender: int, receiver: int, slot: int, rho: float,
                 offset_rule: str) -> int:
    """The fused descent's channel offset in a slot feasible at ``rho``.

    At ρ = ∞ every feasible offset is an empty cell, so both rules pick
    the lowest free one.  At finite ρ the link's distance lane is
    thresholded against ρ, then ``"first"`` takes the lowest feasible
    offset and ``"least_loaded"`` the one with the fewest occupants, as
    ``find_slot`` picks for the stepwise loop.
    """
    if rho == NO_REUSE:
        return schedule.first_free_offset(slot)
    row = _kernel.min_reuse_distance(
        schedule, reuse_graph, sender, receiver, slot, slot)[0] >= rho
    if offset_rule == OFFSET_FIRST:
        return int(np.argmax(row))
    offsets = np.flatnonzero(row)
    counts = schedule.occupancy()[0][slot, offsets]
    # argmin returns the first minimum; offsets ascend, so ties break
    # toward the lowest offset like the scalar (cell_size, offset) key.
    return int(offsets[int(np.argmin(counts))])


#: Valid values for the ρ reset scope.
RHO_RESET_TRANSMISSION = "transmission"
RHO_RESET_FLOW = "flow"


@dataclass
class ConservativeReusePolicy:
    """The RC placement policy (Algorithm 1's inner loop).

    Attributes:
        rho_t: Minimum admissible reuse hop count (the floor; 2 in the
            paper's evaluation, matching RA for fairness).
        rho_reset: ``"transmission"`` (default, prose reading) resets
            ρ ← ∞ before every transmission; ``"flow"`` resets once per
            flow as in the printed pseudocode.
        offset_rule: Channel-offset selection within the chosen slot.
            The paper's RC picks the least-loaded feasible channel
            (default); ``"first"`` is available for ablation studies.

    RC places through its fused descent: Algorithm 1 re-tests the same
    request at descending ρ, which re-thresholds one incrementally
    maintained distance lane instead of rescanning every cell per ρ
    (the ``RC@`` cells of ``BENCH_schedulers.json``).
    """

    rho_t: int = DEFAULT_RHO_T
    rho_reset: str = RHO_RESET_TRANSMISSION
    offset_rule: str = OFFSET_LEAST_LOADED
    name: str = "RC"
    _rho: float = field(default=NO_REUSE, repr=False)

    def __post_init__(self) -> None:
        if self.rho_t < 1:
            raise ValueError("rho_t must be at least 1")
        if self.rho_reset not in (RHO_RESET_TRANSMISSION, RHO_RESET_FLOW):
            raise ValueError(f"unknown rho_reset: {self.rho_reset}")
        if self.offset_rule not in OFFSET_RULES:
            raise ValueError(f"unknown offset rule: {self.offset_rule}")

    def start_flow(self, flow: Flow) -> None:
        """Reset ρ at flow boundaries (always correct for both modes)."""
        self._rho = NO_REUSE

    def provenance_context(self) -> dict:
        """Static policy parameters stamped onto decision records."""
        return {"rho_t": self.rho_t, "rho_reset": self.rho_reset,
                "offset_rule": self.offset_rule}

    def place(self, schedule: Schedule, reuse_graph: ChannelReuseGraph,
              request: TransmissionRequest, earliest: int,
              remaining: Sequence[TransmissionRequest],
              ) -> Optional[Tuple[int, int]]:
        """Find the placement with the least channel reuse that keeps laxity ≥ 0.

        Mirrors Algorithm 1: repeatedly call ``findSlot`` and
        ``calculateLaxity``, relaxing ρ from ∞ to λ_R and downward until
        the laxity is non-negative or ρ falls below ρ_t.  The last
        placement found is used even if its laxity stayed negative (the
        laxity estimate is conservative); the engine rejects it only if
        it misses the deadline — which ``findSlot`` already enforces.

        Production runs the fused descent; :func:`stepwise_descent`
        selects the stepwise loop, its oracle.  Both count and narrate
        every probe, laxity evaluation and ρ step identically;
        the recorder only decides whether they do.
        """
        recorder = _obs.RECORDER if _obs.ENABLED else None
        if recorder is not None:
            recorder.count("policy.RC.place_calls")
        rho = (NO_REUSE if self.rho_reset == RHO_RESET_TRANSMISSION
               else self._rho)
        descend = (self._descend_stepwise if _STEPWISE
                   else self._descend_fused)
        best, best_rho, rho = descend(schedule, reuse_graph, request,
                                      earliest, remaining, rho, recorder)

        if recorder is not None and best is not None and best_rho != NO_REUSE:
            recorder.observe("rc.fallback_rho", int(best_rho),
                             _FALLBACK_RHO_BUCKETS)

        if self.rho_reset == RHO_RESET_FLOW:
            # Persist ρ across the flow's remaining transmissions, clamped
            # to the admissible floor: an exhausted descent exits the
            # loop at ρ_t - 1 (and a degenerate diameter leaves
            # ρ = λ_R < ρ_t), but Algorithm 1 keeps ρ monotone
            # non-increasing within a flow and never below ρ_t — in
            # particular a flow never retries ρ = ∞ after a descent ran
            # dry, not even one whose window was empty.
            self._rho = max(rho, self.rho_t)
        else:
            self._rho = NO_REUSE
        return best

    def _descend_stepwise(self, schedule: Schedule,
                          reuse_graph: ChannelReuseGraph,
                          request: TransmissionRequest, earliest: int,
                          remaining: Sequence[TransmissionRequest],
                          rho: float, recorder) -> tuple:
        """The descent as printed: ``findSlot`` then ``calculateLaxity``
        per ρ.  The fused descent's oracle (:func:`stepwise_descent`).

        Returns ``(placement, its ρ, the ρ the descent exited at)``.
        Each loop steps ρ from ∞ to λ_R, then down by one; a step below
        ρ_t ends the descent (so does a degenerate λ_R < ρ_t) and is not
        recorded as a fallback.
        """
        rho_t = self.rho_t
        triggered = False
        best: Optional[Tuple[int, int]] = None
        best_rho = rho
        while rho >= rho_t:
            found = find_slot(schedule, reuse_graph, request, rho,
                              earliest, self.offset_rule)
            if found is not None:
                best, best_rho = found, rho
                laxity = calculate_laxity(
                    schedule, found[0], request.deadline_slot, remaining)
                if recorder is not None:
                    triggered = _note_laxity(recorder, found[0], rho,
                                             laxity, triggered)
                if laxity >= 0:
                    break
            next_rho = reuse_graph.diameter() if rho == NO_REUSE else rho - 1
            if recorder is not None and next_rho >= rho_t:
                _note_descent(recorder, rho, next_rho)
            rho = next_rho
        return best, best_rho, rho

    def _descend_fused(self, schedule: Schedule,
                       reuse_graph: ChannelReuseGraph,
                       request: TransmissionRequest, earliest: int,
                       remaining: RequestWindow, rho: float,
                       recorder) -> tuple:
        """Algorithm 1's whole ρ descent against precomputed windows.

        The stepwise loop re-runs ``findSlot`` and ``calculateLaxity``
        at every ρ.  This path evaluates each ρ probe against the
        link's incrementally-maintained best-distance lane
        (:mod:`repro.core.kernel`): one running maximum per placement,
        then a single ``searchsorted`` per ρ.  Equation 1 is a lookup in the
        instance's table (:class:`repro.core.laxity.LaxityTable`),
        built at the instance's first evaluation.  Placements, exit ρ,
        counters and provenance are identical to the stepwise
        loop's: both pick the earliest feasible slot per ρ and descend
        under the same laxity rule.

        ``remaining`` is the engine's :class:`RequestWindow`, which
        reads the instance's table.
        """
        rho_t = self.rho_t
        prov = recorder.provenance if recorder is not None else None
        deadline = request.deadline_slot
        sender, receiver = request.sender, request.receiver
        width = deadline - earliest + 1
        prefix = None         # running max of best eligible distance
        triggered = False
        best_slot: Optional[int] = None
        best_rho = rho
        while rho >= rho_t:
            slot = None
            if width <= 0:
                scanned = 0   # an empty window: the probe finds nothing
            elif rho == NO_REUSE:
                free = schedule.nr_candidate_slots(sender, receiver,
                                                   earliest, deadline)
                rel = int(free.argmax())
                if free[rel]:
                    slot = earliest + rel
                scanned = rel + 1 if slot is not None else width
            else:
                if prefix is None:
                    eligible = ~schedule.conflict_mask(sender, receiver,
                                                       earliest, deadline)
                    distance = _kernel.best_reuse_distance(
                        schedule, reuse_graph, sender, receiver,
                        earliest, deadline)
                    masked = np.where(eligible, distance, np.int32(-1))
                    prefix = np.maximum.accumulate(masked)
                # prefix is non-decreasing, so the earliest slot whose
                # best distance reaches ρ is a binary search away.
                pos = int(prefix.searchsorted(rho, side="left"))
                if pos < width:
                    slot = earliest + pos
                scanned = (int(np.count_nonzero(eligible[:pos + 1]))
                           if recorder is not None else 0)
            if recorder is not None:
                recorder.count("scheduler.placements_tried")
                if scanned:
                    recorder.count("scheduler.slots_scanned", scanned)
                if prov is not None:
                    found = None if slot is None else (slot, _pick_offset(
                        schedule, reuse_graph, sender, receiver, slot, rho,
                        self.offset_rule))
                    prov.record_probe(schedule, reuse_graph, request, rho,
                                      earliest, self.offset_rule, found)
            if slot is not None:
                best_slot, best_rho = slot, rho
                laxity = remaining.laxity(schedule, slot)
                if recorder is not None:
                    triggered = _note_laxity(recorder, slot, rho, laxity,
                                             triggered)
                if laxity >= 0:
                    break
            next_rho = reuse_graph.diameter() if rho == NO_REUSE else rho - 1
            if recorder is not None and next_rho >= rho_t:
                _note_descent(recorder, rho, next_rho)
            rho = next_rho

        # Only the kept probe's offset is used, so it is picked once,
        # here; provenance alone needs one per probe.
        best = None if best_slot is None else (best_slot, _pick_offset(
            schedule, reuse_graph, sender, receiver, best_slot, best_rho,
            self.offset_rule))
        return best, best_rho, rho
