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

RC places through a fused descent that walks each placement's window
once for all its finite-ρ probes, and an unrecorded descent whose ρ = ∞
laxity is too negative for any finite probe to recover skips the walk
(Eq. 1's bound).  The loop as printed — ``findSlot`` then
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

from repro.core.constraints import NO_REUSE, max_admissible_rho
from repro.core.laxity import calculate_laxity
from repro.core.ra import DEFAULT_RHO_T
from repro.core.schedule import Schedule
from repro.core.scheduler import (
    OFFSET_LEAST_LOADED,
    OFFSET_RULES,
    find_slot,
    pick_offset,
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
    request at descending ρ, which reads one walk over the window
    instead of rescanning every cell per ρ (the ``RC@`` cells of
    ``BENCH_schedulers.json``).
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
        selects the stepwise loop, its oracle.  Under a recorder both
        count and narrate every probe, laxity evaluation and ρ step
        identically; without one the fused descent may skip probes that
        cannot change the placement (Eq. 1's bound,
        :meth:`_descend_fused`).
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
        """Algorithm 1's whole ρ descent, paid once per distinct slot.

        The stepwise loop re-runs ``findSlot`` and ``calculateLaxity``
        at every ρ.  Here the ρ = ∞ probe is the schedule's
        ``first_free_slot``, and the first finite ρ starts one ascending
        walk over the window's conflict-free slots that every later ρ
        of the placement reads.  The walk keeps only its running maxima
        of :func:`~repro.core.constraints.max_admissible_rho`, each as
        ``(value, slot, slots walked so far)``: a probe at ρ takes the
        first kept maximum that reaches ρ, which is the earliest slot
        with an offset feasible at ρ, and the walk extends only while
        none does.  A slot with a free offset reads ∞, so the walk never
        passes the ρ = ∞ probe's slot.

        As ρ falls the probed slot never moves later, so a probe
        carries what the last one learned.  The kept maximum's index
        only falls: it starts at the newest maximum after the walk
        extends (it reached ρ, or ran dry) and steps left while the
        maximum before it still reaches ρ.  Equation 1 is read once per
        distinct probed slot, as a lookup in the instance's packed
        conflict bits (:class:`repro.core.laxity.LaxityTable`), which
        ``remaining``, the engine's :class:`RequestWindow`, reads; a
        probe that lands on the last probed slot reuses its laxity.
        Placements, exit ρ, counters and provenance are identical to
        the stepwise loop's: both pick the earliest feasible slot per ρ
        and descend under the same laxity rule.

        Unrecorded, a descent whose ρ = ∞ probe reads a negative laxity
        at slot s∞ may end there, at Eq. 1's bound.  Every finite probe
        lands on a conflict-free slot in [f, s∞], f the window's first,
        since s∞ has a free offset.  Eq. 1 at a slot s ≤ s∞ is at most
        laxity(s∞) + (s∞ − s), because its ``q`` sums only grow as the
        window (s, d] widens.  So when laxity(s∞) + (s∞ − f) < 0 and
        λ_R ≥ ρ_t, no probe can stop the descent: it runs to ρ_t and
        keeps that probe, ``find_slot`` at ρ_t, exiting at ρ_t − 1.  A
        recorded run walks on, because its counters and provenance are
        the per-probe record.
        """
        rho_t = self.rho_t
        prov = recorder.provenance if recorder is not None else None
        deadline = request.deadline_slot
        sender, receiver = request.sender, request.receiver
        width = deadline - earliest + 1
        # The window's conflict-free slots, ascending, walked lazily
        # from the first finite ρ.
        walk = None
        maxima = []           # the walk's running maxima
        kept = -1             # the kept maximum's index in ``maxima``
        floor = walked = 0    # the largest value so far, slots walked
        laxity_slot, laxity = -1, 0   # the slot Eq. 1 last read, its value
        triggered = False
        best_slot: Optional[int] = None
        best_rho = rho
        while rho >= rho_t:
            slot = None
            if width <= 0:
                scanned = 0   # an empty window: the probe finds nothing
            elif rho == NO_REUSE:
                found = schedule.first_free_slot(sender, receiver,
                                                 earliest, deadline)
                if found >= 0:
                    slot = found
                scanned = found - earliest + 1 if found >= 0 else width
            else:
                if floor < rho:
                    # No kept maximum reaches ρ: extend the walk.
                    if walk is None:
                        walk = schedule.conflict_free_slots(
                            sender, receiver, earliest, deadline)
                    for candidate in walk:
                        walked += 1
                        value = max_admissible_rho(schedule, reuse_graph,
                                                   sender, receiver,
                                                   candidate, floor)
                        if value > floor:
                            floor = value
                            maxima.append((value, candidate, walked))
                            if value >= rho:
                                break
                    kept = len(maxima) - 1
                if floor >= rho:
                    while kept and maxima[kept - 1][0] >= rho:
                        kept -= 1
                    _, slot, scanned = maxima[kept]
                else:
                    scanned = walked
            if recorder is not None:
                recorder.count("scheduler.placements_tried")
                if scanned:
                    recorder.count("scheduler.slots_scanned", scanned)
                if prov is not None:
                    found = None if slot is None else (slot, pick_offset(
                        schedule, reuse_graph, sender, receiver, slot, rho,
                        self.offset_rule))
                    prov.record_probe(schedule, reuse_graph, request, rho,
                                      earliest, self.offset_rule, found)
            if slot is not None:
                best_slot, best_rho = slot, rho
                if slot != laxity_slot:
                    laxity_slot = slot
                    laxity = remaining.laxity(schedule, slot)
                if recorder is not None:
                    triggered = _note_laxity(recorder, slot, rho, laxity,
                                             triggered)
                if laxity >= 0:
                    break
                if (rho == NO_REUSE and recorder is None
                        and reuse_graph.diameter() >= rho_t
                        and laxity + slot < schedule.first_conflict_free_slot(
                            sender, receiver, earliest, deadline)):
                    # Eq. 1's bound: no finite probe can stop the
                    # descent, so it ends with the ρ_t probe.
                    return (find_slot(schedule, reuse_graph, request, rho_t,
                                      earliest, self.offset_rule),
                            rho_t, rho_t - 1)
            next_rho = reuse_graph.diameter() if rho == NO_REUSE else rho - 1
            if recorder is not None and next_rho >= rho_t:
                _note_descent(recorder, rho, next_rho)
            rho = next_rho

        # Only the kept probe's offset is used, so it is picked once,
        # here; provenance alone needs one per probe.
        best = None if best_slot is None else (best_slot, pick_offset(
            schedule, reuse_graph, sender, receiver, best_slot, best_rho,
            self.offset_rule))
        return best, best_rho, rho
