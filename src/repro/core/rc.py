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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

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


def _jsonable_rho(rho: float):
    """ρ for trace payloads: ∞ (no reuse) serializes as None."""
    return None if rho == NO_REUSE else int(rho)

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

    RC runs on the vector kernel: Algorithm 1 re-tests the same request
    at descending ρ, which re-thresholds one incrementally maintained
    distance row instead of rescanning every cell per ρ (the RC
    ``speedup`` cells of ``BENCH_schedulers.json``).
    """

    kernel = _kernel.KERNEL_VECTOR

    rho_t: int = DEFAULT_RHO_T
    rho_reset: str = RHO_RESET_TRANSMISSION
    offset_rule: str = OFFSET_LEAST_LOADED
    name: str = "RC"
    _rho: float = field(default=NO_REUSE, repr=False)
    # Fused-path heuristic: did the previous placement descend past its
    # first probe?  Contention is bursty, so the last placement predicts
    # whether the O(1)-per-probe laxity table will pay for itself.
    _table_hint: bool = field(default=False, repr=False)

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
        """
        if not _obs.ENABLED and _kernel.vectorized(schedule):
            return self._place_fused(schedule, reuse_graph, request,
                                     earliest, remaining)

        if self.rho_reset == RHO_RESET_TRANSMISSION:
            self._rho = NO_REUSE
        rho = self._rho

        recorder = _obs.RECORDER if _obs.ENABLED else None
        prov = recorder.provenance if recorder is not None else None
        if recorder is not None:
            recorder.count("policy.RC.place_calls")
        laxity_triggered = False
        best: Optional[Tuple[int, int]] = None
        best_rho = rho
        while rho >= self.rho_t:
            found = find_slot(schedule, reuse_graph, request, rho,
                              earliest, self.offset_rule)
            if found is not None:
                best = found
                best_rho = rho
                laxity = calculate_laxity(
                    schedule, found[0], request.deadline_slot, remaining)
                if recorder is not None:
                    recorder.event(
                        "laxity_eval", flow=request.flow_id,
                        hop=request.hop_index, slot=found[0],
                        rho=_jsonable_rho(rho), laxity=laxity)
                    if prov is not None:
                        prov.record_laxity(found[0], rho, laxity)
                    if laxity < 0 and not laxity_triggered:
                        laxity_triggered = True
                        recorder.count("rc.laxity_triggers")
                if laxity >= 0:
                    break
            if rho == NO_REUSE:
                next_rho = reuse_graph.diameter()
                if next_rho < self.rho_t:
                    # Degenerate reuse graph: no finite hop count can be
                    # tried; stick with the no-reuse placement.
                    rho = next_rho
                    break
                if recorder is not None:
                    recorder.count("rc.reuse_fallbacks")
                    recorder.event(
                        "rc_fallback", flow=request.flow_id,
                        hop=request.hop_index,
                        from_rho=_jsonable_rho(rho),
                        to_rho=_jsonable_rho(next_rho))
                    if prov is not None:
                        prov.record_descent(rho, next_rho)
                rho = next_rho
            else:
                if recorder is not None and rho - 1 >= self.rho_t:
                    recorder.count("rc.reuse_fallbacks")
                    recorder.event(
                        "rc_fallback", flow=request.flow_id,
                        hop=request.hop_index,
                        from_rho=_jsonable_rho(rho),
                        to_rho=_jsonable_rho(rho - 1))
                    if prov is not None:
                        prov.record_descent(rho, rho - 1)
                rho -= 1

        if recorder is not None and best is not None and best_rho != NO_REUSE:
            recorder.observe("rc.fallback_rho", int(best_rho),
                             _FALLBACK_RHO_BUCKETS)

        if self.rho_reset == RHO_RESET_FLOW:
            # Persist ρ across the flow's remaining transmissions, clamped
            # to the admissible floor: an exhausted descent exits the
            # loop at ρ_t - 1 (and the degenerate-diameter break leaves
            # ρ = λ_R < ρ_t), but Algorithm 1 keeps ρ monotone
            # non-increasing within a flow and never below ρ_t — in
            # particular a flow never retries ρ = ∞ after a descent ran
            # dry.  ``_place_fused`` mirrors this exactly, including its
            # ``earliest > deadline`` early return; the differential
            # fuzzer (repro.validate.fuzz) asserts the parity.
            self._rho = max(rho, self.rho_t)
        else:
            self._rho = NO_REUSE
        return best

    def _place_fused(self, schedule: Schedule,
                     reuse_graph: ChannelReuseGraph,
                     request: TransmissionRequest, earliest: int,
                     remaining: Sequence[TransmissionRequest],
                     ) -> Optional[Tuple[int, int]]:
        """Algorithm 1's whole ρ descent against precomputed windows.

        The stepwise loop above re-runs ``findSlot`` and
        ``calculateLaxity`` at every ρ; with the vectorized kernel the
        per-call work is tiny but the call overhead is not.  This path
        (taken when observability is off, so no per-call events need
        firing) evaluates each ρ probe against the kernel's
        incrementally-maintained best-distance view: one running maximum
        per placement, then a single ``searchsorted`` per ρ.  Laxity is
        evaluated directly for the first probe (the common immediate
        accept); if the descent continues, Equation 1 becomes a
        suffix-cumsum lookup so every further probe costs O(1).
        Placements are identical to the stepwise loop: both pick the
        earliest feasible slot per ρ and descend under the same laxity
        rule.
        """
        if self.rho_reset == RHO_RESET_TRANSMISSION:
            self._rho = NO_REUSE
        rho = self._rho
        rho_t = self.rho_t
        deadline = request.deadline_slot

        if earliest > deadline:
            # Every findSlot probe misses; the descent runs dry.  Mirror
            # the stepwise loop's exit ρ for the flow-scoped reset: from
            # ρ = ∞ it either breaks at a degenerate diameter (λ_R < ρ_t)
            # or walks down past the floor to ρ_t - 1; from a persisted
            # finite ρ it always exits at ρ_t - 1.  After the shared
            # ``max(ρ, ρ_t)`` clamp every branch persists exactly ρ_t,
            # so the flow never retries ρ = ∞ — matching the stepwise
            # loop's exhausted-descent behaviour bit for bit.
            if rho == NO_REUSE:
                next_rho = reuse_graph.diameter()
                rho = next_rho if next_rho < rho_t else rho_t - 1
            else:
                rho = rho_t - 1
            self._rho = (max(rho, rho_t)
                         if self.rho_reset == RHO_RESET_FLOW else NO_REUSE)
            return None

        sender, receiver = request.sender, request.receiver
        width = deadline - earliest + 1
        n_rem = len(remaining)
        if n_rem:
            if isinstance(remaining, RequestWindow):
                senders = remaining.senders
                receivers = remaining.receivers
            else:
                senders = np.fromiter((r.sender for r in remaining),
                                      dtype=np.intp, count=n_rem)
                receivers = np.fromiter((r.receiver for r in remaining),
                                        dtype=np.intp, count=n_rem)
        probes = 0            # laxity evaluations so far
        lax = None            # Eq. 1 lookup, built on the second probe
        prefix = None         # running max of best eligible distance

        best_slot: Optional[int] = None
        best_rho = rho
        while rho >= rho_t:
            found_slot = None
            if rho == NO_REUSE:
                free = schedule.nr_candidate_slots(sender, receiver,
                                                   earliest, deadline)
                rel = int(free.argmax())
                if free[rel]:
                    found_slot = earliest + rel
            else:
                if prefix is None:
                    eligible = ~schedule.conflict_mask(sender, receiver,
                                                       earliest, deadline)
                    best = _kernel.best_reuse_distance(
                        schedule, reuse_graph, sender, receiver,
                        earliest, deadline)
                    masked = np.where(eligible, best, np.int32(-1))
                    prefix = np.maximum.accumulate(masked)
                # prefix is non-decreasing, so the earliest slot whose
                # best distance reaches ρ is a binary search away.
                pos = int(prefix.searchsorted(rho, side="left"))
                if pos < width:
                    found_slot = earliest + pos
            if found_slot is not None:
                best_slot = found_slot
                best_rho = rho
                if n_rem == 0:
                    break  # laxity = deadline - slot >= 0 always
                if lax is None and probes == 0 and not self._table_hint:
                    # One-slot evaluation for the common first-probe
                    # accept; the lookup table only pays off on descent.
                    window = schedule.busy_matrix()[
                        :, found_slot + 1:deadline + 1]
                    laxity = (deadline - found_slot - n_rem
                              - int(np.count_nonzero(window[senders]
                                                     | window[receivers])))
                else:
                    if lax is None:
                        window = schedule.busy_matrix()[
                            :, earliest:deadline + 1]
                        blocked = (window[senders]
                                   | window[receivers]).sum(axis=0)
                        lax = ((deadline - earliest - n_rem)
                               - np.arange(width, dtype=np.int64))
                        # lax[i] -= sum(blocked[i+1:]) via a reversed
                        # cumulative sum (the last slot has no suffix).
                        lax[:-1] -= blocked[1:][::-1].cumsum()[::-1]
                    laxity = int(lax[found_slot - earliest])
                probes += 1
                if laxity >= 0:
                    break
            if rho == NO_REUSE:
                next_rho = reuse_graph.diameter()
                if next_rho < rho_t:
                    rho = next_rho
                    break
                rho = next_rho
            else:
                rho -= 1

        if probes:
            self._table_hint = probes > 1

        if best_slot is None:
            result = None
        elif best_rho == NO_REUSE:
            result = (best_slot, schedule.first_free_offset(best_slot))
        else:
            row = _kernel.min_reuse_distance(
                schedule, reuse_graph, sender, receiver,
                best_slot, best_slot)[0] >= best_rho
            if self.offset_rule == OFFSET_FIRST:
                result = (best_slot, int(np.argmax(row)))
            else:
                offsets = np.flatnonzero(row)
                counts = schedule.occupancy()[0][best_slot, offsets]
                result = (best_slot, int(offsets[int(np.argmin(counts))]))

        if self.rho_reset == RHO_RESET_FLOW:
            self._rho = max(rho, rho_t)
        else:
            self._rho = NO_REUSE
        return result
