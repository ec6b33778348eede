"""RC's walk and the offset pick vs the scalar reference: exact-equivalence
tests.

The per-slot value RC's fused descent walks
(:func:`repro.core.constraints.max_admissible_rho`) and the one offset
pick (:func:`repro.core.scheduler.pick_offset`) must be bit-for-bit
interchangeable with the scalar offset list
(``core_oracles.feasible_offsets_scalar``) — same feasible slots and
offsets, same ``find_slot`` answers — and the fused descent must match
its stepwise oracle (:func:`repro.core.rc.stepwise_descent`) in final
schedules, work counters, decision provenance and the
``rc.fallback_rho`` histogram, walking each placement's window once
and reading Eq. 1 once per distinct probed slot.  Unrecorded, a fused
descent may end at Eq. 1's bound without walking; it must still make
the stepwise loop's placement and leave the same ρ.
These tests drive both over seeded randomized schedules, hand-built
descents, hypothesis windows and full scheduler runs and demand exact
agreement.  The last
class pins RC's repair products and audits what an RC compile hands
to clone, repair and evict.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import (Phase, assume, find, given, settings,
                        strategies as st)

from repro import obs
from repro.core import rc as _rc
from repro.core.constraints import (
    NO_REUSE,
    first_feasible_offset,
    max_admissible_rho,
)
from repro.core.laxity import LaxityTable, calculate_laxity
from repro.core.rc import (
    RHO_RESET_FLOW,
    RHO_RESET_TRANSMISSION,
    ConservativeReusePolicy,
    stepwise_descent,
)
from repro.core.repair import (
    ChangeSet,
    ChannelChange,
    repair_schedule,
    smallest_reused_link,
)
from repro.core.reschedule import reschedule_without_reuse_on
from repro.core.schedule import Schedule
from repro.core.scheduler import (
    FixedPriorityScheduler,
    OFFSET_FIRST,
    OFFSET_LEAST_LOADED,
    find_slot,
    pick_offset,
)
from repro.core.transmissions import RequestWindow, TransmissionRequest
from repro.experiments.common import (
    build_workload,
    make_policy,
    prepare_network,
)
from repro.flows.generator import PeriodRange
from repro.network.graphs import ChannelReuseGraph
from repro.obs.provenance import ProvenanceRecorder
from repro.routing.traffic import TrafficType
from repro.validate.audit import audit_schedule
from repro.validate.fuzz import _recorded_work

from core_oracles import feasible_offsets_scalar

NUM_SLOTS = 40
NUM_OFFSETS = 3


def _random_schedule(reuse_graph: ChannelReuseGraph, seed: int,
                     density: float = 0.5):
    """A seeded random schedule over the reuse graph's nodes.

    Fills cells with random non-node-conflicting transmissions so the
    occupancy exercises empty cells, single occupants, and reuse stacks.
    """
    num_nodes = reuse_graph.num_nodes
    rng = np.random.default_rng(seed)
    schedule = Schedule(num_nodes, NUM_SLOTS, NUM_OFFSETS)
    counter = 0
    for slot in range(NUM_SLOTS):
        busy = set()
        for offset in range(NUM_OFFSETS):
            occupants = rng.integers(0, 3) if rng.random() < density else 0
            for _ in range(occupants):
                sender, receiver = rng.choice(num_nodes, size=2,
                                              replace=False)
                if sender in busy or receiver in busy:
                    continue
                busy.update((int(sender), int(receiver)))
                schedule.add(
                    TransmissionRequest(
                        flow_id=0, instance=0, hop_index=0, attempt=counter,
                        sender=int(sender), receiver=int(receiver),
                        release_slot=0, deadline_slot=NUM_SLOTS - 1),
                    slot, offset)
                counter += 1
    return schedule


def _links(reuse_graph: ChannelReuseGraph, rng, count: int):
    pairs = []
    for _ in range(count):
        sender, receiver = rng.choice(reuse_graph.num_nodes, size=2,
                                      replace=False)
        pairs.append((int(sender), int(receiver)))
    return pairs


@pytest.fixture(scope="module")
def reuse_graph(topology_builder):
    """A reuse graph with non-trivial hop diversity (weak shortcuts)."""
    links = [(i, i + 1) for i in range(7)]
    topology = topology_builder(8, links, weak_links=[(0, 2), (4, 6)])
    return ChannelReuseGraph.from_topology(topology)


class TestFeasibleOffsets:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_on_random_schedules(self, reuse_graph, seed):
        """A slot's walked value reaches a finite ρ exactly when the
        scalar oracle lists a feasible offset there; a running maximum
        above it reads back unchanged."""
        schedule = _random_schedule(reuse_graph, seed)
        rng = np.random.default_rng(100 + seed)
        rhos = [1, 2, 3, reuse_graph.diameter()]
        for sender, receiver in _links(reuse_graph, rng, 12):
            for slot in rng.choice(NUM_SLOTS, size=8, replace=False):
                slot = int(slot)
                value = max_admissible_rho(schedule, reuse_graph, sender,
                                           receiver, slot)
                for rho in rhos:
                    expected = feasible_offsets_scalar(
                        schedule, reuse_graph, sender, receiver, slot, rho)
                    assert (value >= rho) == bool(expected), (
                        f"rho={rho} slot={slot} link=({sender},{receiver})")
                    assert max_admissible_rho(
                        schedule, reuse_graph, sender, receiver, slot,
                        rho) == max(value, rho)

    @pytest.mark.parametrize("seed", range(4))
    def test_first_feasible_offset_is_the_lowest_listed(self, reuse_graph,
                                                        seed):
        """The ``"first"`` rule's early exit picks the lowest offset
        the full scalar list holds, or -1 when it is empty."""
        schedule = _random_schedule(reuse_graph, seed)
        rng = np.random.default_rng(200 + seed)
        rhos = [1, 2, 3, reuse_graph.diameter(), NO_REUSE]
        for sender, receiver in _links(reuse_graph, rng, 12):
            for slot in range(NUM_SLOTS):
                for rho in rhos:
                    listed = feasible_offsets_scalar(
                        schedule, reuse_graph, sender, receiver, slot, rho)
                    assert first_feasible_offset(
                        schedule, reuse_graph, sender, receiver, slot,
                        rho) == (listed[0] if listed else -1), (
                            f"rho={rho} slot={slot} "
                            f"link=({sender},{receiver})")

    @pytest.mark.parametrize("seed", range(4))
    def test_pick_offset_is_the_least_loaded_listed(self, reuse_graph,
                                                    seed):
        """Under ``"least_loaded"`` the pick is the listed offset with
        the fewest occupants, lowest index on ties; under ``"first"``
        the lowest listed; -1 when the list is empty."""
        schedule = _random_schedule(reuse_graph, seed)
        rng = np.random.default_rng(300 + seed)
        rhos = [1, 2, 3, reuse_graph.diameter(), NO_REUSE]
        for sender, receiver in _links(reuse_graph, rng, 12):
            for slot in range(NUM_SLOTS):
                for rho in rhos:
                    listed = feasible_offsets_scalar(
                        schedule, reuse_graph, sender, receiver, slot, rho)
                    lightest = min(
                        listed, default=-1,
                        key=lambda c: (schedule.cell_size(slot, c), c))
                    for rule, expected in (
                            (OFFSET_LEAST_LOADED, lightest),
                            (OFFSET_FIRST, listed[0] if listed else -1)):
                        assert pick_offset(
                            schedule, reuse_graph, sender, receiver, slot,
                            rho, rule) == expected, (
                                f"{rule} rho={rho} slot={slot} "
                                f"link=({sender},{receiver})")


def _walk_answer(schedule, reuse_graph, request, rho, earliest,
                 offset_rule):
    """One finite-ρ ``findSlot`` question answered the fused descent's
    way: the earliest conflict-free slot whose walked value reaches ρ,
    then the offset pick."""
    for slot in schedule.conflict_free_slots(
            request.sender, request.receiver, earliest,
            request.deadline_slot):
        if max_admissible_rho(schedule, reuse_graph, request.sender,
                              request.receiver, slot) >= rho:
            return (slot, pick_offset(schedule, reuse_graph, request.sender,
                                      request.receiver, slot, rho,
                                      offset_rule))
    return None


class TestFindSlot:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("offset_rule",
                             [OFFSET_FIRST, OFFSET_LEAST_LOADED])
    def test_matches_scalar(self, reuse_graph, seed, offset_rule):
        """The walked values and the offset pick answer every finite-ρ
        question exactly as the scalar ``find_slot`` does, slot and
        offset."""
        rng = np.random.default_rng(200 + seed)
        rhos = [2, 3, reuse_graph.diameter()]
        for schedule_seed in range(2):
            schedule = _random_schedule(reuse_graph, 1000 + schedule_seed)
            for sender, receiver in _links(reuse_graph, rng, 10):
                earliest = int(rng.integers(0, NUM_SLOTS))
                deadline = int(rng.integers(earliest, NUM_SLOTS))
                request = TransmissionRequest(
                    0, 0, 0, 0, sender, receiver,
                    release_slot=0, deadline_slot=deadline)
                for rho in rhos:
                    assert _walk_answer(
                        schedule, reuse_graph, request, rho, earliest,
                        offset_rule) == find_slot(
                            schedule, reuse_graph, request, rho, earliest,
                            offset_rule)


#: A hand-built window for link (0, 1) on the weak-shortcut graph
#: (λ_R = 5): each slot's two offsets, as (sender, receiver) occupants,
#: and the value the slot reads.  Every slot is full, so ρ = ∞ finds
#: nothing and no conflict-free slot reaches λ_R; slot 6 is the first to
#: reach λ_R − 1, slot 4 the first to reach 3 and slot 1 the first to
#: reach ρ_t = 2.
DESCENT_SLOTS = (
    ([(0, 2)], [(3, 4)]),              # node 0 busy: never walked
    ([(2, 5)], [(3, 4)]),              # 2
    ([(3, 6)], [(2, 7)]),              # 2
    ([(2, 4)], [(3, 5)]),              # 2
    ([(2, 7)], [(4, 5)]),              # 3
    ([(3, 7)], [(2, 6)]),              # 2
    ([(2, 3)], [(5, 6)]),              # 4
    ([(2, 3)], [(4, 7), (5, 6)]),      # 3, its stack stops at (4, 7)
    ([(2, 4)], [(6, 7)]),              # 4
    ([(2, 5)], [(3, 4)]),              # 2
    ([(7, 5)], [(2, 3)]),              # 4
    ([(5, 6), (2, 3)], [(4, 7)]),      # 3
)

#: Requests after the one placed: Eq. 1 reads 11 - s - 9, so slot 1
#: keeps laxity 1 and slots 4 and 6 go negative.
DESCENT_REMAINING = 9

#: :data:`DESCENT_SLOTS` plus a slot 12 with a free offset, where the
#: ρ = ∞ probe lands.  Every finite ρ probes a slot in [1, 12], the
#: first conflict-free slot to the ρ = ∞ probe's.
BOUND_SLOTS = DESCENT_SLOTS + (([(2, 5)], []),)

#: Requests after the one placed: Eq. 1 reads 12 - s - 12, so the
#: ρ = ∞ probe reads -12 and -12 + (12 - 1) < 0: Eq. 1's bound holds,
#: and every probe's laxity is negative.
BOUND_REMAINING = 12


class TestOneWalkPerPlacement:
    """RC's fused descent walks a placement's window once."""

    def _place(self, reuse_graph, stepwise, slots=DESCENT_SLOTS,
               remaining=DESCENT_REMAINING, recorded=True):
        """Place link (0, 1) on ``slots`` with ``remaining`` requests
        after it: the placement and, under a recorder, each probe's
        ``slots_scanned``."""
        deadline = len(slots) - 1
        schedule = Schedule(reuse_graph.num_nodes, len(slots), 2)
        for slot, offsets in enumerate(slots):
            for offset, occupants in enumerate(offsets):
                for sender, receiver in occupants:
                    schedule.add(TransmissionRequest(
                        1, slot, offset, 0, sender, receiver, 0, deadline),
                        slot, offset)
        requests = [TransmissionRequest(0, 0, 0, attempt, 0, 1, 0, deadline)
                    for attempt in range(remaining + 1)]
        if not recorded:
            with _descent(stepwise):
                return ConservativeReusePolicy(rho_t=2).place(
                    schedule, reuse_graph, requests[0], 0,
                    RequestWindow(LaxityTable(requests), 1)), None
        recorder = obs.Recorder()
        scans = []
        count = recorder.count

        def spy(name, amount=1.0):
            if name == "scheduler.placements_tried":
                scans.append(0)
            elif name == "scheduler.slots_scanned":
                scans[-1] += amount
            count(name, amount)

        recorder.count = spy
        with _descent(stepwise), obs.recording(recorder):
            placement = ConservativeReusePolicy(rho_t=2).place(
                schedule, reuse_graph, requests[0], 0,
                RequestWindow(LaxityTable(requests), 1))
        return placement, scans

    def test_descent_walks_each_slot_once(self, reuse_graph, monkeypatch):
        """The fused descent makes the stepwise loop's placement with
        the same ``slots_scanned`` per probe (ρ = ∞, 5, 4, 3, 2), and
        computes each walked slot's value once: the walk at λ_R runs
        dry and the lower ρ read its running maxima."""
        assert reuse_graph.diameter() == 5
        stepwise = self._place(reuse_graph, True)
        walked = []

        def counted(schedule, graph, sender, receiver, slot, floor=0):
            walked.append(slot)
            return max_admissible_rho(schedule, graph, sender, receiver,
                                      slot, floor)

        monkeypatch.setattr(_rc, "max_admissible_rho", counted)
        fused = self._place(reuse_graph, False)
        assert fused == stepwise == ((1, 1), [12, 11, 6, 4, 1])
        assert walked == list(range(1, len(DESCENT_SLOTS)))

    def test_bound_ends_only_the_unrecorded_descent(
            self, reuse_graph, monkeypatch, laxity_reads):
        """On :data:`BOUND_SLOTS` an unrecorded descent reads Eq. 1 at
        the ρ = ∞ probe's slot, calls no ``max_admissible_rho`` and
        makes the stepwise loop's placement, its ρ_t probe.  A recorded
        one still probes ρ = ∞, 5, 4, 3 and 2 and walks each slot once,
        as :meth:`test_descent_walks_each_slot_once` pins."""
        walked = []

        def counted(schedule, graph, sender, receiver, slot, floor=0):
            walked.append(slot)
            return max_admissible_rho(schedule, graph, sender, receiver,
                                      slot, floor)

        bound = {"slots": BOUND_SLOTS, "remaining": BOUND_REMAINING}
        stepwise = self._place(reuse_graph, True, **bound)
        assert stepwise == ((1, 1), [13, 12, 6, 4, 1])
        assert self._place(reuse_graph, True, recorded=False,
                           **bound) == ((1, 1), None)
        monkeypatch.setattr(_rc, "max_admissible_rho", counted)
        laxity_reads.clear()
        assert self._place(reuse_graph, False, recorded=False,
                           **bound) == ((1, 1), None)
        assert walked == [] and laxity_reads == [12]
        assert self._place(reuse_graph, False, **bound) == stepwise
        assert walked == list(range(1, len(BOUND_SLOTS)))


#: A window for link (0, 1) on the weak-shortcut graph in which every ρ
#: above ρ_t lands on the ρ = ∞ probe's slot: slot 3 has a free offset
#: and the conflict-free slots before it read 2, so ρ = ∞, 5, 4 and 3
#: all probe slot 3 and ρ_t = 2 probes slot 1.
REPEAT_SLOTS = (
    ([(0, 2)], [(3, 4)]),              # node 0 busy: never walked
    ([(2, 5)], [(3, 4)]),              # 2
    ([(3, 6)], [(2, 7)]),              # 2
    ([(2, 5)], []),                    # ∞: the ρ = ∞ probe's slot
    ([(2, 5)], [(3, 4)]),              # 2, past the walk's end
)

#: Requests after the one placed: Eq. 1 reads 4 - s - 3, so slot 3
#: goes negative and slot 1 keeps laxity 0.
REPEAT_REMAINING = 3


@pytest.fixture
def laxity_reads(monkeypatch):
    """The slots Eq. 1 is read at, in order: the packed table's lookups
    (the fused descent) and ``calculate_laxity`` calls (the stepwise
    oracle)."""
    reads = []
    from_table = LaxityTable.laxity
    calculate = _rc.calculate_laxity

    def table_read(table, schedule, position, slot):
        reads.append(slot)
        return from_table(table, schedule, position, slot)

    def calculated(schedule, slot, deadline_slot, remaining):
        reads.append(slot)
        return calculate(schedule, slot, deadline_slot, remaining)

    monkeypatch.setattr(LaxityTable, "laxity", table_read)
    monkeypatch.setattr(_rc, "calculate_laxity", calculated)
    return reads


class TestOneLaxityPerSlot:
    """RC's fused descent reads Eq. 1 once per distinct probed slot."""

    def _place(self, reuse_graph, stepwise, recorded):
        """Place link (0, 1) on :data:`REPEAT_SLOTS`: the placement and,
        when recorded, the work counters, the ``rc.fallback_rho``
        histogram and the decision's provenance record."""
        deadline = len(REPEAT_SLOTS) - 1
        schedule = Schedule(reuse_graph.num_nodes, len(REPEAT_SLOTS), 2)
        for slot, offsets in enumerate(REPEAT_SLOTS):
            for offset, occupants in enumerate(offsets):
                for sender, receiver in occupants:
                    schedule.add(TransmissionRequest(
                        1, slot, offset, 0, sender, receiver, 0, deadline),
                        slot, offset)
        requests = [TransmissionRequest(0, 0, 0, attempt, 0, 1, 0, deadline)
                    for attempt in range(REPEAT_REMAINING + 1)]
        recorder = obs.Recorder(provenance=ProvenanceRecorder())
        with _descent(stepwise), \
                obs.recording(recorder) if recorded else nullcontext():
            recorder.provenance.begin_decision("RC", requests[0], 0)
            placement = ConservativeReusePolicy(rho_t=2).place(
                schedule, reuse_graph, requests[0], 0,
                RequestWindow(LaxityTable(requests), 1))
            recorder.provenance.end_decision(placement)
        if not recorded:
            return placement, None
        return placement, (_recorded_work(recorder)
                           + (recorder.provenance.records(),))

    @pytest.mark.parametrize("recorded", [False, True])
    def test_descent_reads_each_probed_slot_once(self, reuse_graph,
                                                 laxity_reads, recorded):
        """ρ = ∞, 5, 4 and 3 probe slot 3 and ρ_t probes slot 1: the
        stepwise loop evaluates Eq. 1 at every probe and the fused
        descent once per distinct slot, and both make the same
        placement, count the same work (``slots_scanned`` and ρ steps
        included) and narrate the same probes, laxities and ρ steps."""
        assert reuse_graph.diameter() == 5
        stepwise = self._place(reuse_graph, True, recorded)
        assert laxity_reads == [3, 3, 3, 3, 1]
        laxity_reads.clear()
        fused = self._place(reuse_graph, False, recorded)
        assert laxity_reads == [3, 1]
        assert fused == stepwise
        placement, signature = fused
        assert placement == (1, 1)
        if recorded:
            record = signature[-1][0]
            assert [(e["slot"], e["rho"], e["laxity"])
                    for e in record["laxity"]] == [
                (3, None, -2), (3, 5, -2), (3, 4, -2), (3, 3, -2),
                (1, 2, 0)]
            assert signature[0]["rc.reuse_fallbacks"] == 4


#: A random link of the weak-shortcut graph's 8 nodes.
_LINKS = st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(
    lambda link: link[0] != link[1])


class Window(NamedTuple):
    """One RC placement on the weak-shortcut graph: each slot's offsets'
    occupants, the link placed, its earliest slot, the links of the
    requests after it, ρ_t, and the ρ a flow-reset descent starts at."""

    slots: tuple
    link: tuple
    earliest: int
    remaining: tuple
    rho_t: int
    start_rho: float


@st.composite
def windows(draw):
    """Windows that reach every exit of the descent: Eq. 1's bound
    holding and failing, no ρ = ∞ slot, and λ_R = 5 below ρ_t.

    A window is random slots, then slots that are full but
    conflict-free for the link, then at most one conflict-free slot
    with a free offset, then random slots again.  A random slot's
    offsets hold random occupants; a conflict-free slot spreads the
    three pairs of the other six nodes over some of its offsets (all of
    them when it is full)."""
    link = draw(_LINKS)
    offsets = draw(st.integers(1, 3))
    others = [node for node in range(8) if node not in link]

    def clear(drawn):
        order, taken = drawn
        cells = [[] for _ in range(offsets)]
        for pair in range(3 if taken else 0):
            cells[taken[pair % len(taken)]].append(
                tuple(order[2 * pair:2 * pair + 2]))
        return tuple(cells)

    cell = st.one_of(st.just(()), st.lists(_LINKS, min_size=1, max_size=2))
    random_slots = st.lists(st.tuples(*[cell] * offsets), max_size=4)
    full = st.permutations(others).map(
        lambda order: clear((order, list(range(offsets)))))
    free = st.tuples(st.permutations(others), st.lists(
        st.integers(0, offsets - 1), max_size=offsets - 1,
        unique=True)).map(clear)
    slots = (draw(random_slots) + draw(st.lists(full, max_size=6))
             + draw(st.lists(free, max_size=1)) + draw(random_slots))
    assume(slots)
    return Window(slots=tuple(slots), link=link,
                  earliest=draw(st.integers(0, len(slots))),
                  remaining=tuple(draw(st.lists(_LINKS, max_size=8))),
                  rho_t=draw(st.integers(1, 6)),
                  start_rho=draw(st.sampled_from([NO_REUSE, 2, 3, 5])))


def _window_schedule(window: Window):
    """The window's schedule (an occupant sharing a node with an earlier
    one in its slot is dropped) and the placement's requests."""
    deadline = len(window.slots) - 1
    schedule = Schedule(8, len(window.slots), len(window.slots[0]))
    for slot, offsets in enumerate(window.slots):
        busy = set()
        for offset, occupants in enumerate(offsets):
            for sender, receiver in occupants:
                if not busy & {sender, receiver}:
                    busy.update((sender, receiver))
                    schedule.add(TransmissionRequest(
                        1, slot, offset, 0, sender, receiver, 0, deadline),
                        slot, offset)
    requests = [TransmissionRequest(0, 0, hop, 0, sender, receiver, 0,
                                    deadline)
                for hop, (sender, receiver) in enumerate(
                    (window.link,) + window.remaining)]
    return schedule, requests


def _window_case(reuse_graph, window: Window) -> str:
    """Which exit a descent from ρ = ∞ takes on the window."""
    if reuse_graph.diameter() < window.rho_t:
        return "rho_t above diameter"
    schedule, requests = _window_schedule(window)
    sender, receiver = window.link
    deadline = len(window.slots) - 1
    free = schedule.first_free_slot(sender, receiver, window.earliest,
                                    deadline)
    if window.earliest > deadline or free < 0:
        return "no free slot"
    laxity = calculate_laxity(schedule, free, deadline, requests[1:])
    if laxity >= 0:
        return "no descent"
    first = next(schedule.conflict_free_slots(sender, receiver,
                                              window.earliest, deadline))
    return "bound holds" if laxity + free - first < 0 else "bound fails"


class TestEquationOneBound:
    """An unrecorded fused descent that ends at Eq. 1's bound places
    where its stepwise oracle does and leaves the same ρ."""

    @pytest.mark.parametrize("case", ["bound holds", "bound fails",
                                      "no free slot",
                                      "rho_t above diameter"])
    def test_windows_reach_every_exit(self, reuse_graph, case):
        find(windows(), lambda window: _window_case(
            reuse_graph, window) == case,
            settings=settings(max_examples=1000, database=None,
                              derandomize=True, phases=[Phase.generate]))

    def test_rho_t_above_diameter_keeps_the_free_slot(self,
                                                      topology_builder):
        """Components out of each other's range: a cell shared only with
        the other component admits every finite ρ, so ``find_slot`` at
        ρ_t = 3 > λ_R = 2 takes slot 0.  The descent never probes ρ_t
        there and keeps the ρ = ∞ probe's slot 1, whose laxity -2 would
        pass Eq. 1's bound, -2 + (1 - 0) < 0."""
        topology = topology_builder(5, [(0, 1), (1, 2), (3, 4)])
        graph = ChannelReuseGraph.from_topology(topology)
        assert graph.diameter() == 2
        schedule = Schedule(5, 2, 1)
        schedule.add(TransmissionRequest(1, 0, 0, 0, 3, 4, 0, 1), 0, 0)
        requests = [TransmissionRequest(0, 0, hop, 0, 0, 1, 0, 1)
                    for hop in range(3)]
        assert find_slot(schedule, graph, requests[0], 3, 0) == (0, 0)
        for stepwise in (True, False):
            with _descent(stepwise):
                assert ConservativeReusePolicy(rho_t=3).place(
                    schedule, graph, requests[0], 0,
                    RequestWindow(LaxityTable(requests), 1)) == (1, 0)

    @pytest.mark.parametrize("rho_reset",
                             [RHO_RESET_TRANSMISSION, RHO_RESET_FLOW])
    @pytest.mark.parametrize("offset_rule",
                             [OFFSET_FIRST, OFFSET_LEAST_LOADED])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(window=windows())
    def test_unrecorded_place_matches_stepwise(self, reuse_graph, rho_reset,
                                               offset_rule, window):
        """Whichever exit the window takes, the unrecorded fused
        descent places where the stepwise loop does and leaves the same
        flow-scoped ρ."""
        schedule, requests = _window_schedule(window)
        results = []
        for stepwise in (True, False):
            policy = ConservativeReusePolicy(
                rho_t=window.rho_t, rho_reset=rho_reset,
                offset_rule=offset_rule)
            policy._rho = window.start_rho
            with _descent(stepwise):
                placement = policy.place(
                    schedule, reuse_graph, requests[0], window.earliest,
                    RequestWindow(LaxityTable(requests), 1))
            results.append((placement, policy._rho))
        assert results[0] == results[1]


def _recorded_signature(result, recorder):
    """(schedulable, placements, work counters, ``rc.fallback_rho``,
    provenance records) of one recorded scheduler run."""
    placements = None
    if result.schedule is not None:
        placements = [
            (e.request.flow_id, e.request.instance, e.request.hop_index,
             e.request.attempt, e.slot, e.offset)
            for e in result.schedule.entries]
    return ((result.schedulable, placements) + _recorded_work(recorder)
            + (recorder.provenance.records(),))


def _descent(stepwise: bool):
    """RC's stepwise oracle, or no override (the fused descent)."""
    return stepwise_descent() if stepwise else nullcontext()


def _run_signature(network, flow_set, policy_name, stepwise, rho_t=2,
                   **policy_kwargs):
    """:func:`_recorded_signature` of one scheduler run, RC on its
    stepwise oracle or its fused descent."""
    policy = make_policy(policy_name, rho_t)
    for key, value in policy_kwargs.items():
        setattr(policy, key, value)
    scheduler = FixedPriorityScheduler(
        num_nodes=network.topology.num_nodes,
        num_offsets=network.num_channels,
        reuse_graph=network.reuse, policy=policy)
    recorder = obs.Recorder(provenance=ProvenanceRecorder())
    with _descent(stepwise), obs.recording(recorder):
        result = scheduler.run(flow_set)
    return _recorded_signature(result, recorder)


@pytest.fixture(scope="module")
def figure1_workload(indriya):
    topology, _ = indriya
    network = prepare_network(topology, num_channels=4)
    flow_set = build_workload(network, 18, PeriodRange(0, 4),
                              TrafficType.CENTRALIZED,
                              np.random.default_rng(5))
    return network, flow_set


class TestFullRunEquivalence:
    @pytest.mark.parametrize("policy_name", ["RC"])
    def test_policies_match_scalar(self, figure1_workload, policy_name):
        """The policies with two placement paths: RC's stepwise oracle
        and its fused descent."""
        network, flow_set = figure1_workload
        stepwise = _run_signature(network, flow_set, policy_name, True)
        fused = _run_signature(network, flow_set, policy_name, False)
        assert stepwise == fused

    @pytest.mark.parametrize("rho_reset",
                             [RHO_RESET_TRANSMISSION, RHO_RESET_FLOW])
    @pytest.mark.parametrize("offset_rule",
                             [OFFSET_FIRST, OFFSET_LEAST_LOADED])
    def test_rc_variants_match_scalar(self, figure1_workload, rho_reset,
                                      offset_rule):
        network, flow_set = figure1_workload
        stepwise = _run_signature(network, flow_set, "RC", True,
                                  rho_reset=rho_reset,
                                  offset_rule=offset_rule)
        fused = _run_signature(network, flow_set, "RC", False,
                               rho_reset=rho_reset, offset_rule=offset_rule)
        assert stepwise == fused


def _reschedule_signature(network, flow_set, victims, stepwise,
                          policy_name="RA", rho_t=2):
    """:func:`_recorded_signature` of a barrier rebuild."""
    policy = make_policy(policy_name, rho_t)
    recorder = obs.Recorder(provenance=ProvenanceRecorder())
    with _descent(stepwise), obs.recording(recorder):
        result = reschedule_without_reuse_on(
            flow_set, network.topology.num_nodes, network.num_channels,
            network.reuse, policy, victims)
    return _recorded_signature(result, recorder)


class TestRescheduleEquivalence:
    """RC's barrier rebuild must match across its descents bit-for-bit."""

    @pytest.fixture(scope="class")
    def victims(self, figure1_workload):
        network, flow_set = figure1_workload
        scheduler = FixedPriorityScheduler(
            num_nodes=network.topology.num_nodes,
            num_offsets=network.num_channels,
            reuse_graph=network.reuse, policy=make_policy("RA", 2))
        result = scheduler.run(flow_set)
        assert result.schedulable
        reuse_links = result.schedule.reuse_links()
        assert reuse_links, "workload must exercise channel reuse"
        return tuple(reuse_links[:3])

    @pytest.mark.parametrize("policy_name", ["RC"])
    def test_barrier_rebuild_matches_scalar(self, figure1_workload,
                                            victims, policy_name):
        network, flow_set = figure1_workload
        stepwise = _reschedule_signature(network, flow_set, victims, True,
                                         policy_name)
        fused = _reschedule_signature(network, flow_set, victims, False,
                                      policy_name)
        assert stepwise == fused

    def test_no_victims_matches_plain_run(self, figure1_workload):
        """An empty barrier is placement-equivalent to the inner policy."""
        network, flow_set = figure1_workload
        plain = _run_signature(network, flow_set, "RA", False)[1]
        barred = _reschedule_signature(network, flow_set, (), False)[1]
        assert barred == plain

    def test_victims_leave_shared_cells(self, figure1_workload, victims):
        network, flow_set = figure1_workload
        policy = make_policy("RA", 2)
        result = reschedule_without_reuse_on(
            flow_set, network.topology.num_nodes, network.num_channels,
            network.reuse, policy, victims)
        assert result.schedulable
        barred = set(victims) | {(v, u) for u, v in victims}
        assert not barred & set(result.schedule.reuse_links())


# ----------------------------------------------------------------------
# RC's compiled schedule under clone, repair and evict
# ----------------------------------------------------------------------

def _rc_compile(network, flow_set):
    return FixedPriorityScheduler(
        num_nodes=network.topology.num_nodes,
        num_offsets=network.num_channels, reuse_graph=network.reuse,
        policy=make_policy("RC", 2)).run(flow_set)


def _blacklist(indriya):
    """Figure 1's 4 channels narrowed to 3 (the last offset's
    transmissions move) and the narrowed reuse graph."""
    topology, _ = indriya
    narrowed = prepare_network(topology, num_channels=3)
    return (ChangeSet(channel=ChannelChange(
        reuse_graph=narrowed.reuse, num_offsets=3,
        offset_map=(0, 1, 2, None))), narrowed.reuse)


class TestRcRepairProducts:
    """An RC compile's schedule, its clone and its repair products."""

    def test_rc_clone_repairs_and_evict_audit_clean(self, figure1_workload,
                                                    indriya):
        """An RC compile that descends, its clone, its victim repair
        product, its channel-blacklist repair product and the compiled
        schedule after ``evict`` all audit clean."""
        network, flow_set = figure1_workload
        schedule = _rc_compile(network, flow_set).schedule
        assert audit_schedule(schedule, network.reuse, 2,
                              flow_set=flow_set).ok
        clone = schedule.clone()
        assert clone.signature() == schedule.signature()
        assert audit_schedule(clone, network.reuse, 2,
                              flow_set=flow_set).ok
        victim = smallest_reused_link(schedule)
        repaired = repair_schedule(schedule, flow_set, network.reuse,
                                   ChangeSet(victims=(victim,)), rho_t=2)
        assert repaired.schedulable and repaired.evicted > 0
        assert audit_schedule(repaired.schedule, network.reuse, 2,
                              flow_set=flow_set,
                              barred_links={victim}).ok
        change, narrowed = _blacklist(indriya)
        remapped = repair_schedule(schedule, flow_set, network.reuse,
                                   change, rho_t=2)
        assert remapped.schedulable and remapped.evicted > 0
        assert audit_schedule(remapped.schedule, narrowed, 2,
                              flow_set=flow_set).ok
        schedule.evict([len(schedule) - 1])
        assert audit_schedule(schedule, network.reuse, 2,
                              flow_set=flow_set, expect_complete=False).ok

    def test_rc_repair_hashes_pinned(self, figure1_workload, indriya):
        """Golden: the canonical hashes of one RC victim repair and one
        RC channel-blacklist repair on the Figure 1 workload, recorded
        when repair still re-placed through the lanes the compiled
        schedule carried.  The scalar scan places every evicted
        transmission where the lanes did."""
        network, flow_set = figure1_workload
        schedule = _rc_compile(network, flow_set).schedule
        victim = smallest_reused_link(schedule)
        assert victim == (0, 10)
        repaired = repair_schedule(schedule, flow_set, network.reuse,
                                   ChangeSet(victims=(victim,)), rho_t=2)
        assert (repaired.schedulable, repaired.evicted) == (True, 8)
        assert repaired.schedule.canonical_hash() == (
            "b191fe481a86481753d6f1b5e5d54363e77f2acdefc1745d3f70ceb461eb3965")
        change, _ = _blacklist(indriya)
        remapped = repair_schedule(schedule, flow_set, network.reuse,
                                   change, rho_t=2)
        assert (remapped.schedulable, remapped.evicted) == (True, 578)
        assert remapped.schedule.canonical_hash() == (
            "67c653d623208c009f929bc42e1c1e820d71593c298fe99551168d85169a7a35")

    def test_rc_without_reuse_repairs_audit_clean(self, figure1_workload,
                                                  indriya):
        """An RC run that never leaves ρ = ∞ (9 of the fleet's 32 flow
        sets): the auto victim finds no shared cell; a victim repair
        evicts nothing, and a channel blacklist repair re-places at ρ_t
        on a fresh schedule through the scalar scan.  Both audit
        clean."""
        network, _ = figure1_workload
        flow_set = build_workload(network, 15, PeriodRange(0, 3),
                                  TrafficType.PEER_TO_PEER,
                                  np.random.default_rng(0))
        result = _rc_compile(network, flow_set)
        assert result.schedulable
        assert smallest_reused_link(result.schedule) is None
        blacklist, narrowed = _blacklist(indriya)
        changes = {
            "victim": (ChangeSet(victims=(
                result.schedule.entries[0].request.link,)),
                network.reuse),
            "blacklist": (blacklist, narrowed)}
        for name, (change, graph) in changes.items():
            repaired = repair_schedule(result.schedule, flow_set,
                                       network.reuse, change, rho_t=2)
            assert repaired.schedulable
            assert audit_schedule(repaired.schedule, graph, 2,
                                  flow_set=flow_set).ok
            if name == "victim":
                assert repaired.evicted == 0
            else:
                assert repaired.evicted > 0
