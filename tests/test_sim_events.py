"""Tests for the event-driven batched simulator core (repro.simulator.events).

The contract under test: both engines consume one pinned, outcome-
independent draw plan per repetition, so the batched event engine is
bit-identical to the slot oracle — per run, per epoch, and regardless of
how repetitions are chunked into draw matrices.
"""

import dataclasses
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import Schedule, ScheduledTransmission
from repro.core.transmissions import TransmissionRequest
from repro.detection.health import build_epoch_report
from repro.experiments.common import prepare_network, schedule_workload
from repro.experiments.reliability import build_reliability_flow_set
from repro.flows.flow import Flow, FlowSet
from repro.mac.channels import ChannelMap
from repro.obs import recorder as _obs
from repro.obs.recorder import Recorder
from repro.simulator import (
    SimulationConfig,
    TschSimulator,
    build_draw_plan,
    repetition_draws,
    run_event_batched,
)
from repro.simulator.conditions import Conditions
from repro.simulator.events import DrawPlan, EventTables, build_event_tables
from repro.simulator.stats import stats_signature as signature
from repro.testbeds.synth import RadioEnvironment

from test_core_schedule import request
from test_simulator import tiny_environment, tiny_flow_and_schedule

#: This module's labels for the two engines: the slot oracle
#: (``run_slot``) and the batched engine (``run_event_batched``).
ENGINE_SLOT = "slot"
ENGINE_EVENT = "event"


def tiny_simulator(seed=5):
    flow_set, schedule = tiny_flow_and_schedule()
    env = tiny_environment()
    return TschSimulator(schedule, flow_set, env, env.channel_map,
                         config=SimulationConfig(seed=seed))


def run_engine(sim, engine, repetitions, start_repetition=0,
               chunk_reps=None):
    """Run one named engine directly, whatever the repetition count."""
    if engine == ENGINE_SLOT:
        return sim.run_slot(repetitions, start_repetition)
    return run_event_batched(sim, repetitions, start_repetition,
                             chunk_reps=chunk_reps)


# ----------------------------------------------------------------------
# One engine in production: run() batches; the oracle stays reachable
# ----------------------------------------------------------------------

class TestEngineResolution:
    def test_fixed_engines_resolve_to_themselves(self):
        """The slot oracle and the batched engine stay directly
        reachable at 1 and 2 repetitions, and agree with run()."""
        for repetitions in (1, 2):
            expected = signature(tiny_simulator().run(repetitions))
            for engine in (ENGINE_SLOT, ENGINE_EVENT):
                assert signature(run_engine(tiny_simulator(), engine,
                                            repetitions)) == expected

    def test_run_batches_at_every_repetition_count(self, monkeypatch):
        """run() takes the batched engine even at 1 repetition, and
        counts repetitions, not runs per engine."""
        from repro.simulator import engine as engine_mod

        calls = []

        def batched(simulator, repetitions, start_repetition=0):
            calls.append(repetitions)
            return run_event_batched(simulator, repetitions,
                                     start_repetition)

        monkeypatch.setattr(engine_mod, "run_event_batched", batched)
        for repetitions in (1, 2):
            with _obs.recording(Recorder()) as rec:
                tiny_simulator().run(repetitions)
            counters = rec.registry.snapshot()["counters"]
            assert counters["sim.repetitions"] == repetitions
            assert not any(name.startswith("sim.runs.")
                           for name in counters)
        assert calls == [1, 2]

    def test_unknown_engine_rejected(self):
        """The engine is not a setting: neither the config nor run()
        accepts one, known name or not."""
        with pytest.raises(TypeError):
            SimulationConfig(engine=ENGINE_EVENT)
        with pytest.raises(TypeError):
            tiny_simulator().run(6, engine=ENGINE_SLOT)


# ----------------------------------------------------------------------
# Golden trace: the pinned draw layout
# ----------------------------------------------------------------------

class TestDrawPlan:
    def test_repetition_draws_golden_trace(self):
        """A repetition's entire stochastic state is exactly two
        vectorized draws from ``default_rng([seed, g])`` — normals first,
        then uniforms.  Any change to draw order or count breaks
        cross-engine and cross-epoch reproducibility, so this layout is
        pinned."""
        plan = tiny_simulator().draw_plan
        for g in (0, 1, 7):
            normals, uniforms = repetition_draws(plan, seed=5,
                                                 global_repetition=g)
            oracle = np.random.default_rng([5, g])
            np.testing.assert_array_equal(
                normals, oracle.standard_normal(plan.num_normals))
            np.testing.assert_array_equal(
                uniforms, oracle.random(plan.num_uniforms))

    def test_index_helpers_partition_the_layout(self):
        """Every draw position is owned by exactly one (kind, slot,
        entry) coordinate and the blocks tile the arrays completely."""
        flow_set, schedule = tiny_flow_and_schedule()
        sim = TschSimulator(schedule, flow_set, tiny_environment(),
                            ChannelMap.first_n(2))
        num_interferers = 2
        plan = build_draw_plan(sim.compiled, num_interferers)

        normal_indices = [plan.drift_index(a, b) for a, b in plan.pairs]
        uniform_indices = []
        for pos, count in enumerate(plan.entry_counts):
            for entry in range(count):
                normal_indices.append(plan.signal_fast_index(pos, entry))
                for other in range(count):
                    normal_indices.append(
                        plan.interference_fast_index(pos, entry, other))
                uniform_indices.append(
                    plan.reception_uniform_index(pos, entry))
            for interferer in range(num_interferers):
                # An interferer's duty-cycle draw.
                uniform_indices.append(
                    plan.uniform_offsets[pos] + interferer)
                for entry in range(count):
                    normal_indices.append(
                        plan.interferer_fast_index(pos, interferer, entry))

        assert sorted(normal_indices) == list(range(plan.num_normals))
        assert sorted(uniform_indices) == list(range(plan.num_uniforms))

    def test_plan_covers_every_scheduled_slot_only(self):
        flow_set, schedule = tiny_flow_and_schedule()
        sim = TschSimulator(schedule, flow_set, tiny_environment(),
                            ChannelMap.first_n(2))
        assert sim.draw_plan.slots == tuple(sorted(sim.compiled))
        # tiny_flow_and_schedule occupies slots 0-3 of a 100-slot frame:
        # the event timeline must not contain the 96 idle ASNs.
        assert sim.draw_plan.slots == (0, 1, 2, 3)


# ----------------------------------------------------------------------
# Draw isolation: inactive entries consume their draws anyway
# ----------------------------------------------------------------------

def two_flow_environment(num_channels=2):
    """Four nodes, two radio-isolated links 0->1 and 2->3."""
    rssi = np.full((4, 4, num_channels), -150.0)
    idx = np.arange(4)
    rssi[idx, idx, :] = -np.inf
    rssi[0, 1, :] = rssi[1, 0, :] = -60.0
    rssi[2, 3, :] = rssi[3, 2, :] = -60.0
    return RadioEnvironment(
        positions=np.zeros((4, 3)),
        rssi_dbm=rssi,
        channel_map=ChannelMap.first_n(num_channels),
        grey_sigma_db=3.6,
    )


def two_flow_setup():
    flow_a = Flow(0, 0, 1, 100, 100, (0, 1))
    flow_b = Flow(1, 2, 3, 100, 100, (2, 3))
    flow_set = FlowSet([flow_a, flow_b])
    schedule = Schedule(4, 100, 2)
    schedule.add(request(0, 1, flow_id=0, hop=0, attempt=0), 0, 0)
    schedule.add(request(0, 1, flow_id=0, hop=0, attempt=1), 1, 0)
    schedule.add(request(2, 3, flow_id=1, hop=0, attempt=0), 2, 0)
    schedule.add(request(2, 3, flow_id=1, hop=0, attempt=1), 3, 0)
    return flow_set, schedule


class TestDrawIsolation:
    @pytest.mark.parametrize("engine", [ENGINE_SLOT, ENGINE_EVENT])
    def test_dark_sender_leaves_other_flow_untouched(self, engine):
        """Darkening flow B's sender must not shift flow A's random
        draws (the historical bug class: an engine that skips an
        inactive entry's draws re-times every draw after it)."""
        flow_set, schedule = two_flow_setup()
        env = two_flow_environment()

        def run(conditions):
            sim = TschSimulator(schedule, flow_set, env, env.channel_map,
                                config=SimulationConfig(seed=9),
                                conditions=conditions)
            return run_engine(sim, engine, 12)

        clean = run(None)
        dark = run(Conditions(dark_nodes=frozenset({2})))

        assert dark.pdr_per_flow()[1] == 0.0
        assert dark.flow_released[0] == clean.flow_released[0]
        assert dark.flow_delivered[0] == clean.flow_delivered[0]

        def link_a(stats):
            column = stats.link_keys.index(((0, 1), False))
            return (stats.link_attempts[:, column].tolist(),
                    stats.link_successes[:, column].tolist())

        assert link_a(dark) == link_a(clean)


# ----------------------------------------------------------------------
# In-place schedule edits invalidate the per-schedule caches
# ----------------------------------------------------------------------

class TestInPlaceEdits:
    @pytest.mark.parametrize("engine,repetitions",
                             [(ENGINE_SLOT, 4), (ENGINE_EVENT, 12)])
    def test_evict_and_readd_matches_a_fresh_clone(self, engine,
                                                   repetitions):
        """Evicting an entry and adding its request back elsewhere
        leaves the entry count unchanged; the simulator must still see
        the edited cells, exactly as a fresh clone of the edited
        schedule does."""
        flow_set, schedule = two_flow_setup()
        env = two_flow_environment()

        def run(target):
            sim = TschSimulator(target, flow_set, env, env.channel_map,
                                config=SimulationConfig(seed=9))
            return run_engine(sim, engine, repetitions)

        run(schedule)  # compiles and caches the original cells
        moved = schedule.entries[0].request
        schedule.evict([0])
        schedule.add(moved, 5, 0)
        assert signature(run(schedule)) == signature(run(schedule.clone()))


# ----------------------------------------------------------------------
# ASN / substream continuity across start_repetition
# ----------------------------------------------------------------------

class TestStartRepetitionContinuity:
    @pytest.mark.parametrize("engine", [ENGINE_SLOT, ENGINE_EVENT])
    def test_split_run_equals_whole_run(self, engine):
        """run(6) must equal run(3) followed by run(3, start_repetition=3)
        — repetition substreams key on the *global* index, and the ASN
        (hence the hop pattern) advances with it."""
        whole = run_engine(tiny_simulator(), engine, 6)

        sim = tiny_simulator()
        first = run_engine(sim, engine, 3)
        second = run_engine(sim, engine, 3, start_repetition=3)

        merged_released = dict(first.flow_released)
        merged_delivered = dict(first.flow_delivered)
        for flow_id, count in second.flow_released.items():
            merged_released[flow_id] = merged_released.get(flow_id, 0) + count
        for flow_id, count in second.flow_delivered.items():
            merged_delivered[flow_id] = (merged_delivered.get(flow_id, 0)
                                         + count)
        assert merged_released == dict(whole.flow_released)
        assert merged_delivered == dict(whole.flow_delivered)

        def rep_buckets(stats):
            return signature(stats)[2]

        assert rep_buckets(first) + rep_buckets(second) == rep_buckets(whole)

    def test_engines_agree_on_offset_repetitions(self):
        """Parity is per global repetition, not just from zero."""
        slot = run_engine(tiny_simulator(), ENGINE_SLOT, 4,
                          start_repetition=10)
        event = run_engine(tiny_simulator(), ENGINE_EVENT, 4,
                           start_repetition=10)
        assert signature(slot) == signature(event)


# ----------------------------------------------------------------------
# Epoch boundaries: the manager's per-epoch pattern
# ----------------------------------------------------------------------

class TestEpochBoundaries:
    EPOCHS = 3
    REPS = 4

    def _run_epochs(self, engine):
        """The manager loop's shape: a fresh simulator every epoch with
        start_repetition advancing by repetitions_per_epoch."""
        per_epoch = []
        with _obs.recording(Recorder()) as rec:
            for epoch in range(self.EPOCHS):
                stats = run_engine(tiny_simulator(), engine, self.REPS,
                                   start_repetition=epoch * self.REPS)
                per_epoch.append(stats)
        counters = rec.registry.snapshot()["counters"]
        return per_epoch, {name: value for name, value in counters.items()
                           if name.startswith("sim.")}

    def test_epochs_identical_across_engines(self):
        slot_epochs, slot_counters = self._run_epochs(ENGINE_SLOT)
        event_epochs, event_counters = self._run_epochs(ENGINE_EVENT)

        for slot_stats, event_stats in zip(slot_epochs, event_epochs):
            assert signature(slot_stats) == signature(event_stats)
            assert slot_stats.channel_prr() == event_stats.channel_prr()

        # Every sim.* counter agrees.
        assert slot_counters["sim.repetitions"] == self.EPOCHS * self.REPS
        assert slot_counters == event_counters

    def test_epoch_split_matches_one_batched_run(self):
        """Running all epochs as one batched call gives the same
        per-repetition records as the epoch-by-epoch split."""
        whole = run_engine(tiny_simulator(), ENGINE_EVENT,
                           self.EPOCHS * self.REPS)
        epochs, _ = self._run_epochs(ENGINE_EVENT)
        split_buckets = tuple(bucket for stats in epochs
                              for bucket in signature(stats)[2])
        assert split_buckets == signature(whole)[2]


# ----------------------------------------------------------------------
# Chunking is a memory knob, never a semantics knob
# ----------------------------------------------------------------------

class TestChunkInvariance:
    @pytest.mark.parametrize("chunk_reps", [1, 2, 5, None])
    def test_chunking_never_changes_results(self, chunk_reps):
        baseline = run_engine(tiny_simulator(), ENGINE_EVENT, 5)
        chunked = run_engine(tiny_simulator(), ENGINE_EVENT, 5,
                             chunk_reps=chunk_reps)
        assert signature(chunked) == signature(baseline)

    def test_chunk_size_counts_the_working_set(self, monkeypatch):
        """A budget that exactly fits 100 repetitions' draw matrices
        must still split a run whose passes also hold per-entry and
        per-pair arrays — and the split run equals the unchunked one."""
        from repro.simulator import events

        flow_set, _ = two_flow_setup()
        env = two_flow_environment()
        schedule = Schedule(4, 100, 2)
        schedule.add(request(0, 1, flow_id=0, hop=0, attempt=0), 0, 0)
        schedule.add(request(2, 3, flow_id=1, hop=0, attempt=0), 0, 0)
        schedule.add(request(0, 1, flow_id=0, hop=0, attempt=1), 1, 0)
        schedule.add(request(2, 3, flow_id=1, hop=0, attempt=1), 1, 1)
        sim = TschSimulator(schedule, flow_set, env, env.channel_map,
                            config=SimulationConfig(seed=3))
        plan = sim.draw_plan
        assert sim.tables.num_pairs > 0
        whole = run_event_batched(sim, 100, chunk_reps=100)

        monkeypatch.setattr(
            events, "_CHUNK_TARGET_BYTES",
            8 * (plan.num_normals + plan.num_uniforms) * 100)
        assert events.default_chunk_size(plan, 100) < 100
        assert signature(run_event_batched(sim, 100)) == signature(whole)


# ----------------------------------------------------------------------
# The count store: a column that never fired counts as absent
# ----------------------------------------------------------------------

class TestCountStore:
    REPS = 36

    def test_silent_columns_read_like_the_oracle(self, wustl):
        """Dark first-hop senders silence whole routes, so the batched
        engine (a column for every scheduled key) hands over all-zero
        columns the slot oracle (only the keys it saw) never creates.
        Every reader must see the two stores alike."""
        topology, environment = wustl
        network = prepare_network(topology, channels=(11, 12, 13, 14))
        flow_set = build_reliability_flow_set(
            network, np.random.default_rng(20), flow_mix=((1.0, 20),))
        schedule = schedule_workload(network, flow_set, "RA").schedule
        dark = frozenset(flow.route[0] for flow in list(flow_set)[:4])

        def run(engine):
            sim = TschSimulator(schedule, flow_set, environment,
                                network.topology.channel_map,
                                config=SimulationConfig(seed=3),
                                conditions=Conditions(dark_nodes=dark))
            return run_engine(sim, engine, self.REPS)

        batched, oracle = run(ENGINE_EVENT), run(ENGINE_SLOT)
        assert not batched.link_attempts.sum(axis=0).all()
        assert oracle.link_attempts.sum(axis=0).all()
        assert batched.links_seen() == oracle.links_seen()
        for window in (None, (0, 18), (18, 36), (7, 25), (30, 31)):
            assert (build_epoch_report(batched, 1, window)
                    == build_epoch_report(oracle, 1, window))
            assert batched.channel_prr(window) == oracle.channel_prr(window)
        assert signature(batched) == signature(oracle)


# ----------------------------------------------------------------------
# The compile: the numpy builders against their python oracles
# ----------------------------------------------------------------------

def _unordered(a, b):
    return (a, b) if a <= b else (b, a)


def oracle_draw_plan(compiled, num_interferers):
    """The draw plan built slot by slot in python: each slot's senders
    × receivers into a pair set, sorted; offsets by running cursors."""
    slots = tuple(sorted(compiled))
    pair_set = set()
    for slot in slots:
        requests = [entry.request for entry in compiled[slot]]
        receivers = {request.receiver for request in requests}
        pair_set.update(_unordered(request.sender, receiver)
                        for request in requests for receiver in receivers)
    pairs = tuple(sorted(pair_set))
    pair_index = {pair: i for i, pair in enumerate(pairs)}

    entry_counts = []
    normal_offsets = []
    uniform_offsets = []
    normal_cursor = len(pairs)
    uniform_cursor = 0
    for slot in slots:
        count = len(compiled[slot])
        entry_counts.append(count)
        normal_offsets.append(normal_cursor)
        uniform_offsets.append(uniform_cursor)
        normal_cursor += count + count * count + num_interferers * count
        uniform_cursor += num_interferers + count
    return DrawPlan(
        pairs=pairs,
        pair_index=pair_index,
        slots=slots,
        entry_counts=tuple(entry_counts),
        normal_offsets=tuple(normal_offsets),
        uniform_offsets=tuple(uniform_offsets),
        num_normals=normal_cursor,
        num_uniforms=uniform_cursor,
        num_interferers=num_interferers,
    )


def _oracle_run_starts(keys):
    if not len(keys):
        return np.zeros(0, dtype=np.intp)
    return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])


def oracle_event_tables(compiled, shared, plan, num_logical):
    """The event tables with per-entry dicts and per-slot pair rows
    built in python."""
    entries = [entry for slot in plan.slots for entry in compiled[slot]]
    requests = [entry.request for entry in entries]
    num_entries = len(entries)
    counts = np.array(plan.entry_counts, dtype=np.intp)
    slot_pos = np.repeat(np.arange(len(counts)), counts)
    firsts = np.cumsum(counts) - counts
    local = np.arange(num_entries) - firsts[slot_pos]
    count = counts[slot_pos]
    normal0 = np.array(plan.normal_offsets, dtype=np.intp)[slot_pos]
    uniform0 = np.array(plan.uniform_offsets, dtype=np.intp)[slot_pos]
    interferer = np.arange(plan.num_interferers)[:, np.newaxis]

    sender = np.array([r.sender for r in requests], dtype=np.intp)
    receiver = np.array([r.receiver for r in requests], dtype=np.intp)
    offset = np.array([e.offset for e in entries], dtype=np.int64)
    slot = np.repeat(np.array(plan.slots, dtype=np.int64), counts)
    hop = np.array([r.hop_index for r in requests], dtype=np.int64)
    next_hop = hop + 1

    nodes = 1 + max((b for _, b in plan.pairs), default=0)
    pair_keys = np.array([a * nodes + b for a, b in plan.pairs],
                         dtype=np.int64)

    def drift_columns(a, b):
        keys = np.minimum(a, b) * nodes + np.maximum(a, b)
        return np.searchsorted(pair_keys, keys)

    packets: Dict = {}
    groups: Dict = {}
    packet, group = [], []
    for entry, request in zip(entries, requests):
        packet.append(packets.setdefault(
            (request.flow_id, request.instance), len(packets)))
        group.append(groups.setdefault(
            ((request.sender, request.receiver),
             (entry.slot, entry.offset) in shared),
            len(groups)))
    packet = np.array(packet, dtype=np.intp)
    group = np.array(group, dtype=np.intp)

    channel_class = (offset % num_logical).tolist()
    pair_receiver: List[int] = []
    pair_other: List[int] = []
    span_bounds = []
    for first, slot_count in zip(firsts.tolist(), counts.tolist()):
        stop = first + slot_count
        members: Dict[int, List[int]] = {}
        for e in range(first, stop):
            members.setdefault(channel_class[e], []).append(e)
        width = max(len(m) for m in members.values()) - 1
        pair_first = len(pair_receiver)
        if width:
            for e in range(first, stop):
                others = [o for o in members[channel_class[e]] if o != e]
                pair_receiver.extend([e] * width)
                pair_other.extend(others + [e] * (width - len(others)))
        span_bounds.append((first, stop, pair_first, len(pair_receiver),
                            slot_count, width))
    pair_receiver = np.array(pair_receiver, dtype=np.intp)
    pair_other = np.array(pair_other, dtype=np.intp)
    local_other = local[pair_other]

    spans = tuple(
        (first, stop, pair_first, pair_stop, slot_count, width,
         packet[first:stop], hop[first:stop], next_hop[first:stop],
         local_other[pair_first:pair_stop])
        for first, stop, pair_first, pair_stop, slot_count, width
        in span_bounds)

    group_order = np.argsort(group, kind="stable")
    return EventTables(
        sender=sender,
        receiver=receiver,
        slot_offset=slot + offset,
        next_hop=next_hop,
        flow=np.array([r.flow_id for r in requests], dtype=np.intp),
        drift_col=drift_columns(sender, receiver),
        fast_col=normal0 + local,
        reception_col=uniform0 + plan.num_interferers + local,
        activity_col=uniform0 + interferer,
        interferer_fast_col=(normal0 + count + count * count
                             + interferer * count + local),
        pair_receiver=pair_receiver,
        pair_other=pair_other,
        pair_drift_col=drift_columns(sender[pair_other],
                                     receiver[pair_receiver]),
        pair_fast_col=(normal0[pair_receiver] + count[pair_receiver]
                       + local[pair_receiver] * count[pair_receiver]
                       + local_other),
        pair_padding=pair_other == pair_receiver,
        spans=spans,
        num_packets=len(packets),
        groups=tuple(groups),
        group_order=group_order,
        group_starts=_oracle_run_starts(group[group_order]),
    )


def _assert_same_array(got, want, name):
    assert isinstance(got, np.ndarray), name
    assert got.dtype == want.dtype, name
    assert got.shape == want.shape, name
    assert np.array_equal(got, want), name


def assert_same_compile(compiled, shared, num_interferers, num_logical):
    """The builders' plan and tables equal the oracles', field for
    field: equal values, python ints where the oracle has them, and
    arrays of the oracle's dtype and shape."""
    plan = build_draw_plan(compiled, num_interferers)
    expected_plan = oracle_draw_plan(compiled, num_interferers)
    assert plan == expected_plan
    assert repr(plan) == repr(expected_plan)

    tables = build_event_tables(compiled, shared, plan, num_logical)
    expected = oracle_event_tables(compiled, shared, expected_plan,
                                   num_logical)
    for field in dataclasses.fields(EventTables):
        got = getattr(tables, field.name)
        want = getattr(expected, field.name)
        if isinstance(want, np.ndarray):
            _assert_same_array(got, want, field.name)
        elif field.name == "spans":
            assert len(got) == len(want)
            for span, oracle_span in zip(got, want):
                assert repr(span[:6]) == repr(oracle_span[:6])
                for view, oracle_view in zip(span[6:], oracle_span[6:]):
                    _assert_same_array(view, oracle_view, "spans")
        else:
            assert got == want, field.name
            assert repr(got) == repr(want), field.name


def shared_cells(schedule):
    return {(slot, offset)
            for slot, offset, _ in schedule.reused_cell_indices()}


def fuzz_schedules(cases=8, seed=0):
    """Schedulable RA and RC schedules of the fuzzer's drawn cases, with
    each case's channel count."""
    from repro.routing.shortest_path import NoRouteError
    from repro.validate.fuzz import _build_case, _draw_params

    schedules = []
    for index in range(cases):
        rng = np.random.default_rng([seed, index])
        params = _draw_params(rng)
        try:
            network, _, flow_set = _build_case(params)
        except (NoRouteError, ValueError):
            continue
        for policy in ("RA", "RC"):
            result = schedule_workload(network, flow_set, policy,
                                       params["rho_t"])
            if result.schedulable:
                schedules.append((f"fuzz{index}-{policy}", result.schedule,
                                  network.num_channels))
    return schedules


def hand_schedules():
    """The empty schedule, a slot-per-entry schedule, and slots whose
    channels carry three, two and one entries (rows padded by one or
    two)."""
    empty = Schedule(4, 100, 2)
    _, single = tiny_flow_and_schedule()
    crowded = Schedule(12, 100, 3)
    for slot, offset, sender, flow_id in (
            (0, 0, 0, 0), (0, 1, 2, 1), (0, 0, 4, 2), (0, 1, 6, 3),
            (0, 0, 8, 4), (0, 2, 10, 5),
            (1, 1, 3, 6), (1, 1, 5, 7), (1, 1, 7, 8), (4, 2, 1, 9)):
        crowded.force_add(request(sender, sender + 1, flow_id=flow_id),
                          slot, offset)
    return [("empty", empty, 2), ("single", single, 2),
            ("crowded", crowded, 3)]


@pytest.fixture(scope="module")
def compile_schedules():
    return hand_schedules() + fuzz_schedules()


class TestCompileMatchesOracle:
    @pytest.mark.parametrize("num_interferers", [0, 1, 2, 3])
    def test_schedules(self, compile_schedules, num_interferers):
        """Fuzzer-drawn, empty, slot-per-entry and crowded schedules,
        on their own channel count, on one fewer (a channel blacklisted
        under the running schedule: two offsets share a channel class)
        and on a single channel (every entry of a slot interferes)."""
        assert any(schedule.num_reused_cells()
                   for _, schedule, _ in compile_schedules)
        for _, schedule, num_channels in compile_schedules:
            compiled = schedule.entries_by_slot()
            for num_logical in sorted({num_channels,
                                       max(1, num_channels - 1), 1}):
                assert_same_compile(compiled, shared_cells(schedule),
                                    num_interferers, num_logical)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(
        st.integers(0, 3),       # slot
        st.integers(0, 3),       # offset
        st.integers(0, 5),       # sender
        st.integers(0, 5),       # receiver
        st.integers(0, 4),       # flow
        st.integers(0, 2),       # instance
        st.integers(0, 3)),      # hop
        max_size=30),
        st.integers(0, 3), st.integers(1, 5))
    def test_arbitrary_entries(self, rows, num_interferers, num_logical):
        """Entries the schedulers would never place — repeated links,
        packets spread over slots, nodes in several entries of a slot —
        compile alike; any cell with two occupants is shared."""
        compiled: Dict[int, List[ScheduledTransmission]] = {}
        occupants: Dict = {}
        for slot, offset, sender, receiver, flow, instance, hop in rows:
            if sender == receiver:
                continue
            entry = ScheduledTransmission(
                TransmissionRequest(flow, instance, hop, 0, sender,
                                    receiver, 0, 99), slot, offset)
            compiled.setdefault(slot, []).append(entry)
            occupants[slot, offset] = occupants.get((slot, offset), 0) + 1
        compiled = dict(sorted(compiled.items()))
        shared = {cell for cell, count in occupants.items() if count > 1}
        assert_same_compile(compiled, shared, num_interferers, num_logical)
