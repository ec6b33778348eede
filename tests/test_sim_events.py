"""Tests for the event-driven batched simulator core (repro.simulator.events).

The contract under test: both engines consume one pinned, outcome-
independent draw plan per repetition, so the batched event engine is
bit-identical to the slot oracle — per run, per epoch, and regardless of
how repetitions are chunked into draw matrices.
"""

import numpy as np
import pytest

from repro.core.schedule import Schedule
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
                uniform_indices.append(
                    plan.activity_uniform_index(pos, interferer))
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
