"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import fleet  # noqa: E402
import inproc  # noqa: E402
import stats  # noqa: E402
from layers import LayerClock  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())


def test_same_seed_same_plans():
    first = fleet.make_plans(seed=4, seconds=10)
    assert first == fleet.make_plans(seed=4, seconds=10)
    assert first != fleet.make_plans(seed=5, seconds=10)
    # Rounds draw independent streams.
    assert len({json.dumps(plan) for plan in first}) == fleet.ROUNDS


def test_plans_compile_every_network_and_give_each_the_same_quota():
    for plan in fleet.make_plans(seed=1, seconds=10):
        counts, first_verb = {}, {}
        for payload in plan:
            counts[payload["network"]] = counts.get(payload["network"], 0) + 1
            first_verb.setdefault(payload["network"], payload["verb"])
        assert len(counts) == fleet.NETWORKS
        assert len(set(counts.values())) == 1
        assert set(first_verb.values()) == {"schedule"}
        configs = [p["config"] for p in plan if "config" in p]
        assert {c["seed"] for c in configs} == {fleet.TOPOLOGY_SEED}


def test_in_process_units_are_seeded_rotations_of_the_pool():
    for name in ("sweep-fig1", "manage-storm"):
        units = inproc.units_for(name, seed=3, seconds=10)
        assert units == inproc.units_for(name, seed=3, seconds=10)
        assert set(units) <= set(inproc.pool(name))
        assert units[0] == inproc.pool(name)[3 % len(inproc.pool(name))]


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(999)), 99.0)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile([], 50.0)
    values = list(range(1, 1001))
    assert stats.samples_beyond(1000, 99.0) == 10
    assert stats.percentile(values, 99.0) == 990
    assert stats.percentile(values, 50.0) == 500
    # min_beyond is the only knob: one sample beyond is allowed on ask.
    assert stats.percentile(list(range(1, 101)), 99.0, min_beyond=1) == 99


def test_host_factor_scales_to_the_reference_speed():
    ref = stats.CALIBRATION_REF_S
    assert stats.host_factor(ref, ref) == pytest.approx(1.0)
    # A host twice as slow: measured times halve, rates double.
    assert stats.host_factor(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert stats.calibration_s() > 0
    assert stats.calibration_s(all_cpus=True) > 0


def test_layer_clock_splits_self_time_from_nested_calls():
    class Owner:
        @staticmethod
        def inner():
            time.sleep(0.02)

        @staticmethod
        def outer():
            Owner.inner()
            time.sleep(0.01)

    with LayerClock() as clock:
        clock.patch(Owner, "inner", "b")
        clock.patch(Owner, "outer", "a")
        Owner.outer()
    assert clock.count == {"a": 1, "b": 1}
    assert clock.busy["a"] >= clock.busy["b"] >= 0.02
    assert clock.self_s["a"] == pytest.approx(clock.busy["a"]
                                              - clock.busy["b"])
    assert clock.covered_s() == pytest.approx(clock.busy["a"])
    assert not hasattr(Owner.outer, "__wrapped__")  # restored on exit


def test_names_follow_the_rule():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"]]
    names += [m["name"] for m in BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_spec_documents_every_declared_name():
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(SPEC["workloads"]) == workloads
    assert set(SPEC["end_to_end"]) == {m["name"]
                                       for m in BENCHMARK["end_to_end"]}
    assert set(SPEC["per_layer"]) == {m["name"]
                                      for m in BENCHMARK["per_layer"]}
    end_to_end = set(SPEC["end_to_end"])
    for name, entry in SPEC["per_layer"].items():
        for arrow in entry["moves"]:
            assert arrow["metric"] in end_to_end, name
            assert arrow["workload"] in workloads, name


def test_every_pool_entry_has_a_reference():
    for name in ("sweep-fig1", "manage-storm"):
        recorded = SPEC["reference"][name]
        assert set(recorded) == {str(entry) for entry in inproc.pool(name)}


def test_digest_ignores_float_noise_below_ten_places():
    assert inproc.digest({"x": 0.1 + 0.2}) == inproc.digest({"x": 0.3})
    assert inproc.digest({"x": 0.3}) != inproc.digest({"x": 0.3001})
