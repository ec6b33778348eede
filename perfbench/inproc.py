"""The two in-process workloads: sweep-fig1 and manage-storm.

Both do fixed work made of *units* drawn from a recorded input pool:

* **sweep-fig1** — one unit is a ``run_sweep`` call (``workers=1``)
  over the paper's Fig 1 axes: Indriya, centralized traffic, channels
  {3, 4, 5, 8}, 30 flows, period range [2^-1, 2^3] s, NR/RA/RC on one
  flow set per point.  Pool entry ``i`` uses flow-set seed ``1000 * i``.
* **manage-storm** — one unit is a ``NetworkManager.run()``: WUSTL,
  ``reuse-storm``, ``reschedule`` policy, RA, 80 flows, 18 reps per
  epoch, 40 epochs.  Pool entry ``i`` uses manager seed ``i``.

A run executes ``units_for(seconds)`` units, cycling the pool from
``seed mod len(pool)``, so every run does (nearly) the same work in a
seed-rotated order and run-to-run spread measures the system rather
than the draw.  Each unit's output is checked against the reference
recorded for its pool entry in ``spec.json``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

import stats
from layers import LayerClock, Stamps

POLICIES = ("NR", "RA", "RC")
SWEEP_VALUES = (3, 4, 5, 8)
SWEEP_POOL = tuple(1000 * i for i in range(10))
MANAGE_POOL = tuple(range(6))
#: Expected wall time of one unit on a 2-core host; sizes a run.
UNIT_SECONDS = {"sweep-fig1": 1.0, "manage-storm": 1.7}
#: Tail percentile per workload, and the units it needs (>= 10
#: samples beyond: 12 trials or 40 epochs per unit).
TAIL_Q = {"sweep-fig1": 90.0, "manage-storm": 95.0}
MIN_UNITS = {"sweep-fig1": 9, "manage-storm": 5}
SETUPS = 3
MANAGE_EPOCHS = 40


def pool(workload: str) -> Tuple[int, ...]:
    return SWEEP_POOL if workload == "sweep-fig1" else MANAGE_POOL


def units_for(workload: str, seed: int, seconds: float) -> List[int]:
    """Pool entries (seeds) this run executes, in order."""
    entries = pool(workload)
    count = max(MIN_UNITS[workload],
                round(seconds / UNIT_SECONDS[workload]))
    return [entries[(seed + i) % len(entries)] for i in range(count)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- sweep-fig1 ----------------------------------------------------------

class Sweep:
    """Fig 1 on Indriya, one flow set per point per unit."""

    name = "sweep-fig1"

    def __init__(self):
        started = time.perf_counter()
        from repro.experiments import schedulability
        from repro.experiments.common import prepare_network
        from repro.flows.generator import PeriodRange
        from repro.routing.traffic import TrafficType
        from repro.testbeds import make_indriya

        self.import_s = time.perf_counter() - started
        self.module = schedulability
        self.traffic = TrafficType.CENTRALIZED
        self.period_range = PeriodRange(-1, 3)
        self._make = make_indriya
        self._prepare = prepare_network
        self.topology = None

    def build(self) -> Dict[str, float]:
        """Testbed synthesis + every point's prepare_network."""
        started = time.perf_counter()
        topology, _ = self._make()
        synth = time.perf_counter()
        for channels in SWEEP_VALUES:
            self._prepare(topology, num_channels=channels)
        self.topology = topology
        return {"testbeds": synth - started,
                "prepare": time.perf_counter() - synth}

    def unit(self, entry: int):
        return self.module.run_sweep(
            self.topology, self.traffic, "channels", SWEEP_VALUES,
            fixed_flows=30, period_range=self.period_range,
            num_flow_sets=1, seed=entry, workers=1)

    @staticmethod
    def ops(result) -> int:
        return len(result.outcomes)

    @staticmethod
    def latencies_ms(result, stamps=None) -> List[float]:
        """Per-trial scheduler execution time (the paper's Fig 6)."""
        return [1e3 * o.elapsed_s for o in result.outcomes if o.elapsed_s]

    @staticmethod
    def output(result) -> Dict:
        hops: Dict[str, Counter] = {p: Counter() for p in POLICIES}
        for outcome in result.outcomes:
            hops[outcome.policy].update(outcome.hop_hist)
        return {"ratios": {p: {str(x): r for x, r in sorted(v.items())}
                           for p, v in result.schedulable_ratios().items()},
                "hops": {p: {str(h): c for h, c in sorted(v.items())}
                         for p, v in hops.items()}}

    def stamps(self):
        return None

    def instrument(self, clock: LayerClock, notes: Dict) -> None:
        from repro.experiments import parallel

        placements = notes.setdefault("placements", Counter())

        def placed(args, kwargs, result):
            placements[args[2]] += len(result.schedule)

        module = self.module
        clock.patch(module, "build_workload",
                    "experiments.common.build_workload")
        clock.patch(module, "schedule_workload",
                    lambda args, kwargs: f"core.scheduler.schedule.{args[2]}",
                    placed)
        clock.patch(module, "tx_per_cell_distribution", "analysis.metrics")
        clock.patch(module, "reuse_hop_distribution", "analysis.metrics")
        clock.patch(parallel, "prepare_network",
                    "experiments.common.prepare_network")

    def counted(self, entry: int) -> Dict[str, Counter]:
        """Slots scanned and placements per policy, from one unit run
        under the program's recorder (separate, untimed)."""
        from repro import obs

        totals = {p: Counter() for p in POLICIES}
        clock = LayerClock()

        def count(args, kwargs, result):
            totals[args[2]].update({k: result.counters.get(k, 0) for k in
                                    ("slots_scanned", "placements")})

        with clock, obs.recording():
            clock.patch(self.module, "schedule_workload", "counted", count)
            self.unit(entry)
        return totals


# -- manage-storm ----------------------------------------------------------

class Manage:
    """The closed manage loop on WUSTL under the reuse storm."""

    name = "manage-storm"

    def __init__(self):
        started = time.perf_counter()
        from repro.experiments.common import prepare_network
        from repro.manager import ManagerConfig, NetworkManager
        from repro.manager import faults, loop
        from repro.testbeds import WUSTL_PLAN, make_wustl

        self.import_s = time.perf_counter() - started
        self.loop = loop
        self.faults = faults
        self._config = ManagerConfig
        self._manager = NetworkManager
        self._make = make_wustl
        self._prepare = prepare_network
        self.plan = WUSTL_PLAN
        self.topology = self.environment = None

    def build(self) -> Dict[str, float]:
        started = time.perf_counter()
        topology, environment = self._make()
        synth = time.perf_counter()
        self._prepare(topology, channels=self.loop.MANAGE_CHANNELS)
        self.topology, self.environment = topology, environment
        return {"testbeds": synth - started,
                "prepare": time.perf_counter() - synth}

    def unit(self, entry: int):
        config = self._config(
            scenario="reuse-storm", policy="reschedule",
            scheduler_policy="RA", num_epochs=MANAGE_EPOCHS,
            repetitions_per_epoch=18, num_flows=80, seed=entry)
        return self._manager(self.topology, self.environment, self.plan,
                             config).run()

    @staticmethod
    def ops(report) -> int:
        return len(report.epochs)

    def stamps(self) -> Stamps:
        """Epoch boundaries: each epoch starts by resolving conditions."""
        return Stamps(self.faults.ScenarioResolver, "conditions_for")

    @staticmethod
    def latencies_ms(report, stamps: Tuple[List[float], float]) -> List[float]:
        times, end = stamps
        bounds = list(times) + [end]
        return [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]

    @staticmethod
    def output(report) -> Dict:
        return {"digest": digest(report.to_dict())}

    def instrument(self, clock: LayerClock, notes: Dict) -> None:
        from repro.detection.health import StreamingHealthMonitor
        from repro.obs.slo import SloEngine
        from repro.simulator.engine import TschSimulator

        reps = notes.setdefault("reps", Counter())

        def simulated(args, kwargs, result):
            reps["total"] += kwargs.get("repetitions", args[1]
                                        if len(args) > 1 else 100)

        loop = self.loop
        clock.patch(loop, "prepare_network",
                    "experiments.common.prepare_network")
        clock.patch(loop, "build_detection_flow_set",
                    "experiments.detection_exp.build_detection_flow_set")
        clock.patch(loop, "schedule_workload",
                    lambda args, kwargs: f"core.scheduler.schedule.{args[2]}")
        clock.patch(TschSimulator, "run", "simulator.run", simulated)
        clock.patch(loop, "build_epoch_report", "detection.epoch_report")
        clock.patch(loop, "diagnose_epoch", "detection.diagnose")
        clock.patch(loop, "audit_schedule", "validate.audit")
        clock.patch(loop, "repair_schedule", "core.repair")
        clock.patch(loop, "reschedule_without_reuse_on", "core.reschedule")
        clock.patch(SloEngine, "observe_epoch", "obs.slo")
        clock.patch(StreamingHealthMonitor, "observe", "detection.health")
        clock.patch(self.faults.ScenarioResolver, "conditions_for",
                    "manager.faults")


def digest(data: Dict) -> str:
    """sha256 of a canonical JSON form, floats rounded to 10 places
    (so a last-bit difference in a PDR does not read as a new result)."""
    def canonical(value):
        if isinstance(value, float):
            return round(value, 10)
        if isinstance(value, dict):
            return {k: canonical(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [canonical(v) for v in value]
        return value

    text = json.dumps(canonical(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS: Dict[str, Callable] = {"sweep-fig1": Sweep, "manage-storm": Manage}


# -- running ---------------------------------------------------------------

def run_units(workload, entries: List[int], clock: LayerClock = None,
              notes: Dict = None) -> Dict:
    """Run the units, calibrating host speed before and after each.

    Returns results, per-op latencies and unit walls, each scaled to
    the reference host (``stats.host_factor``), plus the raw walls.
    """
    results, latencies, walls, raw = [], [], [], []
    if clock is not None:
        workload.instrument(clock, notes)
    before = stats.calibration_s()
    for entry in entries:
        stamps = workload.stamps()
        started = time.perf_counter()
        try:
            result = workload.unit(entry)
        finally:
            end = time.perf_counter()
            if stamps is not None:
                stamps.__exit__()
        after = stats.calibration_s()
        factor = stats.host_factor(before, after)
        before = after
        raw.append(end - started)
        walls.append((end - started) * factor)
        results.append(result)
        latencies.extend(factor * ms for ms in workload.latencies_ms(
            result, (stamps.times, end) if stamps is not None else None))
    return {"results": results, "latencies": latencies, "walls": walls,
            "raw_walls": raw}


def setup(workload) -> Tuple[float, Dict[str, float]]:
    """Import time plus the median of ``SETUPS`` testbed builds, scaled
    to the reference host like every other time."""
    before = stats.calibration_s()
    builds = [workload.build() for _ in range(SETUPS)]
    factor = stats.host_factor(before, stats.calibration_s())
    totals = [sum(b.values()) for b in builds]
    pick = builds[totals.index(sorted(totals)[len(totals) // 2])]
    return factor * (workload.import_s + stats.median(totals)), pick


def check(workload, entries: List[int], results, reference: Dict
          ) -> Tuple[int, int]:
    """(attempted ops, failed ops): a unit whose output differs from the
    recorded reference fails every op it did."""
    attempted = failed = 0
    for entry, result in zip(entries, results):
        ops = workload.ops(result)
        attempted += ops
        if workload.output(result) != reference.get(str(entry)):
            failed += ops
    return attempted, failed


def end_to_end(workload, run: Dict, setup_s: float) -> Tuple[Dict, Dict]:
    ops = sum(workload.ops(r) for r in run["results"])
    summary = stats.latency_summary(run["latencies"], TAIL_Q[workload.name])
    values = {"setup_s": setup_s,
              "ops_per_s": ops / sum(run["walls"]),
              "latency_p50_ms": summary["p50"],
              "latency_tail_ms": summary["tail"],
              "peak_rss_mb": peak_rss_mb()}
    notes = {"ops": ops, "unit": ("trial" if workload.name == "sweep-fig1"
                                  else "epoch"),
             "groups": f"{len(run['walls'])} unit(s)",
             "wall_s": sum(run["walls"]), "raw_wall_s": sum(run["raw_walls"]),
             "latency": summary}
    return values, notes


def per_layer(workload, entries: List[int], plain: Dict,
              build: Dict[str, float]) -> Tuple[Dict[str, float], Dict]:
    """Re-run the units under layer timers; returns (metrics, traced run)."""
    clock = LayerClock()
    notes: Dict = {}
    with clock:
        traced = run_units(workload, entries, clock, notes)
    # Layer clocks read raw time, so coverage and self time use raw walls;
    # the overhead compares two scaled walls, to cancel host swings.
    raw_wall = sum(traced["raw_walls"])
    children = clock.covered_s()
    metrics: Dict[str, float] = {}
    for layer in clock.busy:
        metrics[f"{layer}.busy_s"] = clock.busy[layer]
        metrics[f"{layer}.count"] = clock.count[layer]
    metrics["testbeds.busy_s"] = build["testbeds"]
    metrics["experiments.common.prepare_network.busy_s"] = \
        clock.busy.get("experiments.common.prepare_network", 0.0) \
        + build["prepare"]
    top = ("experiments.schedulability" if workload.name == "sweep-fig1"
           else "manager.loop")
    metrics[f"{top}.self_s"] = raw_wall - children
    metrics["bench.coverage"] = stats.safe_ratio(children, raw_wall)
    wall = sum(traced["walls"])
    plain_wall = sum(plain["walls"])
    metrics["bench.traced_wall_s"] = wall
    metrics["bench.untraced_wall_s"] = plain_wall
    metrics["bench.tracing_overhead_s"] = wall - plain_wall
    metrics["bench.tracing_overhead_pct"] = \
        100.0 * (stats.safe_ratio(wall, plain_wall) - 1.0)

    if workload.name == "sweep-fig1":
        counted = workload.counted(entries[0])
        for policy in POLICIES:
            busy = clock.busy.get(f"core.scheduler.schedule.{policy}", 0.0)
            metrics[f"core.scheduler.placements_per_s.{policy}"] = \
                stats.safe_ratio(notes["placements"][policy], busy)
            metrics[f"core.scheduler.slots_scanned_per_placement.{policy}"] \
                = stats.safe_ratio(counted[policy]["slots_scanned"],
                                   counted[policy]["placements"])
    else:
        metrics["simulator.reps_per_s"] = stats.safe_ratio(
            notes["reps"]["total"], clock.busy.get("simulator.run", 0.0))
        modes = Counter(epoch.repair_mode for report in traced["results"]
                        for epoch in report.epochs)
        metrics["core.repair.evicted_cells"] = sum(
            epoch.evicted_cells for report in traced["results"]
            for epoch in report.epochs)
        metrics["core.repair.success_ratio"] = stats.safe_ratio(
            modes["repair"], modes["repair"] + modes["rebuild"])
    return metrics, traced
