"""Decision benchmark: ``python -m repro bench``.

The code makes three choices on speed alone, and this benchmark is the
measurement behind each of them:

* RC's fused descent, which walks each placement's window once for
  all its finite-ρ probes, instead of Algorithm 1's stepwise loop,
  which stays as its oracle
  (:func:`repro.core.rc.stepwise_descent`), timed on fixed, seeded
  Figure-1-style workloads (Indriya testbed, 5 channels, centralized
  traffic) — the paper's Fig 6 quantity, scheduler execution time.
  NR and RA have one placement path each, so they have no cell;
* warm-start repair (:mod:`repro.core.repair`) over the full barrier
  rebuild for single-victim remediation (the manager and the service
  always try repair first, through
  :func:`repro.manager.loop.remediate`, which is what the cell times:
  a repair that fails placement pays for its fallback rebuild);
* the batched event simulator, which
  :meth:`repro.simulator.engine.TschSimulator.run` always takes, over
  the slot oracle at experiment repetition counts, on reliability-style
  WUSTL workloads.

Each **decision cell** reads the chosen path from the code and times it
against its alternative in interleaved rounds (one run of each per
round, the order alternating, so drift on shared hardware hits both
alike).  The per-round ratio ``other / chosen`` gives the verdict with
no fixed percentage: ``holds`` when its lower quartile exceeds 1,
``lost`` when its upper quartile is below 1, and ``unresolved``
otherwise.  At the default 5 rounds, ``holds`` means the chosen path
won at least 4 of them and ``lost`` that it lost at least 4.
``repro bench`` exits 3 when a decision is lost, after writing the
report; an unresolved cell is printed and does not fail the run.
Median wall times per path stay in the report as information only:
absolute times are gated end to end by ``perfbench`` under the bounds
of ``BENCHMARK.json``.

Each cell also cross-checks correctness, so a timing can never mask a
divergence: the two RC descents must build identical schedules, the
remediated schedule must pass the audit, and the two simulator engines
must produce identical statistics.  Work counters (placements, slots
scanned) come from one separate recorded pass per workload, on the
fused descent; the counters do not depend on the descent.
"""

from __future__ import annotations

import collections
import json
import os
import platform
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.analysis.metrics import BoxStats
from repro.core.rc import stepwise_descent
from repro.experiments.common import (
    build_workload,
    make_policy,
    prepare_network,
    schedule_workload,
)
from repro.flows.generator import PeriodRange
from repro.routing.traffic import TrafficType

#: Default output file, tracked in the repository.
DEFAULT_OUT = "BENCH_schedulers.json"

#: Interleaved timing rounds per decision cell, quick and full alike.
DEFAULT_ROUNDS = 5

#: Verdicts of a decision cell (see :func:`judge`).
HOLDS = "holds"
UNRESOLVED = "unresolved"
LOST = "lost"

#: Figure-1-style workload sizes (flows on 5 channels, centralized).
#: Quick mode keeps the smallest cell of each decision.
FULL_FLOW_COUNTS = (20, 30, 50, 70)
QUICK_FLOW_COUNTS = (20,)

#: Remediation workload sizes (single-victim repair vs full barrier
#: rebuild on an RC schedule).
REMEDIATION_FLOW_COUNTS = (30, 50, 70)
QUICK_REMEDIATION_FLOW_COUNTS = (30,)

#: Simulator cells: reliability-style WUSTL workloads (1 s p2p flows on
#: channels 11-14) at three scheduling pressures.
SIMULATOR_CHANNELS = (11, 12, 13, 14)
SIMULATOR_FLOW_COUNTS = (20, 50, 80)
QUICK_SIMULATOR_FLOW_COUNTS = (20,)

#: Monte-Carlo repetitions per simulator cell (the reliability
#: experiment's 100, so the full numbers speak for the real sweep).
SIMULATOR_REPETITIONS = 100
QUICK_SIMULATOR_REPETITIONS = 10


def judge(ratios: Sequence[float]) -> Dict:
    """Quartiles and verdict of per-round ``other / chosen`` ratios.

    ``holds`` when the lower quartile exceeds 1, ``lost`` when the upper
    quartile is below 1, ``unresolved`` otherwise.
    """
    stats = BoxStats.from_values(ratios)
    if stats.q1 > 1.0:
        verdict = HOLDS
    elif stats.q3 < 1.0:
        verdict = LOST
    else:
        verdict = UNRESOLVED
    return {"ratio": {"q1": stats.q1, "median": stats.median,
                      "q3": stats.q3},
            "verdict": verdict}


def _decide(paths: Dict[str, Callable[[], Any]], chosen: str,
            rounds: int) -> Tuple[Dict, Dict[str, Any]]:
    """Time ``paths[chosen]`` against the other path in interleaved rounds.

    Returns the decision fields of a cell and each path's result from
    the last round, for the caller's correctness cross-check.
    """
    (other,) = set(paths) - {chosen}
    walls: Dict[str, List[float]] = {chosen: [], other: []}
    results: Dict[str, Any] = {}
    for index in range(rounds):
        for path in (chosen, other) if index % 2 == 0 else (other, chosen):
            start = time.perf_counter()
            results[path] = paths[path]()
            walls[path].append(time.perf_counter() - start)
    decision = {"chosen": chosen, "other": other,
                "wall_s": {path: float(np.median(times))
                           for path, times in walls.items()},
                **judge([o / c for o, c in zip(walls[other],
                                               walls[chosen])])}
    return decision, results


def _workloads(flow_counts: Sequence[int], seed: int):
    """Build the fixed benchmark workloads (one flow set per size)."""
    from repro.testbeds import make_indriya

    topology, _ = make_indriya()
    network = prepare_network(topology, num_channels=5)
    workloads = []
    for num_flows in flow_counts:
        rng = np.random.default_rng(seed)
        flow_set = build_workload(network, num_flows, PeriodRange(0, 4),
                                  TrafficType.CENTRALIZED, rng)
        workloads.append((num_flows, flow_set))
    return network, workloads


def _placements_of(result) -> List[tuple]:
    """Schedule as a comparable list (full placement signature)."""
    if not result.schedulable or result.schedule is None:
        return []
    return result.schedule.signature()


def _schedule_stepwise(network, flow_set):
    with stepwise_descent():
        return schedule_workload(network, flow_set, "RC")


def bench_schedulers(flow_counts: Sequence[int], seed: int,
                     rounds: int) -> List[Dict]:
    """RC's descent decision per flow count.

    Times the fused descent against the stepwise loop (forced with
    :func:`repro.core.rc.stepwise_descent`) and aborts if they build
    different schedules.
    """
    network, workloads = _workloads(flow_counts, seed)
    cells: List[Dict] = []
    for num_flows, flow_set in workloads:
        decision, results = _decide({
            "fused": lambda: schedule_workload(network, flow_set, "RC"),
            "stepwise": lambda: _schedule_stepwise(network, flow_set),
        }, "fused", rounds)
        if (_placements_of(results["fused"])
                != _placements_of(results["stepwise"])):
            raise AssertionError(
                f"descent divergence: RC at {num_flows} flows built "
                f"different schedules on the fused and stepwise paths")
        with obs.recording() as recorder:
            result = schedule_workload(network, flow_set, "RC")
        counters = recorder.snapshot()["counters"]
        cells.append({
            "name": f"RC@{num_flows}", "num_flows": num_flows,
            "policy": "RC", **decision,
            "schedulable": result.schedulable,
            "placements": int(counters.get("scheduler.placements", 0)),
            "slots_scanned": int(counters.get("scheduler.slots_scanned", 0)),
        })
    return cells


def bench_remediation(flow_counts: Sequence[int], seed: int,
                      rounds: int) -> List[Dict]:
    """Remediation decision: single-victim warm-start repair vs rebuild.

    For each flow count, builds the RC schedule once, picks the
    deterministic victim link (the smallest link in any shared cell),
    and times both remediation paths:

    * **repair** (chosen: the manager and the service try it first) —
      :func:`repro.manager.loop.remediate` unaudited, the call both
      make: :func:`repro.core.repair.repair_schedule` evicting the
      victim's blast radius and re-placing it against the warm busy
      bitsets, then the rebuild when repair fails placement, so a
      failed repair pays for its fallback;
    * **rebuild** — :func:`repro.core.reschedule
      .reschedule_without_reuse_on` re-running the full scheduler
      under a reuse-barrier policy.

    ``schedulable.repair`` says whether the chosen path's repair
    placed (it served no rebuild); ``evicted_cells`` and
    ``blast_seeds`` size one untimed repair attempt's blast radius.
    The chosen path's schedule is audited once per cell (outside the
    timed runs) so a latency win can never mask a correctness loss.
    """
    from repro.core.ra import DEFAULT_RHO_T
    from repro.core.repair import (ChangeSet, repair_schedule,
                                   smallest_reused_link)
    from repro.core.reschedule import reschedule_without_reuse_on
    from repro.manager.loop import remediate
    from repro.validate.audit import audit_schedule

    network, workloads = _workloads(flow_counts, seed)
    cells: List[Dict] = []
    for num_flows, flow_set in workloads:
        baseline = schedule_workload(network, flow_set, "RC")
        cell: Dict = {"name": f"remediation@{num_flows}",
                      "num_flows": num_flows, "policy": "RC",
                      "rho_t": DEFAULT_RHO_T}
        cells.append(cell)
        if not baseline.schedulable:
            cell["skipped"] = "baseline workload unschedulable"
            continue
        victim = smallest_reused_link(baseline.schedule)
        if victim is None:
            cell["skipped"] = "no reused cells to repair"
            continue
        change = ChangeSet(victims=(victim,))
        attempt = repair_schedule(baseline.schedule, flow_set,
                                  network.reuse, change,
                                  rho_t=DEFAULT_RHO_T, policy_name="RC")
        decision, results = _decide({
            "repair": lambda: remediate(
                network, flow_set, baseline.schedule, change,
                policy="RC", rho_t=DEFAULT_RHO_T, barred=set(),
                audit=False),
            "rebuild": lambda: reschedule_without_reuse_on(
                flow_set, network.topology.num_nodes,
                network.num_channels, network.reuse,
                make_policy("RC", DEFAULT_RHO_T), {victim}),
        }, "repair", rounds)
        remedy = results["repair"]
        cell.update(victim=list(victim), **decision,
                    schedulable={"repair": remedy.mode == "repair",
                                 "rebuild": results["rebuild"].schedulable},
                    evicted_cells=attempt.evicted,
                    blast_seeds=attempt.blast.seeds)
        if remedy.schedule is not None:
            report = audit_schedule(
                remedy.schedule, network.reuse, DEFAULT_RHO_T,
                flow_set=flow_set, expect_complete=True,
                barred_links={victim})
            if not report.ok:
                raise AssertionError(
                    f"remediated schedule failed audit at {num_flows} "
                    f"flows: {report.summary()}")
    return cells


def bench_simulator(flow_counts: Sequence[int], seed: int,
                    sim_repetitions: int, rounds: int) -> List[Dict]:
    """Engine decision per flow count at ``sim_repetitions``.

    Each cell builds one RC schedule on the WUSTL reliability setup and
    runs its Monte-Carlo repetitions on the **slot** oracle
    (:meth:`~repro.simulator.engine.TschSimulator.run_slot`) and on the
    **batched** event engine (:func:`repro.simulator.events
    .run_event_batched`), the one
    :meth:`~repro.simulator.engine.TschSimulator.run` takes.  The two
    engines' statistics must be identical.
    """
    from repro.experiments.reliability import build_reliability_flow_set
    from repro.simulator.engine import SimulationConfig, TschSimulator
    from repro.simulator.events import run_event_batched
    from repro.simulator.stats import stats_signature
    from repro.testbeds import make_wustl

    topology, environment = make_wustl(seed)
    network = prepare_network(topology, channels=SIMULATOR_CHANNELS)
    cells: List[Dict] = []
    for num_flows in flow_counts:
        rng = np.random.default_rng(seed + num_flows)
        flow_set = build_reliability_flow_set(
            network, rng, flow_mix=((1.0, num_flows),))
        result = schedule_workload(network, flow_set, "RC")
        cell: Dict = {"name": f"simulator@{num_flows}x{sim_repetitions}",
                      "num_flows": num_flows,
                      "sim_repetitions": sim_repetitions}
        cells.append(cell)
        if not result.schedulable:
            cell["skipped"] = "workload unschedulable"
            continue
        simulator = TschSimulator(
            schedule=result.schedule, flow_set=flow_set,
            environment=environment,
            channel_map=network.topology.channel_map,
            config=SimulationConfig(seed=seed + 4000 + num_flows))
        decision, stats = _decide({
            "slot": lambda: simulator.run_slot(sim_repetitions),
            "batched": lambda: run_event_batched(simulator,
                                                 sim_repetitions),
        }, "batched", rounds)
        if (stats_signature(stats["batched"])
                != stats_signature(stats["slot"])):
            raise AssertionError(
                f"simulator engine divergence at {num_flows} flows: "
                f"batched statistics differ from the slot oracle")
        cell.update(decision)
    return cells


def run_bench(out: str = DEFAULT_OUT, *, quick: bool = False,
              seed: int = 1, rounds: int = DEFAULT_ROUNDS) -> Dict:
    """Run every decision cell and write the JSON report.

    Args:
        out: Report path (``-`` skips writing).
        quick: CI mode — the smallest cell of each decision.
        seed: Workload seed (fixed so runs are comparable over time).
        rounds: Interleaved timing rounds per decision cell.

    Returns:
        The report dict; ``report["decisions"]`` lists every cell.
    """
    if rounds < 1:
        raise ValueError("rounds must be positive")
    sim_repetitions = (QUICK_SIMULATOR_REPETITIONS if quick
                       else SIMULATOR_REPETITIONS)
    report = {
        "benchmark": "repro.bench",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "rounds": rounds,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "workload": {
            "schedulers": {"testbed": "indriya", "channels": 5,
                           "traffic": "centralized",
                           "period_range": [0, 4]},
            "simulator": {"testbed": "wustl",
                          "channels": list(SIMULATOR_CHANNELS),
                          "traffic": "peer-to-peer", "policy": "RC"},
        },
        "decisions": (
            bench_schedulers(QUICK_FLOW_COUNTS if quick
                             else FULL_FLOW_COUNTS, seed, rounds)
            + bench_remediation(QUICK_REMEDIATION_FLOW_COUNTS if quick
                                else REMEDIATION_FLOW_COUNTS, seed, rounds)
            + bench_simulator(QUICK_SIMULATOR_FLOW_COUNTS if quick
                              else SIMULATOR_FLOW_COUNTS, seed,
                              sim_repetitions, rounds)),
    }
    if out != "-":
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=False)
            handle.write("\n")
    return report


def format_bench(report: Dict) -> str:
    """Human-readable decisions table of a benchmark report."""
    lines = [
        f"repro bench ({report['mode']}, seed={report['seed']}, "
        f"{report['rounds']} interleaved rounds, "
        f"cpus={report['environment']['cpu_count']})",
        "ratio = other / chosen wall time per round; median wall times "
        "are information only",
        f"{'decision':<16} {'chosen':>8} {'other':>8} {'chosen ms':>10} "
        f"{'other ms':>10} {'q1':>7} {'median':>7} {'q3':>7}  verdict",
    ]
    verdicts = collections.Counter()
    for cell in report["decisions"]:
        if "skipped" in cell:
            lines.append(f"{cell['name']:<16} skipped: {cell['skipped']}")
            continue
        wall, ratio = cell["wall_s"], cell["ratio"]
        verdicts[cell["verdict"]] += 1
        lines.append(
            f"{cell['name']:<16} {cell['chosen']:>8} {cell['other']:>8} "
            f"{1000 * wall[cell['chosen']]:>10.1f} "
            f"{1000 * wall[cell['other']]:>10.1f} "
            f"{ratio['q1']:>6.2f}x {ratio['median']:>6.2f}x "
            f"{ratio['q3']:>6.2f}x  {cell['verdict']}")
    lines.append(f"decisions: {verdicts[HOLDS]} hold, "
                 f"{verdicts[UNRESOLVED]} unresolved, {verdicts[LOST]} lost")
    return "\n".join(lines)
