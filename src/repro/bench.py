"""Tracked benchmark harness: ``python -m repro bench``.

Times the NR / RA / RC schedulers on fixed, seeded Figure-1-style
workloads (Indriya testbed, 5 channels, centralized traffic) under both
placement kernels, times single-victim remediation both ways —
warm-start repair (:mod:`repro.core.repair`) vs full barrier rebuild —
times the Monte-Carlo simulator's slot oracle against the batched
event engine on reliability-style WUSTL workloads, and times a small
schedulability sweep at one and several worker processes.  Results
land in ``BENCH_schedulers.json`` so kernel, repair, simulator, and
parallelism changes leave an auditable performance trail in the
repository.

Methodology:

* Wall times are best-of-``repetitions`` with observability *disabled*,
  so no timed run pays for counter and event emission.
* Work counters (placements, slots scanned) come from one separate
  instrumented pass per configuration — identical work, so the counters
  pair exactly with the timed runs.
* The scalar and vector kernels are verified to produce identical
  schedules on every workload before timing them; the benchmark aborts
  loudly if they diverge.  Production runs each policy on its own
  kernel (RC vector, NR and RA scalar); the two timed cells per policy
  are the measurement behind that rule.
* The parallel-sweep section reports the machine's CPU count next to
  its timings: on a single-core host ``workers > 1`` cannot win and the
  numbers record exactly that.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.core import kernel as _kernel
from repro.experiments.common import (
    POLICY_NAMES,
    build_workload,
    prepare_network,
    schedule_workload,
)
from repro.experiments.schedulability import run_sweep
from repro.flows.generator import PeriodRange
from repro.routing.traffic import TrafficType

#: Default output file, tracked in the repository.
DEFAULT_OUT = "BENCH_schedulers.json"

#: Regression gate for ``--compare``: a shared (flows, policy, kernel)
#: cell may be at most this much slower than the baseline.
REGRESSION_THRESHOLD = 0.20

#: Regression gate for the service latency cells.  Service p50 folds in
#: process scheduling, pipe round-trips, and asyncio wakeups, all far
#: noisier than a tight kernel loop; only p50 is gated (p99 is reported
#: but a single slow wakeup would make it an unusable gate).
SERVICE_REGRESSION_THRESHOLD = 0.50

#: Figure-1-style workload sizes (flows on 5 channels, centralized).
#: The 20-flow cell doubles as the quick-mode workload, so CI's quick
#: bench shares a comparable cell with the tracked full baseline.
FULL_FLOW_COUNTS = (20, 30, 50, 70)
QUICK_FLOW_COUNTS = (20,)

#: Remediation-latency workload sizes (single-victim repair vs full
#: barrier rebuild on an RC schedule).  Quick mode keeps one cell so CI
#: still exercises the path and shares a comparable cell with the full
#: baseline.
REMEDIATION_FLOW_COUNTS = (30, 50, 70)
QUICK_REMEDIATION_FLOW_COUNTS = (30,)


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


def _instrumented_counters(network, flow_set, policy: str,
                           kernel: str) -> Dict:
    """One obs-recorded pass for a cell's work counters."""
    with _kernel.kernel_mode(kernel):
        with obs.recording() as recorder:
            schedule_workload(network, flow_set, policy)
    return recorder.snapshot()["counters"]


def bench_schedulers(flow_counts: Sequence[int], seed: int,
                     repetitions: int) -> List[Dict]:
    """Scalar / vector timings for every (flow count, policy) pair.

    Each cell forces both kernels (:func:`repro.core.kernel
    .kernel_mode`) with the repetitions *interleaved* (one run per
    kernel per round), so slow drift on shared hardware hits both
    kernels alike instead of whichever happened to run during a noisy
    stretch.
    """
    network, workloads = _workloads(flow_counts, seed)
    rows: List[Dict] = []
    kernels = (_kernel.KERNEL_SCALAR, _kernel.KERNEL_VECTOR)
    for num_flows, flow_set in workloads:
        for policy in POLICY_NAMES:
            row: Dict = {"num_flows": num_flows, "policy": policy}
            best = {kernel: float("inf") for kernel in kernels}
            results = {}
            for _ in range(repetitions):
                for kernel in kernels:
                    with _kernel.kernel_mode(kernel):
                        start = time.perf_counter()
                        results[kernel] = schedule_workload(
                            network, flow_set, policy)
                        best[kernel] = min(
                            best[kernel], time.perf_counter() - start)
            signatures = {kernel: _placements_of(result)
                          for kernel, result in results.items()}
            if signatures[_kernel.KERNEL_VECTOR] != \
                    signatures[_kernel.KERNEL_SCALAR]:
                raise AssertionError(
                    f"kernel divergence: {policy} at {num_flows} flows "
                    f"produced different schedules under the scalar "
                    f"and vector kernels")
            for kernel in kernels:
                counters = _instrumented_counters(network, flow_set,
                                                  policy, kernel)
                placements = counters.get("scheduler.placements", 0)
                wall_s = best[kernel]
                timing = {
                    "wall_s": wall_s,
                    "schedulable": results[kernel].schedulable,
                    "placements": int(placements),
                    "slots_scanned":
                        int(counters.get("scheduler.slots_scanned", 0)),
                }
                timing["placements_per_s"] = (
                    placements / wall_s if wall_s > 0 else None)
                row[kernel] = timing
            scalar_s = row[_kernel.KERNEL_SCALAR]["wall_s"]
            vector_s = row[_kernel.KERNEL_VECTOR]["wall_s"]
            row["speedup"] = scalar_s / vector_s if vector_s > 0 else None
            rows.append(row)
    return rows


def bench_remediation(flow_counts: Sequence[int], seed: int,
                      repetitions: int) -> List[Dict]:
    """Remediation latency: single-victim warm-start repair vs rebuild.

    For each flow count, builds the RC schedule once, picks the
    deterministic victim link (the smallest link in any shared cell),
    and times both remediation paths best-of-``repetitions``:

    * **repair** — :func:`repro.core.repair.repair_schedule` evicting
      the victim's blast radius and re-placing it against the warm
      busy matrices;
    * **rebuild** — :func:`repro.core.reschedule
      .reschedule_without_reuse_on` re-running the full scheduler
      under a reuse-barrier policy.

    The repaired schedule is audited once per cell (outside the timed
    runs) so a latency win can never mask a correctness loss.
    """
    from repro.core.ra import DEFAULT_RHO_T
    from repro.core.repair import (ChangeSet, repair_schedule,
                                   smallest_reused_link)
    from repro.core.reschedule import reschedule_without_reuse_on
    from repro.experiments.common import make_policy
    from repro.validate.audit import audit_schedule

    network, workloads = _workloads(flow_counts, seed)
    rows: List[Dict] = []
    for num_flows, flow_set in workloads:
        baseline = schedule_workload(network, flow_set, "RC")
        row: Dict = {"num_flows": num_flows, "policy": "RC",
                     "rho_t": DEFAULT_RHO_T}
        if not baseline.schedulable:
            row["skipped"] = "baseline workload unschedulable"
            rows.append(row)
            continue
        victim = smallest_reused_link(baseline.schedule)
        if victim is None:
            row["skipped"] = "no reused cells to repair"
            rows.append(row)
            continue
        row["victim"] = list(victim)
        change = ChangeSet(victims=(victim,))

        repair_s = float("inf")
        outcome = None
        for _ in range(repetitions):
            start = time.perf_counter()
            outcome = repair_schedule(
                baseline.schedule, flow_set, network.reuse, change,
                rho_t=DEFAULT_RHO_T, policy_name="RC")
            repair_s = min(repair_s, time.perf_counter() - start)

        rebuild_s = float("inf")
        for _ in range(repetitions):
            start = time.perf_counter()
            rebuilt = reschedule_without_reuse_on(
                flow_set, network.topology.num_nodes,
                network.num_channels, network.reuse,
                make_policy("RC", DEFAULT_RHO_T), {victim})
            rebuild_s = min(rebuild_s, time.perf_counter() - start)

        row.update({
            "repair": {"wall_s": repair_s,
                       "schedulable": outcome.schedulable,
                       "evicted_cells": outcome.evicted,
                       "blast_seeds": outcome.blast.seeds},
            "rebuild": {"wall_s": rebuild_s,
                        "schedulable": rebuilt.schedulable},
            "speedup": rebuild_s / repair_s if repair_s > 0 else None,
        })
        if outcome.schedulable:
            report = audit_schedule(
                outcome.schedule, network.reuse, DEFAULT_RHO_T,
                flow_set=flow_set, expect_complete=True,
                barred_links={victim})
            if not report.ok:
                raise AssertionError(
                    f"repaired schedule failed audit at {num_flows} "
                    f"flows: {report.summary()}")
        rows.append(row)
    return rows


#: Simulator-bench cells: reliability-style WUSTL workloads (1 s p2p
#: flows on channels 11-14) at three scheduling pressures.
SIMULATOR_FLOW_COUNTS = (20, 50, 80)
QUICK_SIMULATOR_FLOW_COUNTS = (20,)

#: Monte-Carlo repetitions per simulator cell (the reliability
#: experiment's 100, so the tracked numbers speak for the real sweep).
SIMULATOR_REPETITIONS = 100
QUICK_SIMULATOR_REPETITIONS = 10


def _sim_signature(stats) -> tuple:
    """Order-insensitive comparable form of one SimulationStats."""
    def bucket(counters) -> tuple:
        return tuple(sorted(
            (key, counter.attempts, counter.successes)
            for key, counter in counters.items()))

    return (
        tuple(sorted(stats.flow_released.items())),
        tuple(sorted(stats.flow_delivered.items())),
        tuple((bucket(record.reuse), bucket(record.contention_free),
               bucket(record.channels))
              for record in stats.repetitions),
    )


def bench_simulator(flow_counts: Sequence[int], seed: int,
                    sim_repetitions: int, timed_repetitions: int) -> Dict:
    """Slot vs event vs batched simulator wall time per flow count.

    Each cell builds one RC schedule on the WUSTL reliability setup
    (1 s peer-to-peer flows, channels 11-14) and executes
    ``sim_repetitions`` Monte-Carlo repetitions three ways:

    * **slot** — the slot-driven scalar oracle;
    * **event** — the event-driven engine forced to one repetition per
      draw chunk (the event walk without cross-repetition batching);
    * **batched** — the event engine's default memory-bounded chunking,
      the path :meth:`~repro.simulator.engine.TschSimulator.run` takes
      at experiment repetition counts.

    All three are bit-identical by construction (the fuzz harness
    asserts it per case); here the statistics of the timed runs are
    cross-checked once per cell so a timing win can never mask a
    divergence.  Timings are best-of-``timed_repetitions``,
    interleaved like the scheduler cells.
    """
    from repro.experiments.reliability import build_reliability_flow_set
    from repro.simulator.engine import SimulationConfig, TschSimulator
    from repro.simulator.events import run_event_batched
    from repro.testbeds import make_wustl

    topology, environment = make_wustl(seed)
    network = prepare_network(topology, channels=(11, 12, 13, 14))
    section: Dict = {"testbed": "wustl", "channels": [11, 12, 13, 14],
                     "policy": "RC", "sim_repetitions": sim_repetitions,
                     "cells": []}
    for num_flows in flow_counts:
        rng = np.random.default_rng(seed + num_flows)
        flow_set = build_reliability_flow_set(
            network, rng, flow_mix=((1.0, num_flows),))
        result = schedule_workload(network, flow_set, "RC")
        cell: Dict = {"num_flows": num_flows}
        if not result.schedulable:
            cell["skipped"] = "workload unschedulable"
            section["cells"].append(cell)
            continue
        simulator = TschSimulator(
            schedule=result.schedule, flow_set=flow_set,
            environment=environment,
            channel_map=network.topology.channel_map,
            config=SimulationConfig(seed=seed + 4000 + num_flows))
        modes = {
            "slot": lambda: simulator.run_slot(sim_repetitions),
            "event": lambda: run_event_batched(simulator, sim_repetitions,
                                               chunk_reps=1),
            "batched": lambda: run_event_batched(simulator,
                                                 sim_repetitions)}
        best = {mode: float("inf") for mode in modes}
        stats = {}
        for _ in range(timed_repetitions):
            for mode, execute in modes.items():
                start = time.perf_counter()
                stats[mode] = execute()
                best[mode] = min(best[mode],
                                 time.perf_counter() - start)
        reference = _sim_signature(stats["slot"])
        for mode in ("event", "batched"):
            if _sim_signature(stats[mode]) != reference:
                raise AssertionError(
                    f"simulator engine divergence at {num_flows} flows: "
                    f"{mode} statistics differ from the slot oracle")
        cell.update({
            "slot": {"wall_s": best["slot"]},
            "event": {"wall_s": best["event"]},
            "batched": {"wall_s": best["batched"]},
            "event_speedup": (best["slot"] / best["event"]
                              if best["event"] > 0 else None),
            "batched_speedup": (best["slot"] / best["batched"]
                                if best["batched"] > 0 else None),
        })
        section["cells"].append(cell)
    return section


def bench_sweep_workers(seed: int, quick: bool,
                        worker_counts: Sequence[int] = (1, 4)) -> Dict:
    """Time one small sweep at several worker counts; verify invariance."""
    from repro.testbeds import make_indriya

    topology, _ = make_indriya()
    values = [4, 5] if quick else [3, 4, 5]
    num_flow_sets = 2 if quick else 6
    timings: Dict[str, float] = {}
    reference = None
    for workers in worker_counts:
        start = time.perf_counter()
        result = run_sweep(topology, TrafficType.CENTRALIZED, "channels",
                           values, fixed_flows=20,
                           num_flow_sets=num_flow_sets, seed=seed,
                           workers=workers)
        timings[str(workers)] = time.perf_counter() - start
        outcomes = [(o.x, o.set_index, o.policy, o.schedulable)
                    for o in result.outcomes]
        if reference is None:
            reference = outcomes
        elif outcomes != reference:
            raise AssertionError(
                f"sweep outcomes at workers={workers} differ from "
                f"workers={worker_counts[0]}")
    base = timings[str(worker_counts[0])]
    return {
        "vary": "channels", "values": values,
        "num_flow_sets": num_flow_sets, "fixed_flows": 20,
        "wall_s_by_workers": timings,
        "speedup_vs_serial": {
            w: (base / t if t > 0 else None)
            for w, t in timings.items()},
        "outcomes_identical": True,
    }


#: Service-bench fleet sizes (concurrent networks, closed loop).
SERVICE_FLEETS = (2, 8, 32)
QUICK_SERVICE_FLEETS = (2,)

#: Closed-loop requests per network in the service bench.
SERVICE_REQUESTS_PER_NETWORK = 12
QUICK_SERVICE_REQUESTS_PER_NETWORK = 6


def _service_client(socket_path: str):
    import socket as socketlib

    sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    sock.settimeout(120.0)
    sock.connect(socket_path)
    return sock, sock.makefile("rwb")


def _service_roundtrip(stream, payload: Dict) -> Dict:
    stream.write(json.dumps(payload).encode("utf-8") + b"\n")
    stream.flush()
    return json.loads(stream.readline())


def bench_service(seed: int, quick: bool) -> Dict:
    """Throughput / latency of the scheduling service under load.

    Starts a real ``repro serve`` subprocess (2 workers, unix socket),
    measures a cold-vs-warm single-request pair on a fresh network, and
    runs the closed-loop load generator at several fleet sizes.  The
    workload (30 flows per network) carries reused cells, so the
    reschedule share of the mix exercises the incremental repair path.
    """
    import subprocess
    import sys
    import tempfile

    import repro
    from repro.service.loadgen import LoadgenOptions, run_loadgen

    fleets = QUICK_SERVICE_FLEETS if quick else SERVICE_FLEETS
    per_network = (QUICK_SERVICE_REQUESTS_PER_NETWORK if quick
                   else SERVICE_REQUESTS_PER_NETWORK)
    src_dir = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    section: Dict = {"workers": 2, "flows_per_network": 30,
                     "mix": 0.3, "loops": []}
    with tempfile.TemporaryDirectory() as tmp:
        socket_path = os.path.join(tmp, "bench.sock")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", socket_path, "--service-workers", "2",
             "--no-ledger"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.time() + 60
            while not os.path.exists(socket_path):
                if process.poll() is not None:
                    raise AssertionError("bench service exited early")
                if time.time() > deadline:
                    raise AssertionError("bench service failed to start")
                time.sleep(0.05)

            # Cold vs warm: same request twice on a fresh network; the
            # second is a pure artifact-cache hit.
            sock, stream = _service_client(socket_path)
            try:
                pair = []
                for index in range(2):
                    start = time.perf_counter()
                    response = _service_roundtrip(stream, {
                        "id": index, "verb": "schedule",
                        "network": "bench-warmth",
                        "config": {"seed": seed, "flows": 30}})
                    pair.append(
                        (time.perf_counter() - start) * 1e3)
                    if not response.get("ok"):
                        raise AssertionError(
                            f"bench service error: {response}")
                verdict = response["result"]["cache"]["schedule"]
                if verdict != "hit":
                    raise AssertionError(
                        "second identical request missed the cache")
            finally:
                stream.close()
                sock.close()
            section["cold_ms"] = round(pair[0], 3)
            section["warm_ms"] = round(pair[1], 3)
            section["warm_speedup"] = (round(pair[0] / pair[1], 2)
                                       if pair[1] > 0 else None)

            for networks in fleets:
                report = run_loadgen(LoadgenOptions(
                    socket_path=socket_path,
                    requests=networks * per_network,
                    networks=networks, flows=30, seed=seed,
                    mix=0.3))
                if report["errors"]:
                    raise AssertionError(
                        f"bench loadgen saw {report['errors']} error(s) "
                        f"at {networks} networks: "
                        f"{report['error_samples']}")
                section["loops"].append({
                    "networks": networks,
                    "requests": report["requests"],
                    "wall_s": report["wall_s"],
                    "rps": report["rps"],
                    "p50_ms": report["latency_ms"]["p50"],
                    "p99_ms": report["latency_ms"]["p99"],
                    "errors": report["errors"],
                    "reschedule_modes": report["reschedule_modes"],
                    "fallbacks":
                        report["service"]["repair_fallbacks"],
                })
        finally:
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=15)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    process.kill()
                    process.wait(timeout=5)
    return section


def run_bench(out: str = DEFAULT_OUT, *, quick: bool = False,
              seed: int = 1, repetitions: Optional[int] = None) -> Dict:
    """Run the full benchmark and write the JSON report.

    Args:
        out: Report path (``-`` skips writing).
        quick: CI smoke mode — one small workload, one repetition.
        seed: Workload seed (fixed so runs are comparable over time).
        repetitions: Timed repetitions per configuration (best-of);
            defaults to 1 in quick mode and 3 otherwise.

    Returns:
        The report dict.
    """
    if repetitions is None:
        repetitions = 1 if quick else 3
    flow_counts = QUICK_FLOW_COUNTS if quick else FULL_FLOW_COUNTS
    report = {
        "benchmark": "repro.bench",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "repetitions": repetitions,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "workload": {
            "testbed": "indriya", "channels": 5,
            "traffic": "centralized", "period_range": [0, 4],
            "flow_counts": list(flow_counts),
        },
        "schedulers": bench_schedulers(flow_counts, seed, repetitions),
        "remediation": bench_remediation(
            QUICK_REMEDIATION_FLOW_COUNTS if quick
            else REMEDIATION_FLOW_COUNTS, seed, repetitions),
        "simulator": bench_simulator(
            QUICK_SIMULATOR_FLOW_COUNTS if quick
            else SIMULATOR_FLOW_COUNTS, seed,
            QUICK_SIMULATOR_REPETITIONS if quick
            else SIMULATOR_REPETITIONS, repetitions),
        "sweep_workers": bench_sweep_workers(seed, quick),
        "service": bench_service(seed, quick),
    }
    speedups = {(row["num_flows"], row["policy"]): row["speedup"]
                for row in report["schedulers"]}
    rc_speedups = [v for (_, policy), v in speedups.items()
                   if policy == "RC" and v is not None]
    repair_speedups = {str(row["num_flows"]): row["speedup"]
                       for row in report["remediation"]
                       if row.get("speedup") is not None}
    sim_speedups = {str(cell["num_flows"]): cell["batched_speedup"]
                    for cell in report["simulator"]["cells"]
                    if cell.get("batched_speedup") is not None}
    report["headline"] = {
        "rc_max_speedup": max(rc_speedups) if rc_speedups else None,
        "rc_speedups_by_flows": {
            str(flows): v for (flows, policy), v in sorted(speedups.items())
            if policy == "RC"},
        "repair_speedups_by_flows": repair_speedups,
        "repair_max_speedup": (max(repair_speedups.values())
                               if repair_speedups else None),
        "sim_batched_speedups_by_flows": sim_speedups,
        "sim_batched_max_speedup": (max(sim_speedups.values())
                                    if sim_speedups else None),
        "service_warm_speedup": report["service"].get("warm_speedup"),
        "service_rps_by_networks": {
            str(loop["networks"]): loop["rps"]
            for loop in report["service"]["loops"]},
    }
    if out != "-":
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=False)
            handle.write("\n")
    return report


def compare_bench(report: Dict, baseline: Dict,
                  threshold: float = REGRESSION_THRESHOLD) -> List[str]:
    """Wall-time regressions of a report against a baseline report.

    Cells are matched by ``(num_flows, policy, kernel)``; cells present
    in only one report are ignored (a quick run checked against a full
    baseline compares exactly the sizes both measured).  A cell
    regresses when its wall time exceeds the baseline's by more than
    ``threshold`` (relative).

    Returns:
        One line per regression (empty = no regression).  A disjoint
        cell set returns a single diagnostic line — silently comparing
        nothing must not pass as "no regression".
    """
    def cells(rep: Dict) -> Dict[tuple, float]:
        out: Dict[tuple, float] = {}
        for row in rep.get("schedulers", []):
            for kernel in (_kernel.KERNEL_SCALAR, _kernel.KERNEL_VECTOR):
                timing = row.get(kernel)
                if timing and timing.get("wall_s") is not None:
                    out[(row["num_flows"], row["policy"], kernel)] = \
                        timing["wall_s"]
        for row in rep.get("remediation", []):
            for path in ("repair", "rebuild"):
                timing = row.get(path)
                if timing and timing.get("wall_s") is not None:
                    out[(row["num_flows"], "remediation", path)] = \
                        timing["wall_s"]
        simulator = rep.get("simulator", {})
        sim_reps = simulator.get("sim_repetitions")
        for cell in simulator.get("cells", []):
            for engine in ("slot", "event", "batched"):
                timing = cell.get(engine)
                if timing and timing.get("wall_s") is not None:
                    # Repetition count in the key: a quick report's
                    # 10-rep cell must not gate against the full
                    # baseline's 100-rep cell of the same size.
                    out[(cell["num_flows"], "simulator",
                         f"{engine}x{sim_reps}")] = timing["wall_s"]
        for loop in rep.get("service", {}).get("loops", []):
            # Only p50 is gated (see SERVICE_REGRESSION_THRESHOLD);
            # keep it in seconds for uniform formatting.
            if loop.get("p50_ms") is not None:
                out[(loop["networks"], "service", "p50")] = \
                    loop["p50_ms"] / 1e3
        return out

    current, base = cells(report), cells(baseline)
    shared = sorted(set(current) & set(base), key=str)
    if not shared:
        return ["no comparable (num_flows, policy, kernel) cells between "
                "report and baseline"]
    regressions: List[str] = []
    for key in shared:
        num_flows, policy, kernel = key
        before, after = base[key], current[key]
        if before <= 0:
            continue
        gate = (max(threshold, SERVICE_REGRESSION_THRESHOLD)
                if policy == "service" else threshold)
        ratio = after / before - 1.0
        if ratio > gate:
            regressions.append(
                f"REGRESSION {policy}@{num_flows} [{kernel}]: "
                f"{1000 * before:.1f}ms -> {1000 * after:.1f}ms "
                f"({ratio:+.0%}, threshold {gate:.0%})")
    return regressions


def format_bench(report: Dict) -> str:
    """Human-readable summary of a benchmark report."""
    lines = [
        f"repro bench ({report['mode']}, seed={report['seed']}, "
        f"best of {report['repetitions']}, "
        f"cpus={report['environment']['cpu_count']})",
        f"{'flows':>6} {'policy':>7} {'scalar':>10} {'vector':>10} "
        f"{'speedup':>8} {'placements':>11} {'slots/plc':>10}",
    ]
    for row in report["schedulers"]:
        scalar = row["scalar"]
        vector = row["vector"]
        scanned = (scalar["slots_scanned"] / scalar["placements"]
                   if scalar["placements"] else 0.0)
        lines.append(
            f"{row['num_flows']:>6} {row['policy']:>7} "
            f"{1000 * scalar['wall_s']:>8.1f}ms {1000 * vector['wall_s']:>8.1f}ms "
            f"{row['speedup']:>7.2f}x {scalar['placements']:>11} "
            f"{scanned:>10.2f}")
    remediation = [row for row in report.get("remediation", [])
                   if "repair" in row]
    if remediation:
        lines.append(f"{'flows':>6} {'victim':>9} {'evicted':>8} "
                     f"{'repair':>10} {'rebuild':>10} {'speedup':>8}")
        for row in remediation:
            lines.append(
                f"{row['num_flows']:>6} "
                f"{'-'.join(map(str, row['victim'])):>9} "
                f"{row['repair']['evicted_cells']:>8} "
                f"{1000 * row['repair']['wall_s']:>8.1f}ms "
                f"{1000 * row['rebuild']['wall_s']:>8.1f}ms "
                f"{row['speedup']:>7.2f}x")
    simulator = report.get("simulator")
    if simulator and simulator.get("cells"):
        lines.append(
            f"simulator ({simulator['sim_repetitions']} reps, "
            f"{simulator['policy']} schedules, {simulator['testbed']}):")
        lines.append(f"{'flows':>6} {'slot':>10} {'event':>10} "
                     f"{'batched':>10} {'speedup':>8}")
        for cell in simulator["cells"]:
            if "skipped" in cell:
                lines.append(f"{cell['num_flows']:>6} "
                             f"skipped: {cell['skipped']}")
                continue
            lines.append(
                f"{cell['num_flows']:>6} "
                f"{1000 * cell['slot']['wall_s']:>8.1f}ms "
                f"{1000 * cell['event']['wall_s']:>8.1f}ms "
                f"{1000 * cell['batched']['wall_s']:>8.1f}ms "
                f"{cell['batched_speedup']:>7.2f}x")
    sweep = report["sweep_workers"]
    walls = "  ".join(f"workers={w}: {t:.2f}s"
                      for w, t in sweep["wall_s_by_workers"].items())
    lines.append(f"sweep ({len(sweep['values'])} points x "
                 f"{sweep['num_flow_sets']} sets): {walls} "
                 f"(outcomes identical: {sweep['outcomes_identical']})")
    service = report.get("service")
    if service and service.get("loops"):
        lines.append(
            f"service: cold {service['cold_ms']:.1f}ms -> warm "
            f"{service['warm_ms']:.1f}ms "
            f"({service['warm_speedup']:.0f}x)")
        lines.append(f"{'networks':>9} {'requests':>9} {'req/s':>8} "
                     f"{'p50':>9} {'p99':>9} {'fallbacks':>10}")
        for loop in service["loops"]:
            lines.append(
                f"{loop['networks']:>9} {loop['requests']:>9} "
                f"{loop['rps']:>8.1f} {loop['p50_ms']:>7.1f}ms "
                f"{loop['p99_ms']:>7.1f}ms {loop['fallbacks']:>10}")
    headline = report["headline"]
    if headline["rc_max_speedup"] is not None:
        lines.append(f"headline: RC vector kernel up to "
                     f"{headline['rc_max_speedup']:.2f}x over scalar")
    if headline.get("repair_max_speedup") is not None:
        lines.append(f"headline: single-victim repair up to "
                     f"{headline['repair_max_speedup']:.1f}x faster than "
                     f"the full rebuild")
    if headline.get("sim_batched_max_speedup") is not None:
        lines.append(f"headline: batched event simulator up to "
                     f"{headline['sim_batched_max_speedup']:.1f}x faster "
                     f"than the slot oracle")
    if headline.get("service_rps_by_networks"):
        best = max(v for v in
                   headline["service_rps_by_networks"].values()
                   if v is not None)
        lines.append(f"headline: service sustains up to {best:.0f} req/s "
                     f"closed-loop (warm cache "
                     f"{headline.get('service_warm_speedup', 0):.0f}x "
                     f"faster than cold compile)")
    return "\n".join(lines)
