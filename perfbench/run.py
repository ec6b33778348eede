#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fleet-burst --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``spec.json`` for why each was chosen):

* ``fleet-burst``  — cold 32-network fleet, closed loop, ``repro serve``
* ``sweep-fig1``   — the paper's Fig 1 sweep, in-process
* ``manage-storm`` — the closed manage loop under a reuse storm

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (a separate pass: untraced, then traced).  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record`` re-derives the reference outputs of the in-process
workloads (every pool entry) and writes them into ``spec.json``.

Runs from the repository root: it imports ``repro`` from ``src/`` and
writes only under ``.perfbench_run/`` there (removed on exit).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SPEC_PATH = HERE / "spec.json"
FLEET = ("fleet-burst",)
IN_PROCESS = ("sweep-fig1", "manage-storm")


def environment() -> dict:
    import numpy

    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform()}


def _print_e2e(values: dict, notes: dict, units: dict) -> None:
    latency = notes["latency"]
    counts = {
        "setup_s": f"median of {notes['setups']} set-ups",
        "ops_per_s": f"{notes['ops']} {notes['unit']}s in "
                     f"{notes['wall_s']:.2f} s at reference host speed "
                     f"({notes['raw_wall_s']:.2f} s here) over "
                     f"{notes['groups']}",
        "latency_p50_ms": f"p50, n={latency['n']}",
        "latency_tail_ms": f"p{latency['tail_q']:g}, n={latency['n']}, "
                           f"{latency['beyond_tail']} beyond",
        "peak_rss_mb": "peak resident set",
    }
    for name, value in values.items():
        print(f"  {name:<16} {value:12.4f} {units[name]:<6} "
              f"({counts[name]})")


def run_fleet(args, spec: dict, workdir: Path) -> dict:
    import fleet

    plans = fleet.make_plans(args.seed, args.seconds)
    plain, traced = [], []
    for index, plan in enumerate(plans):
        plain.append(fleet.run_round(ROOT, workdir / f"plain{index}", plan))
        if args.trace:
            traced.append(fleet.run_round(ROOT, workdir / f"traced{index}",
                                          plan, traced=True))
    attempted = errors = mismatches = 0
    for result, plan in zip(traced or plain, plans):
        a, e, m = fleet.check_round(result, plan)
        attempted, errors, mismatches = (attempted + a, errors + e,
                                         mismatches + m)
    print(f"  checked {attempted} response(s) against an in-process "
          f"replay: {errors} error(s), {mismatches} hash mismatch(es)")
    if args.trace:
        metrics = fleet.per_layer(traced, plain)
    else:
        metrics, notes = fleet.end_to_end(plain)
        notes["setups"] = len(plain)
        _print_e2e(metrics, notes, spec["units"])
    return {"metrics": metrics, "attempted": attempted,
            "failed": errors + mismatches}


def run_in_process(args, spec: dict, local: dict) -> dict:
    import inproc

    workload = inproc.WORKLOADS[args.workload]()
    setup_s, build = inproc.setup(workload)
    entries = inproc.units_for(args.workload, args.seed, args.seconds)
    plain = inproc.run_units(workload, entries)
    reference = local["reference"][args.workload]
    if args.trace:
        metrics, traced = inproc.per_layer(workload, entries, plain, build)
        checked = traced["results"]
    else:
        metrics, notes = inproc.end_to_end(workload, plain, setup_s)
        notes["setups"] = inproc.SETUPS
        checked = plain["results"]
        _print_e2e(metrics, notes, spec["units"])
    attempted, failed = inproc.check(workload, entries, checked, reference)
    print(f"  checked {len(entries)} unit(s) against recorded references: "
          f"{failed} of {attempted} op(s) failed")
    if args.workload == "sweep-fig1" and not args.trace:
        _print_pooled_ratios(checked)
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def _print_pooled_ratios(results) -> None:
    """Fig 1 itself: schedulable ratio per point, pooled over units."""
    from collections import defaultdict

    total = defaultdict(int)
    good = defaultdict(int)
    for result in results:
        for outcome in result.outcomes:
            total[(outcome.policy, outcome.x)] += 1
            good[(outcome.policy, outcome.x)] += outcome.schedulable
    for policy in ("NR", "RA", "RC"):
        cells = "  ".join(f"{x}ch={good[(policy, x)] / total[(policy, x)]:.2f}"
                          for x in sorted({x for _, x in total}))
        print(f"  schedulable {policy}: {cells}")


def record(local: dict) -> None:
    """Regenerate every pool entry's reference output into spec.json."""
    import inproc

    for name, cls in inproc.WORKLOADS.items():
        workload = cls()
        workload.build()
        entries = list(inproc.pool(name))
        results = inproc.run_units(workload, entries)["results"]
        local["reference"][name] = {str(entry): workload.output(result)
                                    for entry, result in zip(entries,
                                                             results)}
        print(f"recorded {len(entries)} reference(s) for {name}")
    SPEC_PATH.write_text(json.dumps(local, indent=1, sort_keys=False) + "\n")


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=FLEET + IN_PROCESS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-derive the recorded reference outputs")
    args = parser.parse_args(argv)
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    local = json.loads(SPEC_PATH.read_text())
    if args.record:
        record(local)
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {"units": {m["name"]: m["unit"] for m in
                      declared["end_to_end"] + declared["per_layer"]}}

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"  env {json.dumps(environment(), sort_keys=True)}")
    workdir = ROOT / ".perfbench_run" / str(os.getpid())
    try:
        if args.workload in FLEET:
            outcome = run_fleet(args, spec, workdir)
        else:
            outcome = run_in_process(args, spec, local)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        value = outcome["metrics"].get(metric["name"])
        if value is None:
            if not args.trace:
                raise KeyError(f"end-to-end metric {metric['name']} missing")
            value = 0.0  # a layer this workload does not exercise
        metrics[metric["name"]] = {"value": float(value),
                                   "unit": metric["unit"]}
    if args.trace:
        for name, entry in metrics.items():
            print(f"  {name:<58} {entry['value']:14.6f} {entry['unit']}")
    correct = outcome["failed"] == 0
    print(f"  run took {time.perf_counter() - started:.1f} s; "
          f"correct={correct}")
    print(json.dumps({"correct": correct,
                      "attempted": int(outcome["attempted"]),
                      "failed": int(outcome["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
