"""Command-line interface: ``python -m repro <command>``.

Commands mirror the experiment runners so results are reproducible from
a shell without writing Python:

* ``topology`` — synthesize a testbed, print statistics, optionally save;
* ``sweep`` — schedulable-ratio sweep (Figures 1-3);
* ``reliability`` — scheduled-then-simulated PDR comparison (Figure 8);
* ``detection`` — K-S detection experiment (Figures 10-11);
* ``manage`` — closed-loop network manager under a fault scenario;
* ``adapt`` — remediation policies vs. NoOp under one fault timeline;
* ``bench`` — times the code's speed decisions (writes
  BENCH_schedulers.json; exit 3 when one is lost);
* ``schedule`` — build one schedule and save it (+ flows) as artifacts;
* ``report`` — pretty-print a saved metrics snapshot;
* ``validate`` — audit a saved schedule against the reuse contract;
* ``fuzz`` — seeded differential fuzzing of scheduler + simulator paths;
* ``explain`` — constraint chain for one link × slot of a schedule;
* ``timeline`` — ASCII superframe Gantt of a saved schedule;
* ``ledger`` — list / show / diff the run ledger (``runs.jsonl``);
* ``metrics`` — export a snapshot (+ time series) as OpenMetrics text,
  or strictly validate an exposition file;
* ``top`` — live ASCII observatory over a run's time-series dump
  (``--once`` for CI/pipes);
* ``serve`` — long-lived scheduling service: NDJSON requests over a
  unix socket or TCP, sharded worker processes, compiled-artifact
  cache (see ``repro.service``);
* ``loadgen`` — seeded mixed workload + latency report against a
  running ``serve`` (``--verify`` proves responses bit-identical to
  direct library calls).

Experiment commands accept ``--workers N`` to fan independent trials
over N worker processes (0 = all CPUs) with results identical to a
serial run.

Every experiment command and ``serve`` accept ``--metrics-out FILE``
(metrics snapshot JSON), ``--provenance FILE`` (per-placement decision
records, JSONL), and ``--timeseries FILE`` (windowed per-epoch series,
JSONL); ``serve`` adds ``--spans FILE``.  Any of them opens one recording
session for the run (:func:`repro.obs.session.recording_session`),
which exports every requested layer when the command ends, also when
it fails; the metrics snapshot's ``span.<stage>.seconds`` histograms
say where the time went.  Every *producing* command appends one
record — argv, config hash, seeds, environment, wall time, exit
status, artifact paths — to the append-only run ledger (default
``runs.jsonl``; ``--ledger PATH`` moves it, ``--no-ledger`` skips it).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments.common import prepare_network
from repro.experiments.detection_exp import run_detection
from repro.experiments.reliability import run_reliability
from repro.experiments.schedulability import run_sweep
from repro.flows.generator import PeriodRange
from repro.obs.session import RecordingPaths, recording_session
from repro.obs.spans import DEFAULT_THRESHOLD_MS
from repro.routing.traffic import TrafficType


def _make_testbed(name: str, seed: Optional[int]):
    from repro.testbeds import make_indriya, make_wustl

    factories = {"indriya": make_indriya, "wustl": make_wustl}
    factory = factories.get(name)
    if factory is None:
        raise SystemExit(f"unknown testbed: {name!r} (indriya or wustl)")
    # The seed is passed positionally so both factories are driven
    # uniformly; None keeps each testbed's canonical default seed.
    return factory() if seed is None else factory(seed)


def _plan_for(name: str):
    from repro.testbeds import INDRIYA_PLAN, WUSTL_PLAN

    return INDRIYA_PLAN if name == "indriya" else WUSTL_PLAN


def cmd_topology(args: argparse.Namespace) -> int:
    topology, _ = _make_testbed(args.testbed, args.seed)
    network = prepare_network(topology, num_channels=args.channels)
    summary = topology.summary()
    print(f"testbed: {topology.name}  nodes: {topology.num_nodes}  "
          f"channels in use: {args.channels}")
    print(f"communication graph: {network.communication.num_edges()} edges, "
          f"connected: {network.communication.is_connected()}")
    print(f"reuse graph: {network.reuse.num_edges()} edges, "
          f"diameter {network.reuse.diameter()}")
    print(f"mean degree (PRR>=0.9 all channels): {summary['mean_degree']:.1f}")
    print(f"access points: {network.access_points}")
    if args.save:
        from repro.io import save_topology

        save_topology(network.topology, args.save)
        print(f"saved channel-restricted topology to {args.save}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    topology, _ = _make_testbed(args.testbed, args.seed)
    traffic = (TrafficType.CENTRALIZED if args.traffic == "centralized"
               else TrafficType.PEER_TO_PEER)
    result = run_sweep(
        topology, traffic, vary=args.vary, values=args.values,
        fixed_channels=args.channels, fixed_flows=args.flows,
        period_range=PeriodRange(args.period_min_exp, args.period_max_exp),
        num_flow_sets=args.flow_sets, seed=args.seed or 0,
        workers=args.workers)
    ratios = result.schedulable_ratios()
    print(f"schedulable ratio vs {args.vary} ({args.traffic}, "
          f"{args.flow_sets} flow sets/point):")
    print("  x:  " + "  ".join(f"{x:>6}" for x in result.values))
    for policy in result.policies:
        row = "  ".join(f"{ratios[policy][x]:6.2f}" for x in result.values)
        print(f"  {policy:>2}: {row}")
    return 0


def cmd_reliability(args: argparse.Namespace) -> int:
    topology, environment = _make_testbed(args.testbed, args.seed)
    outcomes = run_reliability(
        topology, environment, num_flow_sets=args.flow_sets,
        repetitions=args.repetitions, seed=args.seed or 0,
        workers=args.workers)
    print(f"{'set':>4} {'policy':>7} {'median':>7} {'worst':>7}")
    for outcome in outcomes:
        if not outcome.schedulable:
            print(f"{outcome.set_index:>4} {outcome.policy:>7} "
                  f"{'unschedulable':>15}")
            continue
        print(f"{outcome.set_index:>4} {outcome.policy:>7} "
              f"{outcome.median_pdr:7.3f} {outcome.worst_pdr:7.3f}")
    return 0


def cmd_detection(args: argparse.Namespace) -> int:
    topology, environment = _make_testbed(args.testbed, args.seed)
    outcomes = run_detection(
        topology, environment, _plan_for(args.testbed),
        num_flows=args.flows, num_epochs=args.epochs,
        seed=args.seed or 0, workers=args.workers)
    for outcome in outcomes:
        rejected = outcome.rejected_links()
        accepted = outcome.accepted_links()
        print(f"{outcome.policy}/{outcome.condition}: "
              f"reuse links {len(outcome.reuse_links)}, "
              f"rejected {len(rejected)}, accepted {len(accepted)}")
        for link in rejected:
            print(f"  reuse-degraded: {link}")
    return 0


def _manager_config(args: argparse.Namespace):
    """Build a ManagerConfig from manage/adapt CLI arguments."""
    from repro.manager import ManagerConfig, resolve_scenario
    from repro.manager.policies import RescheduleVictims

    try:
        scenario = resolve_scenario(args.scenario)
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    policy = getattr(args, "policy", "noop")
    if args.slo_early_warning and policy == "reschedule":
        policy = RescheduleVictims(slo_early_warning=True)
    flows = args.flows
    reps = args.reps
    warmup, confirm, cooldown = 2, 2, 1
    if args.quick:
        # CI smoke mode: lighter workload and hysteresis so a few
        # epochs already exercise detection and remediation.
        flows = min(flows, 40)
        reps = min(reps, 8)
        warmup, confirm = 1, 1
    return ManagerConfig(
        scenario=scenario, policy=policy,
        scheduler_policy=args.scheduler, rho_t=args.rho_t,
        num_epochs=args.epochs, repetitions_per_epoch=reps,
        num_flows=flows, channels=tuple(args.channels),
        seed=args.seed or 0, warmup_epochs=warmup,
        confirm_epochs=confirm, cooldown_epochs=cooldown)


def _print_manager_report(report) -> None:
    """Epoch-by-epoch table for one ManagerReport."""
    print(f"policy {report.policy} / scenario '{report.scenario}' / "
          f"{report.scheduler_policy} schedules / seed {report.seed}")
    print(f"{'epoch':>5} {'conditions':<24} {'median':>7} {'worst':>7} "
          f"{'reuse':>6} {'rej':>4} {'acc':>4} {'susp':>5} {'slo':>4}  "
          f"action")
    for o in report.epochs:
        action = o.action or "-"
        if o.action and not o.action_applied:
            action += " (failed)"
        print(f"{o.epoch:>5} {o.conditions:<24} {o.median_pdr:7.3f} "
              f"{o.worst_pdr:7.3f} {o.num_reuse_links:>6} {o.num_reject:>4} "
              f"{o.num_accept:>4} {len(o.confirmed_suspects):>5} "
              f"{len(o.slo_alerts):>4}  {action}")
    print(f"  barred links: {len(report.barred_links)}  "
          f"final channels: {list(report.final_channels)}  "
          f"final rho_t: {report.final_rho_t}")


def _write_reports(reports, path: str) -> None:
    """Serialize ManagerReports to a JSON artifact."""
    import json

    payload = [report.to_dict() for report in reports]
    with open(path, "w") as handle:
        json.dump(payload if len(payload) != 1 else payload[0], handle,
                  indent=2)
    print(f"manager report -> {path}")


def cmd_manage(args: argparse.Namespace) -> int:
    from repro.manager import run_manager

    topology, environment = _make_testbed(args.testbed, args.seed)
    config = _manager_config(args)
    seeds = args.seeds if args.seeds is not None else [config.seed]
    reports = run_manager(topology, environment, _plan_for(args.testbed),
                          config, seeds=seeds, workers=args.workers)
    for report in reports:
        _print_manager_report(report)
    if args.report_out:
        _write_reports(reports, args.report_out)
    return 0


def cmd_adapt(args: argparse.Namespace) -> int:
    from repro.experiments.adaptation import format_adaptation, run_adaptation

    topology, environment = _make_testbed(args.testbed, args.seed)
    config = _manager_config(args)
    reports = run_adaptation(topology, environment, _plan_for(args.testbed),
                             scenario=config.scenario, policies=args.policies,
                             config=config, workers=args.workers)
    print(format_adaptation(reports, metric=args.metric))
    if args.report_out:
        _write_reports(reports, args.report_out)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import LOST, format_bench, run_bench

    report = run_bench(args.out, quick=args.quick, seed=args.seed,
                       rounds=args.repetitions)
    print(format_bench(report))
    if args.out != "-":
        print(f"report -> {args.out}")
    lost = [cell["name"] for cell in report["decisions"]
            if cell.get("verdict") == LOST]
    if lost:
        print(f"decision lost: {', '.join(lost)} (the path the code "
              f"chooses was slower in most rounds)", file=sys.stderr)
        return 3
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.experiments.common import build_workload, schedule_workload
    from repro.io import save_flow_set, save_schedule, save_topology

    topology, _ = _make_testbed(args.testbed, args.seed)
    network = prepare_network(topology, num_channels=args.channels)
    traffic = (TrafficType.CENTRALIZED if args.traffic == "centralized"
               else TrafficType.PEER_TO_PEER)
    rng = np.random.default_rng(args.seed or 0)
    flow_set = build_workload(
        network, args.flows,
        PeriodRange(args.period_min_exp, args.period_max_exp),
        traffic, rng)
    result = schedule_workload(network, flow_set, args.policy,
                               rho_t=args.rho_t)
    schedule = result.schedule
    print(f"{args.policy} on {args.testbed} ({args.flows} flows, "
          f"{args.channels} channels): "
          f"{'schedulable' if result.schedulable else 'UNSCHEDULABLE'}, "
          f"{len(schedule)} placements, "
          f"{schedule.num_reused_cells()} reuse cells, "
          f"makespan {schedule.makespan()}")
    if args.schedule_out:
        save_schedule(schedule, args.schedule_out)
        print(f"schedule -> {args.schedule_out}")
    if args.flows_out:
        save_flow_set(flow_set, args.flows_out)
        print(f"flow set -> {args.flows_out}")
    if args.topology_out:
        save_topology(network.topology, args.topology_out)
        print(f"topology -> {args.topology_out}")
    return 0 if result.schedulable else 1


def cmd_explain(args: argparse.Namespace) -> int:
    import math

    from repro.io import load_jsonl, load_schedule, load_topology
    from repro.obs.explain import explain_cell, explain_from_provenance

    try:
        topology = load_topology(args.topology)
        schedule = load_schedule(args.schedule, strict=False)
        provenance = (load_jsonl(args.provenance_in)
                      if args.provenance_in else None)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot load artifacts: {error}", file=sys.stderr)
        return 2
    sender, receiver = args.link
    if not (0 <= sender < schedule.num_nodes
            and 0 <= receiver < schedule.num_nodes):
        print(f"error: link ({sender}, {receiver}) out of range for "
              f"{schedule.num_nodes} nodes", file=sys.stderr)
        return 2
    if not 0 <= args.slot < schedule.num_slots:
        print(f"error: slot {args.slot} out of range for "
              f"{schedule.num_slots} slots", file=sys.stderr)
        return 2
    network = prepare_network(topology)
    rho = math.inf if args.policy == "NR" else args.rho_t
    for line in explain_cell(schedule, network.reuse, sender, receiver,
                             args.slot, rho):
        print(line)
    if provenance is not None:
        lines = explain_from_provenance(
            provenance, sender, receiver,
            None if args.all_decisions else args.slot)
        print()
        if lines:
            print("recorded decisions for this link:")
            for line in lines:
                print(line)
        else:
            print("no recorded decisions touch this link"
                  + ("" if args.all_decisions else " at this slot"))
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.io import load_flow_set, load_schedule
    from repro.obs.timeline import parse_slot_range, render_timeline

    try:
        schedule = load_schedule(args.schedule, strict=False)
        flow_set = load_flow_set(args.flows) if args.flows else None
        start, end = ((0, None) if args.slots is None
                      else parse_slot_range(args.slots))
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        print(render_timeline(schedule, flow_set, start, end))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def cmd_ledger(args: argparse.Namespace) -> int:
    import json

    from repro.obs.ledger import RunLedger, diff_records

    ledger = RunLedger(args.ledger)
    records = [r for r in ledger.records() if r.get("kind") == "run"]
    if ledger.skipped:
        # Corrupt/truncated lines must not hide the readable history,
        # but they must not pass silently either.
        print(f"warning: skipped {ledger.skipped} unparseable line(s) "
              f"in {ledger.path}", file=sys.stderr)
    if args.action == "list":
        if args.command_filter is not None:
            records = [r for r in records
                       if r.get("command") == args.command_filter]
        if args.status_filter is not None:
            records = [r for r in records
                       if str(r.get("status", ""))
                       .startswith(args.status_filter)]
        if args.limit is not None and args.limit >= 0:
            records = records[-args.limit:] if args.limit else []
        if not records:
            print(f"no runs recorded in {ledger.path}")
            return 0
        print(f"{'run_id':<34} {'command':<12} {'status':<12} "
              f"{'wall_s':>8}  artifacts")
        for record in records:
            wall = record.get("wall_s")
            wall_text = f"{wall:8.2f}" if wall is not None else f"{'-':>8}"
            print(f"{record.get('run_id', '?'):<34} "
                  f"{record.get('command', '?'):<12} "
                  f"{str(record.get('status', '?')):<12} "
                  f"{wall_text}  {len(record.get('artifacts', []))}")
        return 0
    if args.action == "show":
        if len(args.run_ids) != 1:
            print("error: ledger show takes exactly one run id",
                  file=sys.stderr)
            return 2
        record = ledger.find(args.run_ids[0])
        if record is None:
            print(f"error: no run matching {args.run_ids[0]!r} in "
                  f"{ledger.path}", file=sys.stderr)
            return 2
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    # diff
    if len(args.run_ids) != 2:
        print("error: ledger diff takes exactly two run ids",
              file=sys.stderr)
        return 2
    found = [ledger.find(run_id) for run_id in args.run_ids]
    for run_id, record in zip(args.run_ids, found):
        if record is None:
            print(f"error: no run matching {run_id!r} in {ledger.path}",
                  file=sys.stderr)
            return 2
    lines = diff_records(found[0], found[1])
    if not lines:
        print("runs are equivalent (same command, config, environment)")
        return 0
    print(f"{found[0]['run_id']} -> {found[1]['run_id']}:")
    for line in lines:
        print(f"  {line}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.openmetrics import parse_openmetrics, render_openmetrics

    if args.action == "check":
        # The strict-validation step CI runs against an exported
        # exposition: exit 0 only when every line parses.
        try:
            if args.exposition == "-":
                text = sys.stdin.read()
            else:
                with open(args.exposition, "r", encoding="utf-8") as handle:
                    text = handle.read()
            families = parse_openmetrics(text)
        except OSError as error:
            print(f"error: cannot read {args.exposition}: {error}",
                  file=sys.stderr)
            return 2
        except ValueError as error:
            print(f"invalid exposition: {error}", file=sys.stderr)
            return 1
        samples = sum(len(f["samples"]) for f in families.values())
        print(f"ok: {len(families)} families, {samples} samples")
        return 0

    # export: snapshot-file mode — no server, just text a Prometheus
    # textfile collector (or a test) can pick up.
    from repro.io import load_metrics
    from repro.obs.timeseries import TimeSeriesStore

    if not args.metrics and not args.timeseries_in:
        print("error: metrics export needs --metrics and/or --timeseries",
              file=sys.stderr)
        return 2
    try:
        snapshot = load_metrics(args.metrics) if args.metrics else {}
        timeseries = (TimeSeriesStore.load_jsonl(args.timeseries_in)
                      if args.timeseries_in else None)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot load inputs: {error}", file=sys.stderr)
        return 2
    if not args.openmetrics:
        print("error: metrics export currently requires --openmetrics",
              file=sys.stderr)
        return 2
    text = render_openmetrics(snapshot, timeseries)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"openmetrics exposition -> {args.out}")
    if args.check:
        parse_openmetrics(text)  # raises ValueError on a render bug
        print("exposition validated (strict parse)")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.io import load_metrics
    from repro.obs.timeseries import TimeSeriesStore
    from repro.obs.top import render_top

    def render_once() -> str:
        timeseries = TimeSeriesStore.load_jsonl(args.timeseries_in)
        snapshot = load_metrics(args.metrics) if args.metrics else None
        return render_top(timeseries, snapshot, ascii_only=args.ascii,
                          source=str(args.timeseries_in))

    try:
        if args.once:
            print(render_once(), end="")
            return 0
        # Live mode: re-read the dump and repaint every 2 s until
        # interrupted.
        # \x1b[H\x1b[2J = cursor home + clear screen; plain ANSI, no
        # curses dependency.
        while True:
            frame = render_once()
            sys.stdout.write("\x1b[H\x1b[2J" + frame)
            sys.stdout.flush()
            time.sleep(2.0)
    except KeyboardInterrupt:
        print()
        return 0
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot read {args.timeseries_in}: {error}",
              file=sys.stderr)
        return 2


def cmd_report(args: argparse.Namespace) -> int:
    from repro.io import load_metrics
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import format_report
    from repro.obs.session import expand_paths

    # A missing or corrupt snapshot is an operator mistake, not a bug:
    # one line to stderr and a distinct exit code, never a traceback.
    # A service run leaves one front-end file plus per-worker ``.w<i>``
    # siblings; the report folds every sibling it finds into one view.
    try:
        metric_paths = expand_paths(args.metrics)
        if not metric_paths:
            raise OSError(f"no such file: {args.metrics}")
        snapshot = MetricsRegistry.merge_snapshots(
            load_metrics(path) for path in metric_paths)
        if len(metric_paths) > 1:
            print(f"merged {len(metric_paths)} snapshot(s): "
                  + ", ".join(metric_paths))
        print(format_report(snapshot))
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"error: cannot read metrics from {args.metrics}: {error}",
              file=sys.stderr)
        return 2
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.session import expand_paths
    from repro.obs.spans import format_trace_show

    # Only one action today; argparse enforces the choice so a future
    # `repro trace diff` slots in without breaking invocations.
    try:
        paths = expand_paths(args.spans_in)
        if not paths:
            raise OSError(f"no such file: {args.spans_in}")
        print(format_trace_show(paths, limit=args.limit,
                                trace_prefix=args.trace_id))
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"error: cannot read spans from {args.spans_in}: {error}",
              file=sys.stderr)
        return 2
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    import math

    from repro.io import (load_flow_set, load_schedule, load_topology,
                          save_audit_report)
    from repro.validate import audit_schedule

    # Artifact problems (missing file, wrong format, mismatched sizes)
    # are operator mistakes: one line to stderr, exit code 2.  A schedule
    # that loads but fails its audit is the command's actual verdict and
    # exits 1.  The non-strict loader reproduces the dump verbatim —
    # sanitizing on load would hide exactly the corruption we audit for.
    try:
        topology = load_topology(args.topology)
        schedule = load_schedule(args.schedule, strict=False)
        flow_set = load_flow_set(args.flows) if args.flows else None
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot load artifacts: {error}", file=sys.stderr)
        return 2
    network = prepare_network(topology)
    rho_floor = math.inf if args.policy == "NR" else args.rho_t
    try:
        report = audit_schedule(schedule, network.reuse, rho_floor,
                                flow_set=flow_set,
                                expect_complete=args.flows is not None)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.summary())
    if args.report_out:
        save_audit_report(report, args.report_out)
        print(f"audit report -> {args.report_out}")
    return 0 if report.ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.io import save_fuzz_report
    from repro.validate import run_fuzz

    if args.cases <= 0:
        print("error: --cases must be positive", file=sys.stderr)
        return 2
    artifacts = Path(args.artifacts) if args.artifacts else None

    def on_case(case) -> None:
        if case.ok:
            if not case.skipped and (case.index + 1) % 25 == 0:
                print(f"  ... {case.index + 1}/{args.cases} cases clean")
            return
        checks = ", ".join(sorted({f["check"] for f in case.failures}))
        print(f"FAIL case {case.index} ({checks}): "
              f"{case.failures[0]['detail']}")
        if artifacts is not None:
            artifacts.mkdir(parents=True, exist_ok=True)
            path = artifacts / f"case_{case.index:04d}.json"
            path.write_text(json.dumps(case.to_dict(), indent=2))
            print(f"  failure artifact -> {path}")

    report = run_fuzz(args.cases, seed=args.seed or 0, on_case=on_case)
    print(report.summary())
    if artifacts is not None and not report.ok:
        report_path = artifacts / "report.json"
        save_fuzz_report(report, report_path)
        print(f"fuzz report -> {report_path}")
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import ServiceOptions, run_service

    workers = args.service_workers or (os.cpu_count() or 2)
    options = ServiceOptions(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        num_workers=workers,
        cache_capacity=args.cache_capacity,
        batch_size=args.batch_size,
        ledger_path=None if args.no_ledger else args.ledger,
        recording=_recording_paths(args))
    return run_service(options)


def cmd_loadgen(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.service.loadgen import (
        LoadgenOptions,
        format_report,
        run_loadgen,
    )

    options = LoadgenOptions(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        requests=args.requests,
        networks=args.networks,
        rate=args.rate,
        mix=args.mix,
        seed=args.seed if args.seed is not None else 0,
        testbed=args.testbed,
        channels=args.channels,
        flows=args.flows,
        policy=args.policy,
        rho_t=args.rho_t,
        traffic=args.traffic,
        verify=args.verify,
        report_out=args.report_out,
        trace_out=args.trace_out,
        trace_threshold_ms=args.trace_threshold_ms)
    report = run_loadgen(options)
    print(format_report(report))
    if args.report_out:
        Path(args.report_out).write_text(
            json.dumps(report, indent=2, sort_keys=True))
        print(f"report: -> {args.report_out}")
    failed = report["errors"] or \
        report.get("verify", {}).get("mismatches", 0)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    # Read at build time, so the default can be moved (the test suite
    # points it into a temporary directory).
    from repro.obs.ledger import DEFAULT_LEDGER

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Conservative channel reuse for industrial WSANs "
                    "(ICDCS 2018 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def ledger_opts(p):
        p.add_argument("--ledger", default=DEFAULT_LEDGER, metavar="FILE",
                       help="append-only run ledger (JSONL)")
        p.add_argument("--no-ledger", action="store_true",
                       help="skip the run-ledger append for this run")

    def recording_opts(p):
        # The recording flags every experiment command shares with
        # serve (see _recording_paths).
        p.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write a metrics snapshot (JSON)")
        p.add_argument("--provenance", default=None, metavar="FILE",
                       help="record per-placement decision provenance "
                            "(JSONL)")
        p.add_argument("--timeseries", default=None, metavar="FILE",
                       help="record windowed time series (JSONL; drives "
                            "'repro top' and the OpenMetrics export)")

    def common(p):
        p.add_argument("--testbed", default="indriya",
                       choices=("indriya", "wustl"))
        p.add_argument("--seed", type=int, default=None)
        recording_opts(p)
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for trial fan-out "
                            "(0 = all CPUs)")
        ledger_opts(p)

    p = sub.add_parser("topology", help="synthesize and inspect a testbed")
    common(p)
    p.add_argument("--channels", type=int, default=5)
    p.add_argument("--save", default=None, help="save topology to .npz")
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("sweep", help="schedulable-ratio sweep (Figs 1-3)")
    common(p)
    p.add_argument("--traffic", default="p2p",
                   choices=("p2p", "centralized"))
    p.add_argument("--vary", default="channels",
                   choices=("channels", "flows"))
    p.add_argument("--values", type=int, nargs="+",
                   default=[3, 4, 5, 8])
    p.add_argument("--channels", type=int, default=5,
                   help="fixed channel count when varying flows")
    p.add_argument("--flows", type=int, default=30,
                   help="fixed flow count when varying channels")
    p.add_argument("--period-min-exp", type=int, default=-1)
    p.add_argument("--period-max-exp", type=int, default=3)
    p.add_argument("--flow-sets", type=int, default=8)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reliability", help="simulated PDR (Fig 8)")
    common(p)
    p.set_defaults(testbed="wustl")
    p.add_argument("--flow-sets", type=int, default=3)
    p.add_argument("--repetitions", type=int, default=50)
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser("detection", help="K-S detection (Figs 10-11)")
    common(p)
    p.set_defaults(testbed="wustl")
    p.add_argument("--flows", type=int, default=80)
    p.add_argument("--epochs", type=int, default=3)
    p.set_defaults(func=cmd_detection)

    def manage_common(p):
        p.set_defaults(testbed="wustl")
        p.add_argument("--scenario", default="reuse-storm",
                       help="fault scenario: preset name or JSON file "
                            "(presets: quiet, reuse-storm, wifi-burst, "
                            "wifi-transient, storm-and-churn)")
        p.add_argument("--scheduler", default="RA",
                       choices=("NR", "RA", "RC"),
                       help="placement policy building the schedules")
        p.add_argument("--rho-t", type=int, default=2,
                       help="initial reuse hop floor for RA / RC")
        p.add_argument("--epochs", type=int, default=10,
                       help="health-report epochs to run")
        p.add_argument("--flows", type=int, default=80,
                       help="peer-to-peer 1 s flows in the workload")
        p.add_argument("--reps", type=int, default=18,
                       help="hyperperiods per epoch (paper: 18)")
        p.add_argument("--channels", type=int, nargs="+",
                       default=[11, 12, 13, 14, 15],
                       help="physical channels the network hops over")
        p.add_argument("--quick", action="store_true",
                       help="CI smoke mode: lighter workload, "
                            "faster-acting hysteresis")
        p.add_argument("--report-out", default=None, metavar="FILE",
                       help="write the ManagerReport(s) as JSON")
        p.add_argument("--slo-early-warning", action="store_true",
                       help="let the reschedule policy act on SLO "
                            "burn alerts before K-S confirmation")

    p = sub.add_parser("manage",
                       help="closed-loop manager under a fault scenario")
    common(p)
    manage_common(p)
    p.add_argument("--policy", default="reschedule",
                   choices=("noop", "reschedule", "blacklist", "escalate"),
                   help="remediation policy")
    p.add_argument("--seeds", type=int, nargs="+", default=None,
                   help="run one trial per seed (fanned over --workers)")
    p.set_defaults(func=cmd_manage)

    p = sub.add_parser("adapt",
                       help="remediation policies vs NoOp (Fig 8-style)")
    common(p)
    manage_common(p)
    p.add_argument("--policies", nargs="+",
                   default=["noop", "reschedule", "blacklist", "escalate"],
                   help="remediation policies to compare")
    p.add_argument("--metric", default="median", choices=("median", "worst"),
                   help="per-flow PDR statistic to tabulate")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("bench",
                       help="time the code's speed decisions; exit 3 when "
                            "one is lost")
    p.add_argument("--quick", action="store_true",
                   help="the smallest cell of each decision (the CI gate)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repetitions", type=int, default=5,
                   help="interleaved timing rounds per decision cell")
    p.add_argument("--out", default="BENCH_schedulers.json",
                   help="report path ('-' to skip writing)")
    ledger_opts(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("schedule",
                       help="build one schedule and save its artifacts")
    common(p)
    p.add_argument("--policy", default="RC", choices=("NR", "RA", "RC"))
    p.add_argument("--rho-t", type=int, default=2)
    p.add_argument("--flows", type=int, default=10)
    p.add_argument("--channels", type=int, default=5)
    p.add_argument("--traffic", default="p2p",
                   choices=("p2p", "centralized"))
    p.add_argument("--period-min-exp", type=int, default=0)
    p.add_argument("--period-max-exp", type=int, default=3)
    p.add_argument("--schedule-out", default=None, metavar="FILE",
                   help="write the schedule as JSON")
    p.add_argument("--flows-out", default=None, metavar="FILE",
                   help="write the flow set as JSON")
    p.add_argument("--topology-out", default=None, metavar="FILE",
                   help="write the channel-restricted topology (.npz)")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("validate",
                       help="audit a saved schedule against the reuse "
                            "contract")
    p.add_argument("--schedule", required=True, metavar="FILE",
                   help="schedule JSON (loaded verbatim, not sanitized)")
    p.add_argument("--topology", required=True, metavar="FILE",
                   help="channel-restricted .npz from 'repro topology "
                        "--save'")
    p.add_argument("--flows", default=None, metavar="FILE",
                   help="flow set JSON; enables the completeness audit")
    p.add_argument("--policy", default="RC", choices=("NR", "RA", "RC"),
                   help="policy the schedule claims to satisfy")
    p.add_argument("--rho-t", type=int, default=2,
                   help="reuse hop floor audited for RA / RC")
    p.add_argument("--report-out", default=None, metavar="FILE",
                   help="write the audit report as JSON")
    ledger_opts(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fuzz",
                       help="seeded differential fuzzing of scheduler and "
                            "simulator paths")
    p.add_argument("--cases", type=int, default=25,
                   help="number of random cases to run")
    p.add_argument("--seed", type=int, default=0,
                   help="run seed; case i draws from rng([seed, i])")
    p.add_argument("--artifacts", default=None, metavar="DIR",
                   help="write failing-case JSON artifacts to this "
                        "directory")
    ledger_opts(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("report", help="pretty-print a metrics snapshot")
    p.add_argument("metrics", help="metrics JSON written by --metrics-out "
                                    "(.w<N> worker siblings are folded in)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("trace",
                       help="inspect request-span dumps (--spans / "
                            "--trace-out)")
    tsub = p.add_subparsers(dest="action", required=True)
    # dest is spans_in, NOT spans: _recording_paths treats a "spans"
    # attribute as a recording *output* path and would overwrite the
    # dump being viewed.
    ps = tsub.add_parser("show",
                         help="ASCII waterfalls of the slowest captured "
                              "traces")
    ps.add_argument("spans_in", metavar="SPANS",
                    help="span JSONL written by serve --spans or "
                         "loadgen --trace-out; .w<N> worker siblings "
                         "are merged automatically")
    ps.add_argument("--limit", type=int, default=5, metavar="N",
                    help="traces to render, slowest first")
    ps.add_argument("--trace-id", default=None, metavar="PREFIX",
                    help="only traces whose id starts with this prefix")
    ps.set_defaults(func=cmd_trace)

    p = sub.add_parser("explain",
                       help="constraint chain for one link x slot of a "
                            "saved schedule")
    p.add_argument("--schedule", required=True, metavar="FILE",
                   help="schedule JSON from 'repro schedule "
                        "--schedule-out'")
    p.add_argument("--topology", required=True, metavar="FILE",
                   help=".npz from 'repro schedule --topology-out' or "
                        "'repro topology --save'")
    p.add_argument("--link", required=True, type=int, nargs=2,
                   metavar=("SENDER", "RECEIVER"),
                   help="the transmission link to explain")
    p.add_argument("--slot", required=True, type=int,
                   help="the time slot to explain")
    p.add_argument("--policy", default="RC", choices=("NR", "RA", "RC"),
                   help="policy whose channel constraint to apply")
    p.add_argument("--rho-t", type=int, default=2,
                   help="reuse hop count for RA / RC verdicts")
    p.add_argument("--provenance", dest="provenance_in", default=None,
                   metavar="FILE",
                   help="also show recorded decisions from a provenance "
                        "dump")
    p.add_argument("--all-decisions", action="store_true",
                   help="with --provenance: show every decision for the "
                        "link, not just those touching --slot")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("timeline",
                       help="ASCII superframe Gantt of a saved schedule")
    p.add_argument("--schedule", required=True, metavar="FILE",
                   help="schedule JSON")
    p.add_argument("--flows", default=None, metavar="FILE",
                   help="flow set JSON; adds release->deadline window "
                        "rows")
    p.add_argument("--slots", default=None, metavar="A:B",
                   help="slot range to render (default: 0:makespan)")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("ledger",
                       help="query the run ledger (runs.jsonl)")
    p.add_argument("action", choices=("list", "show", "diff"))
    p.add_argument("run_ids", nargs="*",
                   help="run id(s); unambiguous prefixes accepted")
    p.add_argument("--ledger", default=DEFAULT_LEDGER, metavar="FILE",
                   help="ledger file to query")
    p.add_argument("--status", dest="status_filter", default=None,
                   metavar="PREFIX",
                   help="list: only runs whose status starts with this "
                        "(e.g. 'ok', 'error', 'error:ValueError')")
    p.add_argument("--command", dest="command_filter", default=None,
                   metavar="NAME",
                   help="list: only runs of this command")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="list: only the N most recent matching runs")
    p.set_defaults(func=cmd_ledger)

    p = sub.add_parser("metrics",
                       help="export metrics as OpenMetrics text, or "
                            "validate an exposition")
    msub = p.add_subparsers(dest="action", required=True)
    pe = msub.add_parser("export",
                         help="render a snapshot (+ series) as "
                              "OpenMetrics text")
    pe.add_argument("--metrics", default=None, metavar="FILE",
                    help="metrics snapshot JSON from --metrics-out")
    pe.add_argument("--timeseries", dest="timeseries_in", default=None,
                    metavar="FILE",
                    help="time-series JSONL from --timeseries; latest "
                         "samples become labeled gauges")
    pe.add_argument("--openmetrics", action="store_true",
                    help="emit OpenMetrics text exposition (required; "
                         "reserved for future formats)")
    pe.add_argument("--out", default="-", metavar="FILE",
                    help="output file ('-' = stdout)")
    pe.add_argument("--check", action="store_true",
                    help="strict-parse the rendered exposition before "
                         "exiting")
    pe.set_defaults(func=cmd_metrics)
    pc = msub.add_parser("check",
                         help="strictly validate an OpenMetrics "
                              "exposition file")
    pc.add_argument("exposition", help="exposition file ('-' = stdin)")
    pc.set_defaults(func=cmd_metrics)

    p = sub.add_parser("top",
                       help="live ASCII observatory over a run's "
                            "time-series dump")
    # dest is timeseries_in, NOT timeseries: _recording_paths treats a
    # "timeseries" attribute as a recording *output* path and would
    # overwrite the dump being viewed.
    p.add_argument("timeseries_in", metavar="TIMESERIES",
                   help="time-series JSONL written by --timeseries")
    p.add_argument("--metrics", default=None, metavar="FILE",
                   help="metrics snapshot JSON for the health panel")
    p.add_argument("--once", action="store_true",
                   help="render one frame and exit (CI/pipes)")
    p.add_argument("--ascii", action="store_true",
                   help="pure-ASCII sparklines and bars")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("serve",
                       help="long-lived scheduling service (NDJSON over "
                            "a unix socket or TCP)",
                       description="Each recording flag names the front "
                                   "end's file; each worker exports "
                                   "FILE.w<N> at shutdown.")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="listen on a unix socket (overrides --host/"
                        "--port)")
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP bind address")
    p.add_argument("--port", type=int, default=7013,
                   help="TCP port (0 = ephemeral)")
    p.add_argument("--service-workers", type=int, default=2,
                   metavar="N",
                   help="worker processes sharding the fleet "
                        "(0 = all CPUs)")
    p.add_argument("--cache-capacity", type=int, default=256,
                   metavar="N",
                   help="compiled-artifact cache entries per worker")
    p.add_argument("--batch-size", type=int, default=100, metavar="N",
                   help="requests per run-ledger batch record")
    recording_opts(p)
    p.add_argument("--spans", default=None, metavar="FILE",
                   help="request-span dump with tail-based exemplar "
                        "capture (view with 'repro trace show')")
    p.add_argument("--span-threshold-ms", type=float,
                   default=DEFAULT_THRESHOLD_MS,
                   metavar="MS",
                   help="keep a trace's spans when its root takes at "
                        "least this long (errors always kept)")
    ledger_opts(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("loadgen",
                       help="seeded load generator + latency report "
                            "against a running 'repro serve'")
    p.add_argument("--socket", default=None, metavar="PATH",
                   help="connect to a unix socket (overrides --host/"
                        "--port)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7013)
    p.add_argument("--requests", type=int, default=100,
                   help="total requests to send")
    p.add_argument("--networks", type=int, default=8,
                   help="distinct networks in the fleet")
    p.add_argument("--rate", type=float, default=0.0, metavar="R",
                   help="open-loop arrival rate in req/s "
                        "(0 = closed loop, one in flight per network)")
    p.add_argument("--mix", type=float, default=0.3,
                   help="fraction of follow-up requests that are "
                        "reschedules (rest re-request the schedule)")
    p.add_argument("--seed", type=int, default=0,
                   help="plan seed (same seed = same request stream)")
    p.add_argument("--testbed", default="indriya",
                   choices=("indriya", "wustl"))
    p.add_argument("--channels", type=int, default=5)
    p.add_argument("--flows", type=int, default=10)
    p.add_argument("--policy", default="RC", choices=("NR", "RA", "RC"))
    p.add_argument("--rho-t", type=int, default=2)
    p.add_argument("--traffic", default="p2p",
                   choices=("p2p", "centralized"))
    p.add_argument("--verify", action="store_true",
                   help="shadow-execute every request in-process and "
                        "compare schedule hashes (bit-identity check; "
                        "distorts latency numbers)")
    p.add_argument("--report-out", default=None, metavar="FILE",
                   help="write the load report as JSON")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="record client-side request spans (propagating "
                        "trace context to the server) and dump the "
                        "slowest here")
    p.add_argument("--trace-threshold-ms", type=float, default=50.0,
                   metavar="MS",
                   help="keep a request's trace when it takes at least "
                        "this long (errors always kept)")
    ledger_opts(p)
    p.set_defaults(func=cmd_loadgen)

    return parser


def _recording_paths(args: argparse.Namespace) -> RecordingPaths:
    """The recording layers a command's flags ask for."""
    return RecordingPaths(
        metrics=getattr(args, "metrics_out", None),
        provenance=getattr(args, "provenance", None),
        timeseries=getattr(args, "timeseries", None),
        spans=getattr(args, "spans", None),
        span_threshold_ms=getattr(args, "span_threshold_ms",
                                  DEFAULT_THRESHOLD_MS))


#: ``args`` attributes naming the other files a command writes; with the
#: recording layers they go into the ledger record, so every artifact
#: names the run that made it.
_ARTIFACT_ARGS = ("trace_out", "save", "report_out", "out", "artifacts",
                  "schedule_out", "flows_out", "topology_out")


def _artifact_paths(args: argparse.Namespace) -> List[str]:
    paths = _recording_paths(args).outputs()
    for name in _ARTIFACT_ARGS:
        value = getattr(args, name, None)
        if value and value != "-":
            paths.append(str(value))
    return paths


def _run_command(args: argparse.Namespace):
    """Run the selected command inside its recording session.

    Returns:
        ``(status, recorder_or_None)``.
    """
    with recording_session(_recording_paths(args),
                           echo=print) as recorder:
        return args.func(args), recorder


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)

    # Producing commands (those carrying ledger_opts) append one record
    # per invocation; query commands (report / explain / timeline /
    # ledger itself) never write to the ledger they read.
    ledger = record = None
    if getattr(args, "no_ledger", None) is False:
        from repro.obs.ledger import RunLedger, new_record

        raw_argv = list(argv) if argv is not None else sys.argv[1:]
        skip = {"func", "command", "ledger", "no_ledger"}
        config = {key: value for key, value in vars(args).items()
                  if key not in skip}
        seeds = []
        if getattr(args, "seed", None) is not None:
            seeds.append(args.seed)
        seeds.extend(getattr(args, "seeds", None) or [])
        ledger = RunLedger(args.ledger)
        record = new_record(args.command, raw_argv, config, seeds)

    try:
        status, recorder = _run_command(args)
    except BrokenPipeError:
        # Downstream closed stdout mid-print (`repro ledger show |
        # head`).  Swap stdout for /dev/null so interpreter shutdown
        # does not raise a second time, and exit quietly.
        if ledger is not None:
            ledger.commit(record, status="error:BrokenPipeError",
                          artifacts=_artifact_paths(args))
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except Exception:
            pass
        return 120
    except BaseException as error:
        if ledger is not None:
            if isinstance(error, SystemExit) and isinstance(error.code, int):
                outcome = error.code
            else:
                outcome = f"error:{type(error).__name__}"
            ledger.commit(record, status=outcome,
                          artifacts=_artifact_paths(args))
        raise
    if ledger is not None:
        metrics = (recorder.snapshot().get("counters") or None
                   if recorder is not None else None)
        ledger.commit(record, status=status,
                      artifacts=_artifact_paths(args), metrics=metrics)
    return status


if __name__ == "__main__":
    sys.exit(main())
