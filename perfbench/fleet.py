"""The service workload, fleet-burst.

A run is five *rounds*.  Each round starts a fresh ``repro serve``
(2 workers, unix socket; a warm server would answer from its cache),
drives it from this process over one connection in a closed loop — one
outstanding request per network, every network compiled cold inside
the timed window — and stops it.

Outputs are checked after the timer stops: each round's plan is
replayed in order through an in-process
:class:`~repro.service.executor.ServiceExecutor` and every served
``schedule_hash`` must be bit-identical to the replayed one.

The traced run serves each round's plan twice, on a plain server and
on one started with ``--spans``/``--metrics-out``, and reads the
per-stage ``span.<stage>.seconds`` histogram count and sum from the
front end's and each worker's metrics export.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import stats

#: The fleet: ROADMAP's 32-network case.
NETWORKS = 32
FLEET = dict(testbed="indriya", channels=5, flows=30, policy="RC",
             traffic="p2p", rho_t=2)
#: The fleet is fixed — every network on Indriya's canonical synthesized
#: plant, network ``i`` carrying workload seed ``WORKLOAD_SEED + i`` —
#: and the run seed drives the request stream (which network, which
#: verb, when).  Seeding the fleet itself would make run-to-run spread
#: mostly a measure of how hard each seed's 32 flow sets are to compile.
TOPOLOGY_SEED = 7
WORKLOAD_SEED = 1000
SERVICE_WORKERS = 2
BURST_MIX = 0.3
#: Closed-loop requests per second a round is sized by (the workload
#: does fixed work: a faster service finishes its rounds sooner).
BURST_RATE_GUIDE = 210.0
#: Fresh servers per run; setup_s and ops_per_s are medians over the
#: rounds, latencies pool every round's requests.
ROUNDS = 5
#: Latencies are reported at p99 ...
TAIL_Q = 99.0
#: ... which needs at least 1000 pooled requests.
MIN_TAIL_SAMPLES = 1000
#: Stages the executor records as spans (children of the work span).
STAGES = ("cache.topology", "cache.workload", "compile", "repair",
          "rebuild")
_LINE_LIMIT = 4 * 1024 * 1024
_SOCKET_PATH_MAX = 100


class BenchError(RuntimeError):
    """The workload could not run (server died, socket unusable...)."""


# -- server lifecycle ----------------------------------------------------

class Server:
    """One ``repro serve`` process tree in its own session."""

    def __init__(self, root: Path, workdir: Path, traced: bool):
        self.root = root
        self.dir = workdir
        self.traced = traced
        self.proc: Optional[subprocess.Popen] = None
        self.socket = os.path.relpath(workdir / "s.sock")
        if len(self.socket) > _SOCKET_PATH_MAX:
            raise BenchError(f"socket path too long: {self.socket}")

    def start(self) -> None:
        """Spawn and wait until the socket accepts."""
        self.dir.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, "-m", "repro", "serve",
                   "--socket", "s.sock",
                   "--service-workers", str(SERVICE_WORKERS), "--no-ledger"]
        if self.traced:
            command += ["--spans", "spans.jsonl", "--span-threshold-ms", "0",
                        "--metrics-out", "metrics.json"]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        started = time.perf_counter()
        with open(self.dir / "serve.log", "wb") as log:
            self.proc = subprocess.Popen(
                command, cwd=self.dir, env=env, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                start_new_session=True)
        deadline = started + 60.0
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited with {self.proc.returncode}"
                                 f"; see {self.dir / 'serve.log'}")
            try:
                with socket.socket(socket.AF_UNIX) as probe:
                    probe.connect(self.socket)
                return
            except OSError:
                if time.perf_counter() > deadline:
                    self.stop()
                    raise BenchError("server did not accept within 60 s")
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (VmHWM) of the front end and its workers."""
        pids = [self.proc.pid]
        try:
            children = Path(f"/proc/{self.proc.pid}/task/{self.proc.pid}"
                            f"/children").read_text().split()
            pids += [int(pid) for pid in children]
        except OSError:
            pass
        total_kb = 0
        for pid in pids:
            try:
                for line in Path(f"/proc/{pid}/status").read_text() \
                        .splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (workers flush exports), then reap the whole session."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        _kill_session(self.proc.pid)
        self.proc.wait()
        self.proc = None


def _kill_session(pgid: int) -> None:
    """SIGKILL any process left in the session and wait until none is."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


# -- client ----------------------------------------------------------------

@dataclass
class Record:
    """One request as the client saw it (times on perf_counter)."""

    payload: Dict
    sent: float
    done: float
    response: Dict

    @property
    def latency_ms(self) -> float:
        """Send to response."""
        return (self.done - self.sent) * 1e3

    @property
    def elapsed_ms(self) -> float:
        """The executor's own wall time for the request."""
        return float((self.response.get("result") or {})
                     .get("elapsed_ms", 0.0))


class Connection:
    """One NDJSON connection; responses matched to requests by id.

    The receive time is read as soon as the line arrives, before the
    waiting coroutine resumes, so event-loop scheduling is not charged.
    """

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.pending: Dict[object, asyncio.Future] = {}
        self.task = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, path: str) -> "Connection":
        reader, writer = await asyncio.open_unix_connection(
            path, limit=_LINE_LIMIT)
        return cls(reader, writer)

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            done = time.perf_counter()
            response = json.loads(line)
            future = self.pending.pop(response.get("id"), None)
            if future is not None and not future.done():
                future.set_result((response, done))
        for future in self.pending.values():
            if not future.done():
                future.set_exception(BenchError("server closed"))
        self.pending.clear()

    def send(self, payload: Dict) -> Tuple[float, asyncio.Future]:
        """Write one request now; returns (send time, response future)."""
        future = asyncio.get_running_loop().create_future()
        self.pending[payload["id"]] = future
        sent = time.perf_counter()
        self.writer.write(json.dumps(payload, separators=(",", ":"))
                          .encode() + b"\n")
        return sent, future

    async def call(self, payload: Dict) -> Record:
        sent, future = self.send(payload)
        response, done = await future
        return Record(payload, sent, done, response)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, BenchError):
            pass


def make_plan(seed: int, requests: int) -> List[Dict]:
    """The seeded request stream over the fixed fleet.

    Keeps each network's first ``requests // NETWORKS`` requests of a
    longer ``build_plan`` stream: every closed-loop client then has the
    same amount of work, so no lone network's long sequence drains the
    round at low concurrency.
    """
    from repro.service.loadgen import LoadgenOptions, build_plan

    quota = requests // NETWORKS
    options = LoadgenOptions(requests=6 * requests, networks=NETWORKS,
                             mix=BURST_MIX, seed=seed, **FLEET)
    plan, taken = [], {}
    for payload in build_plan(options):
        if taken.get(payload["network"], 0) == quota:
            continue
        taken[payload["network"]] = taken.get(payload["network"], 0) + 1
        if "config" in payload:
            index = int(payload["network"].split("-")[1])
            payload["config"] = dict(payload["config"], seed=TOPOLOGY_SEED,
                                     workload_seed=WORKLOAD_SEED + index)
        plan.append(payload)
    if len(plan) != quota * NETWORKS:
        raise BenchError("stream too short for equal per-network quotas")
    return plan


async def _closed_loop(conn: Connection,
                       plan: List[Dict]) -> Tuple[List[Record], float]:
    """One outstanding request per network until the plan is served."""
    by_network: Dict[str, List[Dict]] = {}
    for payload in plan:
        by_network.setdefault(payload["network"], []).append(payload)
    records: List[Record] = []
    started = time.perf_counter()

    async def drive(sequence: List[Dict]) -> None:
        for payload in sequence:
            records.append(await conn.call(payload))

    await asyncio.gather(*(drive(seq) for seq in by_network.values()))
    return records, time.perf_counter() - started


@dataclass
class Round:
    """One fresh server, set up and driven through one plan."""

    setup_s: float
    records: List[Record]
    wall_s: float
    peak_rss_mb: float = 0.0
    status: Dict = field(default_factory=dict)
    histograms: Dict = field(default_factory=dict)
    #: Host-speed scale, from calibrations before spawn and after stop.
    factor: float = 1.0


def make_plans(seed: int, seconds: float) -> List[List[Dict]]:
    """One plan per round, sized so the rounds fill about ``seconds``.

    Round ``r`` draws its stream from seed ``seed * ROUNDS + r``, so a
    run pools independent streams.  A round never has fewer requests
    than its share of the pooled p99's sample floor.
    """
    requests = max(-(-MIN_TAIL_SAMPLES // ROUNDS),
                   int(BURST_RATE_GUIDE * seconds / ROUNDS))
    return [make_plan(seed * ROUNDS + index, requests)
            for index in range(ROUNDS)]


async def _drive(server: Server, plan: List[Dict], started: float):
    conn = await Connection.open(server.socket)
    try:
        setup_s = time.perf_counter() - started
        records, wall = await _closed_loop(conn, plan)
        status = (await conn.call({"id": "bench-status",
                                   "verb": "status"})).response
    finally:
        await conn.close()
    return Round(setup_s, records, wall, status=status.get("result") or {})


def run_round(root: Path, workdir: Path, plan: List[Dict],
              traced: bool = False) -> Round:
    """Spawn a fresh server, drive the plan, stop the server.

    Host speed is calibrated on every CPU just before the spawn and
    just after the stop (the server keeps both cores busy)."""
    server = Server(root, workdir, traced)
    before = stats.calibration_s(all_cpus=True)
    try:
        started = time.perf_counter()
        server.start()
        result = asyncio.run(_drive(server, plan, started))
        result.peak_rss_mb = server.peak_rss_mb()
        server.stop()
        if traced:
            result.histograms = _read_histograms(server.dir)
    finally:
        server.stop()
    result.factor = stats.host_factor(before,
                                      stats.calibration_s(all_cpus=True))
    return result


def _read_histograms(workdir: Path) -> Dict:
    """Merged ``span.<stage>.seconds`` histograms of the front end
    (``request``, ``dispatch``) and every worker (the rest)."""
    merged: Dict[str, Dict] = {}
    for path in sorted(workdir.glob("metrics.json*")):
        snapshot = json.loads(path.read_text())
        for name, data in snapshot.get("histograms", {}).items():
            if name.startswith("span."):
                _merge_hist(merged, name, data)
    return merged


def _merge_hist(into: Dict, name: str, data: Dict) -> None:
    have = into.setdefault(name, {"count": 0, "sum": 0.0,
                                  "buckets": data["buckets"],
                                  "counts": [0] * len(data["counts"])})
    have["count"] += data["count"]
    have["sum"] += data["sum"]
    have["counts"] = [a + b for a, b in zip(have["counts"], data["counts"])]


# -- output check --------------------------------------------------------

def expected_hashes(plan: List[Dict]) -> Dict[int, Optional[str]]:
    """Replay a plan through an in-process executor: id -> hash."""
    from repro.service.executor import ServiceExecutor
    from repro.service.protocol import parse_request

    shadow = ServiceExecutor(worker_index=-1)
    expected: Dict[int, Optional[str]] = {}
    for payload in plan:
        try:
            result = shadow.handle(parse_request(dict(payload)))
        except Exception:  # the served answer must then be an error too
            result = {}
        expected[payload["id"]] = result.get("schedule_hash")
    return expected


def check_round(result: Round, plan: List[Dict]) -> Tuple[int, int, int]:
    """(attempted, error responses, hash mismatches) of one round."""
    expected = expected_hashes(plan)
    attempted = errors = mismatches = 0
    for record in result.records:
        attempted += 1
        if not record.response.get("ok"):
            errors += 1
        elif record.response["result"].get("schedule_hash") != \
                expected.get(record.payload["id"]):
            mismatches += 1
    return attempted, errors, mismatches


# -- metrics ---------------------------------------------------------------

def _records(rounds: List[Round]) -> List[Record]:
    return [record for result in rounds for record in result.records]


def end_to_end(rounds: List[Round]) -> Tuple[Dict, Dict]:
    """(metric values, human notes) of the untraced rounds; every time
    is scaled to the reference host by its round's factor."""
    records = _records(rounds)
    latencies = [record.latency_ms * result.factor for result in rounds
                 for record in result.records]
    summary = stats.latency_summary(latencies, TAIL_Q)
    values = {
        "setup_s": stats.median([r.setup_s * r.factor for r in rounds]),
        "ops_per_s": stats.median([len(r.records) / (r.wall_s * r.factor)
                                   for r in rounds]),
        "latency_p50_ms": summary["p50"],
        "latency_tail_ms": summary["tail"],
        "peak_rss_mb": stats.median([r.peak_rss_mb for r in rounds]),
    }
    notes = {"ops": len(records), "unit": "request",
             "groups": f"{len(rounds)} fresh server(s)",
             "wall_s": sum(r.wall_s * r.factor for r in rounds),
             "raw_wall_s": sum(r.wall_s for r in rounds),
             "latency": summary}
    return values, notes


def _hist(rounds: List[Round], stage: str) -> Dict:
    merged: Dict[str, Dict] = {}
    name = f"span.{stage}.seconds"
    for result in rounds:
        if name in result.histograms:
            _merge_hist(merged, name, result.histograms[name])
    return merged.get(name, {"count": 0, "sum": 0.0, "buckets": [],
                             "counts": []})


def _bucket_quantile_ms(hist: Dict, q: float) -> float:
    """Bucket-resolution quantile (the upper bound of its bucket)."""
    from repro.obs.metrics import quantile_from_buckets

    if not hist["count"]:
        return 0.0
    return 1e3 * quantile_from_buckets(hist["buckets"], hist["counts"], q)


def per_layer(traced: List[Round],
              untraced: List[Round]) -> Dict[str, float]:
    """Per-layer numbers of the traced rounds, in raw (unscaled) time."""
    records = _records(traced)
    metrics: Dict[str, float] = {}
    front = [r.latency_ms - r.elapsed_ms for r in records]
    metrics["service.server.front_ms.p50"] = stats.percentile(front, 50.0)
    metrics["service.server.front_ms.p99"] = stats.percentile(front, 99.0)
    queue = _hist(traced, "shard.queue")
    metrics["service.server.shard_queue.wait_s"] = queue["sum"]
    metrics["service.server.shard_queue.p99_ms"] = \
        _bucket_quantile_ms(queue, 0.99)
    for verb in ("schedule", "reschedule"):
        mine = [r for r in records if r.payload["verb"] == verb]
        metrics[f"service.server.{verb}.p50_ms"] = \
            stats.median([r.latency_ms for r in mine]) if mine else 0.0
        metrics[f"service.executor.requests.{verb}"] = len(mine)
        metrics[f"service.executor.busy_s.{verb}"] = \
            sum(r.elapsed_ms for r in mine) / 1e3
    metrics["service.executor.busy_s"] = \
        sum(r.elapsed_ms for r in records) / 1e3
    metrics["service.executor.self_s"] = metrics["service.executor.busy_s"] \
        - sum(_hist(traced, stage)["sum"] for stage in STAGES)
    for kind in ("topology", "workload", "schedule"):
        hits = misses = 0
        for result in traced:
            for worker in result.status.get("worker_status", []):
                cache = worker.get("cache", {})
                hits += cache.get("hits", {}).get(kind, 0)
                misses += cache.get("misses", {}).get(kind, 0)
        metrics[f"service.cache.{kind}.lookups"] = hits + misses
        metrics[f"service.cache.{kind}.hit_ratio"] = \
            stats.safe_ratio(hits, hits + misses)
    metrics["core.scheduler.compile.count"] = misses  # schedule misses
    for kind in ("topology", "workload"):
        metrics[f"service.cache.{kind}.busy_s"] = \
            _hist(traced, f"cache.{kind}")["sum"]
    metrics["core.scheduler.compile.busy_s"] = _hist(traced, "compile")["sum"]
    repair = _hist(traced, "repair")
    rebuild = _hist(traced, "rebuild")
    results = [r.response.get("result") or {} for r in records]
    modes = [result.get("repair_mode") for result in results]
    metrics["core.repair.count"] = repair["count"]
    metrics["core.repair.busy_s"] = repair["sum"]
    metrics["core.repair.evicted_cells"] = sum(
        result.get("evicted_cells") or 0 for result in results)
    metrics["core.repair.success_ratio"] = stats.safe_ratio(
        modes.count("repair"), modes.count("repair") + modes.count("rebuild"))
    metrics["core.reschedule.count"] = rebuild["count"]
    metrics["core.reschedule.busy_s"] = rebuild["sum"]

    # Coverage: the share of client-observed time inside the front
    # end's request spans, under which the server's layers (front end,
    # shard queue, executor, its stages) nest.  What stays uncovered is
    # the socket and the client's own event loop.
    metrics["bench.coverage"] = stats.safe_ratio(
        1e3 * _hist(traced, "request")["sum"],
        sum(r.latency_ms for r in records))
    # Overhead: the same plans served untraced and traced (fixed work),
    # compared by host-scaled wall time.
    traced_s = sum(r.wall_s * r.factor for r in traced)
    plain_s = sum(r.wall_s * r.factor for r in untraced)
    metrics["bench.traced_wall_s"] = traced_s
    metrics["bench.untraced_wall_s"] = plain_s
    metrics["bench.tracing_overhead_s"] = traced_s - plain_s
    metrics["bench.tracing_overhead_pct"] = \
        100.0 * (stats.safe_ratio(traced_s, plain_s) - 1.0)
    return metrics
