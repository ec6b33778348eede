"""Worker-process side of the scheduling service.

Each worker owns one shard of the network fleet: a
:class:`~repro.service.executor.ServiceExecutor` (artifact cache +
sessions), its own observability recorder, and a duplex pipe to the
asyncio front-end.  The loop is strictly serial — receive one message,
answer it, repeat — which is what makes the sharding contract hold:
requests for the same network arrive on the same pipe in order and
therefore serialize, with no locks anywhere in the execution path.

Messages from the front-end are tuples: ``("request", payload_dict)``
for the shard-routed verbs, ``("status",)`` / ``("metrics",)`` control
probes, and ``None`` for graceful shutdown.  Every message gets exactly
one reply, so the front-end can match responses FIFO.

**Ledger batching.**  A service turning over thousands of requests must
not write one ledger record per request; the worker opens a run record
when a batch's first request lands and commits it — one atomic
``O_APPEND`` line, see :meth:`repro.obs.ledger.RunLedger.append` —
every ``batch_size`` requests and at shutdown, carrying per-verb
counts, error counts, and the cache's hit/miss counters as headline
metrics.

**Observability.**  A worker records through the same
:func:`~repro.obs.session.recording_session` as every CLI command, so
it installs the process-wide recorder only when the server was started
with a recording flag (``--metrics-out``, ``--provenance``,
``--timeseries``, ``--spans``): a default worker compiles and repairs
on the unrecorded fast paths and records nothing.  The ``metrics`` probe answers either way: the executor's own
request, error, fallback and cache counters
(:meth:`~repro.service.executor.ServiceExecutor.metrics`), merged with
the recorder's snapshot (the core ``scheduler.*`` / ``policy.*`` /
``rc.*`` families, stage histograms) when there is one.  The session
exports every layer at shutdown to the configured path with a
``.w<index>`` suffix so N workers never fight over one file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.session import RecordingPaths, recording_session
from repro.obs.spans import SpanRecorder, activate
from repro.service.executor import ServiceExecutor
from repro.service.protocol import (
    ProtocolError,
    error_response,
    ok_response,
    parse_request,
)

#: Default requests per ledger batch record.
DEFAULT_BATCH_SIZE = 100


@dataclass(frozen=True)
class WorkerOptions:
    """Picklable worker configuration (crosses the fork/spawn boundary).

    Attributes:
        cache_capacity: Artifact-cache LRU bound per worker.
        batch_size: Requests per ledger batch record.
        ledger_path: Run ledger to append batch records to (None = off).
        recording: The layers to record; each exports to its path plus
            ``.w<index>`` at shutdown.
    """

    cache_capacity: int = 256
    batch_size: int = DEFAULT_BATCH_SIZE
    ledger_path: Optional[str] = None
    recording: RecordingPaths = RecordingPaths()


class _LedgerBatcher:
    """Folds per-request accounting into one ledger record per batch.

    Also the service's time-series cadence: each batch boundary samples
    ``service.*`` series (requests, errors, cumulative cache hit rate)
    at ``t = batch_index`` on the worker's recorder — a no-op unless the
    recorder carries a store (``--timeseries``).
    """

    def __init__(self, index: int, options: WorkerOptions, recorder=None):
        from repro.obs.ledger import RunLedger

        self.index = index
        self.options = options
        self.recorder = recorder
        self.ledger = (RunLedger(options.ledger_path)
                       if options.ledger_path else None)
        self.batch_index = 0
        self.record: Optional[Dict] = None
        self.counts: Dict[str, int] = {}
        self.batch_errors = 0

    def note(self, verb: str, ok: bool, cache_stats: Dict) -> None:
        from repro.obs.ledger import new_record

        if self.ledger is not None and self.record is None:
            self.record = new_record(
                "serve", argv=[],
                config={"worker": self.index,
                        "batch": self.batch_index,
                        "batch_size": self.options.batch_size})
        self.counts[verb] = self.counts.get(verb, 0) + 1
        if not ok:
            self.batch_errors += 1
        if sum(self.counts.values()) >= self.options.batch_size:
            self.flush(cache_stats)

    def flush(self, cache_stats: Dict) -> None:
        total = sum(self.counts.values())
        if total == 0:
            return
        if self.recorder is not None:
            t = float(self.batch_index)
            self.recorder.sample("service.requests", t, float(total))
            self.recorder.sample("service.errors", t,
                                 float(self.batch_errors))
            lookups = (cache_stats.get("hit_total", 0)
                       + cache_stats.get("miss_total", 0))
            if lookups:
                self.recorder.sample(
                    "service.cache_hit_rate", t,
                    cache_stats.get("hit_total", 0) / lookups)
        if self.ledger is not None and self.record is not None:
            metrics = {f"requests.{verb}": count
                       for verb, count in sorted(self.counts.items())}
            metrics["requests"] = total
            metrics["errors"] = self.batch_errors
            metrics["cache_hits"] = cache_stats.get("hit_total", 0)
            metrics["cache_misses"] = cache_stats.get("miss_total", 0)
            status = "ok" if self.batch_errors == 0 else \
                f"ok:{self.batch_errors}-errors"
            self.ledger.commit(self.record, status=status, metrics=metrics)
        self.record = None
        self.counts = {}
        self.batch_errors = 0
        self.batch_index += 1


def _begin_work_span(spans: Optional[SpanRecorder], payload: Dict,
                     index: int):
    """Open this worker's local-root ``work`` span for one request.

    When the front-end forwarded a trace context, the work span joins
    that trace (parented under the front-end's dispatch span) and the
    pipe/queue wait is synthesized as a sibling ``shard.queue`` span
    from the forwarded enqueue wall-clock stamp.  Without a context
    (front-end not recording spans) the worker starts its own trace,
    so worker-side waterfalls exist either way.
    """
    if spans is None:
        return None
    wire = payload.get("trace")
    trace_id = parent = None
    if isinstance(wire, dict):
        trace_id = wire.get("trace_id")
        parent = wire.get("span_id")
        enqueued = wire.get("enqueued_unix")
        if trace_id and isinstance(enqueued, (int, float)):
            waited_ms = max(0.0, (time.time() - float(enqueued)) * 1e3)
            spans.record("shard.queue", trace_id=trace_id,
                         parent_id=parent, start_unix=float(enqueued),
                         duration_ms=waited_ms)
    return spans.start("work", trace_id=trace_id, parent_id=parent,
                       attrs={"worker": index,
                              "verb": payload.get("verb"),
                              "network": payload.get("network")})


def _metrics_snapshot(executor: ServiceExecutor, recorder) -> Dict:
    """The executor's service counters, plus the recorder's snapshot
    when this worker records."""
    if recorder is None:
        return executor.metrics()
    return MetricsRegistry.merge_snapshots([recorder.snapshot(),
                                            executor.metrics()])


def _serve_request(executor: ServiceExecutor,
                   spans: Optional[SpanRecorder], payload: Dict,
                   index: int) -> Dict:
    """Execute one routed request under its work span; the response."""
    work = _begin_work_span(spans, payload, index)
    request = None
    try:
        with activate(work):
            request = parse_request(payload)
            result = executor.handle(request)
        response = ok_response(request, result, worker=index)
    except ProtocolError as error:
        response = error_response(None, error, worker=index)
    except Exception as error:  # stay alive per-request
        response = error_response(request, error, worker=index)
    if work is not None:
        ok = bool(response.get("ok"))
        duration_ms = work.end("ok" if ok else "error")
        spans.close_trace(work.trace_id, duration_ms, error=not ok)
    return response


def worker_main(index: int, conn, options: WorkerOptions) -> None:
    """Entry point of one worker process (runs until told to stop)."""
    executor = ServiceExecutor(cache_capacity=options.cache_capacity,
                               worker_index=index)
    served = 0
    try:
        with recording_session(
                options.recording, index=index,
                snapshot=lambda rec: _metrics_snapshot(executor, rec),
        ) as recorder:
            spans = recorder.spans if recorder is not None else None
            batcher = _LedgerBatcher(index, options, recorder)
            try:
                while True:
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        break
                    if message is None:
                        break
                    kind = message[0]
                    if kind == "request":
                        response = _serve_request(executor, spans,
                                                  message[1], index)
                        served += 1
                        batcher.note(message[1].get("verb", "?"),
                                     bool(response.get("ok")),
                                     executor.cache.stats())
                        conn.send(response)
                    elif kind == "status":
                        conn.send(executor.status())
                    elif kind == "metrics":
                        conn.send(_metrics_snapshot(executor, recorder))
                    else:
                        conn.send({"ok": False, "error": {
                            "type": "ProtocolError",
                            "message": f"unknown control message "
                                       f"{kind!r}"}})
            finally:
                # Before the session exports: the flush samples the
                # last batch's series.
                batcher.flush(executor.cache.stats())
    finally:
        try:
            conn.send({"kind": "worker_exit", "worker": index,
                       "served": served})
            conn.close()
        except (OSError, BrokenPipeError):
            pass
