"""The asyncio front-end of the scheduling service.

Accepts newline-delimited JSON over TCP or a Unix socket, parses and
validates each request line, and routes the worker verbs to a pool of
worker *processes* — one pipe per worker, requests sharded by
:func:`repro.service.protocol.shard_of` over the network name.  The
event loop never blocks on a pipe: each worker gets a reader thread
(``conn.recv`` → ``loop.call_soon_threadsafe``) and a writer thread
draining an outbound queue, and responses are matched to callers FIFO —
sound because a worker answers strictly in arrival order.

Pipelining: the per-connection read loop dispatches each request to its
shard *synchronously* (enqueue + future) and then lets a task await the
future and write the response line, so a slow ``schedule`` on one
network does not stall requests for other networks arriving on the same
connection, while requests for one network still execute in arrival
order on its owning worker.

Control verbs are answered in the front-end: ``status`` aggregates
every worker's counters, ``metrics`` merges the workers' metric
snapshots (plus the front-end's own, when recording) into one
OpenMetrics exposition, ``ping`` is a liveness probe.  Processes
record only when the server was started with a recording flag
(``--metrics-out``, ``--provenance``, ``--timeseries``, ``--spans``):
by default ``metrics`` shows just the service families
— requests per verb, errors, repair fallbacks, cache lookups per kind
and verdict — which the workers' executors count anyway; the core
``scheduler`` / ``policy`` / ``rc`` families and stage histograms
appear only on a recording server.

Shutdown: SIGTERM / SIGINT stop the accept loop, send every worker the
``None`` sentinel (workers flush ledger batches and export obs
artifacts), and join the pool; in-flight requests complete first.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import queue
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.openmetrics import render_openmetrics
from repro.obs.session import RecordingPaths
from repro.service.protocol import (
    ProtocolError,
    Request,
    WORKER_VERBS,
    encode_line,
    error_response,
    ok_response,
    parse_request,
    shard_of,
)
from repro.service.worker import DEFAULT_BATCH_SIZE, WorkerOptions, worker_main

#: Generous per-line limit: requests are small; responses (which may
#: embed full schedules) are written, not read, by the server.
_LINE_LIMIT = 4 * 1024 * 1024

#: Sentinel the front-end puts on a worker's outbound queue to make the
#: writer thread forward the shutdown ``None`` and exit.
_SHUTDOWN = object()


@dataclass
class ServiceOptions:
    """Everything ``repro serve`` configures.

    Exactly one of ``socket_path`` (Unix socket) or ``host``/``port``
    (TCP) selects the listener.
    """

    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 7013
    num_workers: int = 2
    cache_capacity: int = 256
    batch_size: int = DEFAULT_BATCH_SIZE
    ledger_path: Optional[str] = None
    #: The workers' recording layers (the front end records through
    #: the CLI's own session over the same paths).
    recording: RecordingPaths = RecordingPaths()

    def worker_options(self) -> WorkerOptions:
        return WorkerOptions(
            cache_capacity=self.cache_capacity,
            batch_size=self.batch_size,
            ledger_path=self.ledger_path,
            recording=self.recording)


class _WorkerHandle:
    """Front-end view of one worker process: pipe, threads, FIFO queue."""

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self.pending: Deque[asyncio.Future] = deque()
        self.outbound: "queue.Queue" = queue.Queue()
        self.alive = True
        self.served = 0
        self.reader: Optional[threading.Thread] = None
        self.writer: Optional[threading.Thread] = None


class ScheduleService:
    """The running service: worker pool + listener + dispatcher."""

    def __init__(self, options: ServiceOptions):
        self.options = options
        self.workers: List[_WorkerHandle] = []
        self.server: Optional[asyncio.AbstractServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.started = time.time()
        self.connections = 0
        self.protocol_errors = 0
        self.front_requests: Dict[str, int] = {}
        self._stopping = False

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> str:
        """Spawn the pool, start the listener; returns the bound address."""
        self.loop = asyncio.get_running_loop()
        context = multiprocessing.get_context("fork")
        worker_options = self.options.worker_options()
        for index in range(self.options.num_workers):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=worker_main,
                args=(index, child_conn, worker_options),
                name=f"repro-serve-w{index}", daemon=True)
            process.start()
            child_conn.close()
            self.workers.append(_WorkerHandle(index, process, parent_conn))
        # Threads only after every fork: forking a threaded process is
        # where deadlocks live.
        for handle in self.workers:
            handle.reader = threading.Thread(
                target=self._reader_loop, args=(handle,), daemon=True)
            handle.writer = threading.Thread(
                target=self._writer_loop, args=(handle,), daemon=True)
            handle.reader.start()
            handle.writer.start()
        if self.options.socket_path:
            self.server = await asyncio.start_unix_server(
                self._handle_client, path=self.options.socket_path,
                limit=_LINE_LIMIT)
            return f"unix:{self.options.socket_path}"
        self.server = await asyncio.start_server(
            self._handle_client, host=self.options.host,
            port=self.options.port, limit=_LINE_LIMIT)
        sockets = self.server.sockets or []
        bound = sockets[0].getsockname() if sockets else \
            (self.options.host, self.options.port)
        return f"tcp:{bound[0]}:{bound[1]}"

    async def stop(self) -> None:
        """Graceful shutdown: close listener, drain + join the pool."""
        if self._stopping:
            return
        self._stopping = True
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
        for handle in self.workers:
            handle.outbound.put(_SHUTDOWN)
        deadline = time.time() + 15.0
        for handle in self.workers:
            handle.process.join(timeout=max(0.1, deadline - time.time()))
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=2.0)
        # Let the reader threads deliver the workers' final
        # ``worker_exit`` payloads (served counts) before marking dead.
        for handle in self.workers:
            if handle.reader is not None:
                handle.reader.join(timeout=2.0)
        await asyncio.sleep(0)
        for handle in self.workers:
            self._mark_dead(handle)

    # -- worker pipe threads ---------------------------------------------

    def _reader_loop(self, handle: _WorkerHandle) -> None:
        while True:
            try:
                payload = handle.conn.recv()
            except (EOFError, OSError):
                break
            self.loop.call_soon_threadsafe(self._resolve, handle, payload)
        self.loop.call_soon_threadsafe(self._mark_dead, handle)

    def _writer_loop(self, handle: _WorkerHandle) -> None:
        while True:
            item = handle.outbound.get()
            try:
                if item is _SHUTDOWN:
                    handle.conn.send(None)
                    break
                handle.conn.send(item)
            except (OSError, BrokenPipeError):
                break

    def _resolve(self, handle: _WorkerHandle, payload) -> None:
        if isinstance(payload, dict) and payload.get("kind") == \
                "worker_exit":
            handle.served = payload.get("served", handle.served)
            return
        if not handle.pending:  # pragma: no cover - protocol violation
            return
        future = handle.pending.popleft()
        if not future.done():
            future.set_result(payload)

    def _mark_dead(self, handle: _WorkerHandle) -> None:
        handle.alive = False
        while handle.pending:
            future = handle.pending.popleft()
            if not future.done():
                future.set_result({
                    "id": None, "ok": False, "verb": None,
                    "error": {"type": "WorkerDied",
                              "message": f"worker {handle.index} exited "
                                         f"before answering"}})

    # -- dispatch --------------------------------------------------------

    def _dispatch_nowait(self, handle: _WorkerHandle,
                         message) -> asyncio.Future:
        """Enqueue one message for a worker; future resolves FIFO.

        Must run on the event loop: the append + put pair is what keeps
        the pending deque aligned with the worker's arrival order.
        """
        future = self.loop.create_future()
        if not handle.alive:
            future.set_result({
                "id": None, "ok": False, "verb": None,
                "error": {"type": "WorkerDied",
                          "message": f"worker {handle.index} is not "
                                     f"running"}})
            return future
        handle.pending.append(future)
        handle.outbound.put(message)
        return future

    def dispatch_request(self, request: Request) -> asyncio.Future:
        shard = shard_of(request.network, len(self.workers))
        return self._dispatch_nowait(self.workers[shard],
                                     ("request", request.to_dict()))

    async def _control_all(self, kind: str) -> List:
        futures = [self._dispatch_nowait(handle, (kind,))
                   for handle in self.workers if handle.alive]
        return list(await asyncio.gather(*futures))

    # -- control verbs ---------------------------------------------------

    async def _status(self) -> Dict:
        worker_statuses = await self._control_all("status")
        cache_totals = {"entries": 0, "hit_total": 0, "miss_total": 0,
                        "evictions": 0, "invalidations": 0}
        requests: Dict[str, int] = {}
        errors = 0
        networks = 0
        fallbacks = 0
        for status in worker_statuses:
            if not isinstance(status, dict) or "cache" not in status:
                continue
            for key in cache_totals:
                cache_totals[key] += status["cache"].get(key, 0)
            for verb, count in status.get("requests", {}).items():
                requests[verb] = requests.get(verb, 0) + count
            errors += status.get("errors", 0)
            networks += status.get("networks", 0)
            fallbacks += status.get("repair_fallbacks", 0)
        return {
            "uptime_s": round(time.time() - self.started, 3),
            "workers": len(self.workers),
            "workers_alive": sum(1 for h in self.workers if h.alive),
            "connections": self.connections,
            "protocol_errors": self.protocol_errors,
            "front_requests": dict(sorted(self.front_requests.items())),
            "requests": dict(sorted(requests.items())),
            "errors": errors,
            "networks": networks,
            "repair_fallbacks": fallbacks,
            "cache": cache_totals,
            "worker_status": worker_statuses,
        }

    async def _metrics(self) -> Dict:
        from repro.obs import recorder as _obs

        snapshots = [snapshot for snapshot
                     in await self._control_all("metrics")
                     if isinstance(snapshot, dict)]
        if _obs.ENABLED:
            snapshots.append(_obs.RECORDER.snapshot())
        merged = MetricsRegistry.merge_snapshots(snapshots)
        timeseries = (_obs.RECORDER.timeseries
                      if _obs.ENABLED else None)
        return {"workers": len(snapshots),
                "exposition": render_openmetrics(merged,
                                                 timeseries=timeseries)}

    # -- request spans ---------------------------------------------------

    def _open_request_span(self, request: Request):
        """Start the front-end span pair for one request.

        Returns ``(root, dispatch)`` ActiveSpans (either may be None).
        The root span adopts the client's trace context when one came
        in; the dispatch span's context (plus the enqueue wall-clock
        stamp) is written onto the request so the owning worker can
        parent its own spans and synthesize the queue-wait span.
        """
        from repro.obs import recorder as _obs

        spans = _obs.RECORDER.spans if _obs.ENABLED else None
        if spans is None:
            return None, None
        incoming = request.trace or {}
        root = spans.start("request",
                           trace_id=incoming.get("trace_id"),
                           parent_id=incoming.get("span_id"),
                           attrs={"verb": request.verb,
                                  "network": request.network,
                                  "id": request.id})
        dispatch = None
        if request.verb in WORKER_VERBS:
            shard = shard_of(request.network, len(self.workers))
            dispatch = spans.start("dispatch", trace_id=root.trace_id,
                                   parent_id=root.span_id,
                                   attrs={"shard": shard})
            request.trace = {"trace_id": root.trace_id,
                             "span_id": dispatch.span_id,
                             "enqueued_unix": time.time()}
        return root, dispatch

    def _close_request_span(self, request: Request, response: Dict,
                            root, dispatch) -> Dict:
        """End the span pair with the response's status; echo the
        trace id back to the client (also when the client supplied a
        context but the server records no spans)."""
        from repro.obs import recorder as _obs

        ok = bool(response.get("ok"))
        status = "ok" if ok else "error"
        if not ok:
            error = response.get("error") or {}
            if root is not None:
                root.annotate(error=error.get("type"))
        if dispatch is not None:
            dispatch.end(status)
        trace_id = None
        if root is not None:
            duration_ms = root.end(status)
            spans = _obs.RECORDER.spans if _obs.ENABLED else None
            if spans is not None:
                spans.close_trace(root.trace_id, duration_ms,
                                  error=not ok)
            trace_id = root.trace_id
        elif request.trace:
            trace_id = request.trace.get("trace_id")
        if trace_id:
            response = dict(response)
            response["trace"] = {"trace_id": trace_id}
        return response

    # -- client connections ----------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        write_lock = asyncio.Lock()
        tasks: List[asyncio.Task] = []

        async def reply(payload: Dict) -> None:
            async with write_lock:
                writer.write(encode_line(payload))
                await writer.drain()

        async def answer(request: Request, future: "asyncio.Future",
                         root, dispatch) -> None:
            response = self._close_request_span(request, await future,
                                                root, dispatch)
            await reply(response)

        async def control(request: Request, root) -> None:
            try:
                if request.verb == "status":
                    result = await self._status()
                elif request.verb == "metrics":
                    result = await self._metrics()
                else:
                    result = {"pong": True,
                              "uptime_s": round(
                                  time.time() - self.started, 3)}
                response = ok_response(request, result)
            except Exception as error:  # pragma: no cover - defensive
                response = error_response(request, error)
            await reply(self._close_request_span(request, response,
                                                 root, None))

        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self.protocol_errors += 1
                    await reply(error_response(
                        None, ProtocolError("request line too long")))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = parse_request(line.decode("utf-8"))
                except ProtocolError as error:
                    self.protocol_errors += 1
                    await reply(error_response(None, error))
                    continue
                self.front_requests[request.verb] = \
                    self.front_requests.get(request.verb, 0) + 1
                from repro.obs import recorder as _obs
                if _obs.ENABLED:
                    _obs.RECORDER.count("service.front.requests")
                    _obs.RECORDER.count(
                        f"service.front.requests.{request.verb}")
                root, dispatch = self._open_request_span(request)
                if request.verb in WORKER_VERBS:
                    # Synchronous dispatch pins per-network ordering;
                    # the response write happens off-loop-order.
                    future = self.dispatch_request(request)
                    tasks.append(asyncio.ensure_future(
                        answer(request, future, root, dispatch)))
                else:
                    tasks.append(asyncio.ensure_future(
                        control(request, root)))
        except ConnectionResetError:  # pragma: no cover - client vanished
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError):  # pragma: no cover
                pass


async def _serve(options: ServiceOptions) -> int:
    service = ScheduleService(options)
    address = await service.start()
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop_event.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    print(f"repro-serve: listening on {address} with "
          f"{options.num_workers} worker(s)", flush=True)
    await stop_event.wait()
    print("repro-serve: shutting down", flush=True)
    await service.stop()
    served = sum(handle.served for handle in service.workers)
    print(f"repro-serve: drained {served} request(s) across "
          f"{len(service.workers)} worker(s)", flush=True)
    return 0


def run_service(options: ServiceOptions) -> int:
    """Blocking entry point for ``repro serve`` (returns the exit code)."""
    return asyncio.run(_serve(options))
