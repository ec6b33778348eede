"""Causally-linked request spans with tail-based exemplar capture.

Layered on the observability stack of :mod:`repro.obs`, this module
records *spans* — named, timed scopes carrying ``trace_id`` /
``span_id`` / ``parent_id`` so a request crossing the service's process
boundaries (asyncio front-end → forked worker → executor stages) can be
reassembled offline into one waterfall.

Clock model
-----------

``time.perf_counter`` is monotonic but **per-process**; wall clock is
comparable across the service's processes (they share a machine) but
not monotonic.  Every span therefore records both: ``start_unix``
(wall clock, used to *align* spans from different processes on one
timeline) and ``duration_ms`` (perf_counter-derived, used to *measure*
each span).  The shard-queue wait — which starts in the front-end and
ends in a worker — is synthesized from two wall-clock stamps and is the
one span whose duration inherits wall-clock jitter.

Context propagation
-------------------

A trace context is a small JSON object ``{"trace_id": ..., "span_id":
...}``: clients may attach one to a request (``"trace"`` field), the
front-end forwards its own (plus ``enqueued_unix``) to the owning
worker inside the request payload, and responses echo
``{"trace_id": ...}`` so a client can find its request in the dumps.
*Within* a process the current span travels in a
:class:`contextvars.ContextVar`, so executor stages find their parent
without threading it through every signature.

:func:`stage` is the one timing scope of the code base: served
requests, CLI runs and library calls all time their phases with it.
It observes ``span.<name>.seconds`` whenever the recorder is on, opens
a child span when the recorder also carries a span layer and a span is
open, and costs one attribute read when the recorder is off.

Tail-based capture
------------------

Keeping every span tree of a service doing thousands of requests per
second would be an unbounded log.  :class:`SpanRecorder` instead makes
a per-trace keep/drop decision when the trace's *local root* span ends:
keep if the root was slow (``threshold_ms``), errored, or belongs to
the rolling top-``top_k`` slowest seen so far; the kept store is
bounded at ``max_traces`` complete trees (evicting the fastest kept
trace first, so retention is slowest-first), pending traces are bounded
too, and every eviction is counted.  The JSONL export ends with a
``span_meta`` trailer carrying the kept/dropped accounting — the same
honesty contract as ``ts_meta`` / ``prov_meta``.

Each process decides on *its* local root (front-end: the request span;
worker: the work span; loadgen: the client-side request span) with the
same policy, so a globally slow request is captured by every process it
touched and its cross-process tree survives the merge.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import recorder as _obs
from repro.obs.metrics import TIME_BUCKETS_S

#: Root spans at/above this duration are always kept.
DEFAULT_THRESHOLD_MS = 50.0
#: Rolling top-k slowest roots kept even below the threshold.
DEFAULT_TOP_K = 5
#: Hard bound on retained complete span trees.
DEFAULT_MAX_TRACES = 64
#: Hard bound on spans within one trace (defensive; a request path is
#: ~10 spans, a loop emitting thousands is a bug we refuse to OOM on).
DEFAULT_MAX_SPANS_PER_TRACE = 512

#: The in-process current span (asyncio-task- and thread-local).
_CURRENT: ContextVar[Optional["ActiveSpan"]] = ContextVar(
    "repro_current_span", default=None)


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return uuid.uuid4().hex[:16]


class ActiveSpan:
    """One open span.  Create via :meth:`SpanRecorder.start`.

    Usable as a context manager (ends with ``ok`` / ``error`` and
    scopes the contextvar), or driven manually with
    :meth:`annotate` / :meth:`end` when the span outlives one scope
    (the front-end's request span ends in a different task than the
    one that started it).
    """

    __slots__ = ("recorder", "name", "trace_id", "span_id", "parent_id",
                 "attrs", "start_unix", "_start_perf", "status",
                 "duration_ms", "_token")

    def __init__(self, recorder: "SpanRecorder", name: str, trace_id: str,
                 span_id: str, parent_id: Optional[str],
                 attrs: Optional[Dict] = None):
        self.recorder = recorder
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs: Dict = dict(attrs) if attrs else {}
        self.start_unix = time.time()
        self._start_perf = time.perf_counter()
        self.status: Optional[str] = None
        self.duration_ms: Optional[float] = None
        self._token = None

    def annotate(self, **attrs) -> "ActiveSpan":
        """Attach structured attributes (merged into ``attrs``)."""
        self.attrs.update(attrs)
        return self

    def end(self, status: str = "ok") -> float:
        """Close the span; idempotent.  Returns the duration in ms."""
        if self.duration_ms is None:
            self.duration_ms = (time.perf_counter() - self._start_perf) \
                * 1e3
            self.status = status
            self.recorder._finish(self)
        return self.duration_ms

    # -- context-manager protocol (sets the contextvar) ------------------

    def __enter__(self) -> "ActiveSpan":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self.end("error" if exc_type is not None else "ok")

    def to_record(self) -> Dict:
        """The JSONL wire form of the (finished) span."""
        record: Dict = {"kind": "span", "trace": self.trace_id,
                        "span": self.span_id, "parent": self.parent_id,
                        "name": self.name,
                        "process": self.recorder.process,
                        "start_unix": round(self.start_unix, 6),
                        "duration_ms": round(self.duration_ms or 0.0, 4),
                        "status": self.status or "open"}
        if self.attrs:
            record["attrs"] = self.attrs
        return record


@contextmanager
def activate(span: Optional[ActiveSpan]):
    """Make ``span`` the current span for the ``with`` body.

    Unlike using the span as a context manager directly, this does NOT
    end the span on exit — the caller owns its lifetime (the worker
    ends its work span only after building the response).  ``None``
    yields a no-op scope.
    """
    if span is None:
        yield None
        return
    token = _CURRENT.set(span)
    try:
        yield span
    finally:
        _CURRENT.reset(token)


#: What :func:`stage` returns while the recorder is off.
_OFF = nullcontext()


def stage(name: str, **attrs):
    """Time one named stage; the code base's only timing scope.

    Used as ``with stage("compile") as span:``.  With the recorder off
    it records nothing and ``span`` is None.  With the recorder on it
    observes the stage's duration once into the ``span.<name>.seconds``
    histogram.  When the recorder also carries a span layer and a span
    is open (a served request's work span), the stage is recorded as a
    child span of it, is current for the body, closes with ``ok`` /
    ``error``, and ``span`` is that :class:`ActiveSpan` (annotate it
    with cache verdicts etc.); otherwise ``span`` is None.
    """
    if not _obs.ENABLED:
        return _OFF
    return _recorded_stage(_obs.RECORDER, name, attrs)


@contextmanager
def _recorded_stage(recorder, name: str, attrs: Dict):
    parent = _CURRENT.get()
    if recorder.spans is None or parent is None:
        start = time.perf_counter()
        try:
            yield None
        finally:
            recorder.observe(f"span.{name}.seconds",
                             time.perf_counter() - start, TIME_BUCKETS_S)
        return
    # The span observes the histogram itself when it ends.
    span = recorder.spans.start(name, trace_id=parent.trace_id,
                                parent_id=parent.span_id, attrs=attrs)
    token = _CURRENT.set(span)
    try:
        yield span
    except BaseException:
        span.end("error")
        raise
    else:
        span.end("ok")
    finally:
        _CURRENT.reset(token)


def wire_context(span: ActiveSpan) -> Dict:
    """The trace context to put on an outgoing request."""
    return {"trace_id": span.trace_id, "span_id": span.span_id}


class SpanRecorder:
    """Collects spans per trace and keeps only tail exemplars.

    Attach to a live :class:`repro.obs.recorder.Recorder` via its
    ``spans`` argument; the recorder then binds this instance to its
    registry so every finished span also observes a
    ``span.<name>.seconds`` histogram (the per-stage latency surface
    OpenMetrics exports).

    Args:
        threshold_ms: Root duration at/above which a trace is kept.
        top_k: Rolling top-k slowest roots kept below the threshold.
        max_traces: Bound on retained complete traces (fastest evicted).
        max_spans_per_trace: Bound on spans per pending trace.
        process: Process label stamped on every span (``front`` /
            ``worker-0`` / ``loadgen``).
    """

    def __init__(self, threshold_ms: float = DEFAULT_THRESHOLD_MS,
                 top_k: int = DEFAULT_TOP_K,
                 max_traces: int = DEFAULT_MAX_TRACES,
                 max_spans_per_trace: int = DEFAULT_MAX_SPANS_PER_TRACE,
                 process: str = ""):
        if threshold_ms < 0 or top_k < 0:
            raise ValueError("threshold_ms and top_k must be >= 0")
        if max_traces < 1 or max_spans_per_trace < 1:
            raise ValueError("max_traces and max_spans_per_trace must "
                             "be positive")
        self.threshold_ms = threshold_ms
        self.top_k = top_k
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        #: Pending traces bound: beyond it the *oldest* open trace is
        #: dropped (a trace nobody closes is a leak, not an exemplar).
        self.max_pending = max(max_traces, 4 * max_traces)
        self.process = process
        self._pending: Dict[str, List[Dict]] = {}
        self._kept: Dict[str, Tuple[float, List[Dict]]] = {}
        self.dropped_traces = 0
        self.dropped_spans = 0
        self.closed_traces = 0
        self._seq = 0
        self._registry = None

    # -- recorder wiring -------------------------------------------------

    def bind(self, registry) -> None:
        """Attach the metrics registry finished spans feed into."""
        self._registry = registry

    # -- span creation ---------------------------------------------------

    def _next_span_id(self) -> str:
        self._seq += 1
        return f"{uuid.uuid4().hex[:8]}-{self._seq:x}"

    def start(self, name: str, trace_id: Optional[str] = None,
              parent_id: Optional[str] = None,
              attrs: Optional[Dict] = None) -> ActiveSpan:
        """Open a span (a fresh trace when ``trace_id`` is None)."""
        return ActiveSpan(self, name,
                          trace_id if trace_id else new_trace_id(),
                          self._next_span_id(), parent_id or None, attrs)

    def record(self, name: str, *, trace_id: str,
               parent_id: Optional[str], start_unix: float,
               duration_ms: float, status: str = "ok",
               attrs: Optional[Dict] = None) -> str:
        """Add an already-measured span (the synthesized queue wait)."""
        span_id = self._next_span_id()
        record: Dict = {"kind": "span", "trace": trace_id,
                        "span": span_id, "parent": parent_id,
                        "name": name, "process": self.process,
                        "start_unix": round(start_unix, 6),
                        "duration_ms": round(duration_ms, 4),
                        "status": status}
        if attrs:
            record["attrs"] = dict(attrs)
        self._add(trace_id, record)
        self._observe(name, duration_ms)
        return span_id

    # -- internals -------------------------------------------------------

    def _observe(self, name: str, duration_ms: float) -> None:
        if self._registry is not None:
            self._registry.observe(f"span.{name}.seconds",
                                   duration_ms / 1e3, TIME_BUCKETS_S)

    def _finish(self, span: ActiveSpan) -> None:
        self._add(span.trace_id, span.to_record())
        self._observe(span.name, span.duration_ms or 0.0)

    def _add(self, trace_id: str, record: Dict) -> None:
        spans = self._pending.get(trace_id)
        if spans is None:
            while len(self._pending) >= self.max_pending:
                stale_id = next(iter(self._pending))
                stale = self._pending.pop(stale_id)
                self.dropped_traces += 1
                self.dropped_spans += len(stale)
            spans = self._pending[trace_id] = []
        if len(spans) >= self.max_spans_per_trace:
            self.dropped_spans += 1
            return
        spans.append(record)

    # -- trace close / tail decision -------------------------------------

    def close_trace(self, trace_id: str, root_duration_ms: float,
                    error: bool = False) -> bool:
        """Decide the fate of a finished trace; True when kept."""
        spans = self._pending.pop(trace_id, None)
        if spans is None:
            return False
        self.closed_traces += 1
        keep = (error
                or root_duration_ms >= self.threshold_ms
                or any(s.get("status") == "error" for s in spans))
        if not keep and self.top_k:
            if len(self._kept) < self.top_k:
                keep = True
            else:
                floor = min(ms for ms, _ in self._kept.values())
                keep = root_duration_ms > floor
        if not keep:
            self.dropped_traces += 1
            self.dropped_spans += len(spans)
            return False
        self._kept[trace_id] = (root_duration_ms, spans)
        while len(self._kept) > self.max_traces:
            fastest = min(self._kept, key=lambda t: self._kept[t][0])
            _, evicted = self._kept.pop(fastest)
            self.dropped_traces += 1
            self.dropped_spans += len(evicted)
        return True

    # -- read side -------------------------------------------------------

    @property
    def kept_traces(self) -> int:
        """Complete traces currently retained."""
        return len(self._kept)

    @property
    def kept_spans(self) -> int:
        """Spans inside the retained traces."""
        return sum(len(spans) for _, spans in self._kept.values())

    @property
    def in_flight(self) -> int:
        """Open (never-closed) traces still pending."""
        return len(self._pending)

    def slowest(self, n: int = 5) -> List[Tuple[str, float, Dict]]:
        """The ``n`` slowest kept traces: (trace_id, root_ms, root span).

        The root span is the retained span without a parent in its own
        trace (falling back to the longest span for partial trees).
        """
        ranked = sorted(self._kept.items(), key=lambda item: -item[1][0])
        out = []
        for trace_id, (root_ms, spans) in ranked[:n]:
            ids = {s["span"] for s in spans}
            roots = [s for s in spans
                     if not s.get("parent") or s["parent"] not in ids]
            root = roots[0] if roots else \
                max(spans, key=lambda s: s.get("duration_ms", 0.0))
            out.append((trace_id, root_ms, root))
        return out

    def meta(self) -> Dict:
        """The ``span_meta`` trailer record."""
        return {"kind": "span_meta", "process": self.process,
                "kept_traces": self.kept_traces,
                "kept_spans": self.kept_spans,
                "dropped_traces": self.dropped_traces,
                "dropped_spans": self.dropped_spans,
                "closed_traces": self.closed_traces,
                "in_flight": self.in_flight,
                "threshold_ms": self.threshold_ms,
                "top_k": self.top_k, "max_traces": self.max_traces}

    def to_records(self) -> List[Dict]:
        """All kept spans plus the ``span_meta`` trailer."""
        records: List[Dict] = []
        for _, (_, spans) in sorted(self._kept.items(),
                                    key=lambda item: -item[1][0]):
            records.extend(spans)
        records.append(self.meta())
        return records

    def export_jsonl(self, path) -> int:
        """Write kept spans as JSONL (trailer included, not counted).

        Returns:
            The number of span records written.
        """
        from repro.io import save_jsonl

        return save_jsonl(self.to_records(), path) - 1


# ----------------------------------------------------------------------
# Offline side: load dumps, rebuild trees, render waterfalls
# ----------------------------------------------------------------------

def load_span_records(paths: Sequence[str]) -> Tuple[List[Dict],
                                                     List[Dict]]:
    """Read span dumps; returns ``(span_records, span_meta_trailers)``.

    Raises:
        OSError / ValueError: Unreadable or malformed input (the CLI
            maps these to exit code 2).
    """
    from repro.io import load_jsonl

    spans: List[Dict] = []
    metas: List[Dict] = []
    for path in paths:
        for record in load_jsonl(path):
            if not isinstance(record, dict):
                raise ValueError(f"{path}: span record is not an object")
            kind = record.get("kind")
            if kind == "span":
                spans.append(record)
            elif kind == "span_meta":
                metas.append(record)
            # Foreign kinds (a combined dump) are ignored, not errors.
    return spans, metas


def build_traces(records: Iterable[Dict]) -> List[Dict]:
    """Group span records into per-trace trees, slowest first.

    Each trace dict carries ``trace_id``, ``spans`` (all records),
    ``roots`` (spans whose parent is absent from the trace — the
    front-end request span in a full merge, or a process-local root in
    a partial dump), ``duration_ms`` (max root duration), ``processes``
    and ``start_unix``.
    """
    by_trace: Dict[str, List[Dict]] = {}
    for record in records:
        trace_id = record.get("trace")
        if trace_id:
            by_trace.setdefault(trace_id, []).append(record)
    traces: List[Dict] = []
    for trace_id, spans in by_trace.items():
        ids = {span["span"] for span in spans}
        roots = [span for span in spans
                 if not span.get("parent") or span["parent"] not in ids]
        if not roots:  # cycle or truncation: degrade, don't crash
            roots = [max(spans,
                         key=lambda s: s.get("duration_ms", 0.0))]
        duration = max(root.get("duration_ms", 0.0) for root in roots)
        traces.append({
            "trace_id": trace_id,
            "spans": spans,
            "roots": sorted(roots,
                            key=lambda s: s.get("start_unix", 0.0)),
            "duration_ms": duration,
            "processes": sorted({span.get("process", "?")
                                 for span in spans}),
            "start_unix": min(span.get("start_unix", 0.0)
                              for span in spans),
        })
    traces.sort(key=lambda t: -t["duration_ms"])
    return traces


def render_waterfall(trace: Dict, width: int = 48) -> List[str]:
    """ASCII waterfall of one trace, parent→child indented, time→right.

    Bars are positioned on the merged wall-clock timeline (t0 = the
    earliest span start) and sized by each span's measured duration.
    """
    spans = trace["spans"]
    t0 = trace["start_unix"]
    total_ms = max((span.get("start_unix", t0) - t0) * 1e3
                   + span.get("duration_ms", 0.0)
                   for span in spans)
    total_ms = max(total_ms, 1e-6)
    children: Dict[Optional[str], List[Dict]] = {}
    ids = {span["span"] for span in spans}
    for span in spans:
        parent = span.get("parent")
        key = parent if parent in ids else None
        children.setdefault(key, []).append(span)
    for group in children.values():
        group.sort(key=lambda s: (s.get("start_unix", 0.0), s["span"]))

    lines = [f"trace {trace['trace_id']}  "
             f"{trace['duration_ms']:.2f} ms  "
             f"{len(spans)} span(s)  "
             f"[{', '.join(trace['processes'])}]"]

    def emit(span: Dict, depth: int) -> None:
        start_ms = (span.get("start_unix", t0) - t0) * 1e3
        duration = span.get("duration_ms", 0.0)
        left = int(round(start_ms / total_ms * width))
        size = max(1, int(round(duration / total_ms * width)))
        left = min(left, width - 1)
        size = min(size, width - left)
        bar = " " * left + "#" * size + " " * (width - left - size)
        label = "  " * depth + span.get("name", "?")
        mark = "" if span.get("status") == "ok" else \
            f" !{span.get('status')}"
        attrs = span.get("attrs") or {}
        note = ""
        if "verdict" in attrs:
            note = f" ({attrs['verdict']})"
        lines.append(f"  {label:<24.24} {span.get('process', '?'):<9.9} "
                     f"{duration:>9.2f} ms |{bar}|{note}{mark}")
        for child in children.get(span["span"], []):
            emit(child, depth + 1)

    for root in trace["roots"]:
        emit(root, 0)
    return lines


def format_trace_show(paths: Sequence[str], limit: int = 5,
                      trace_prefix: Optional[str] = None,
                      width: int = 48) -> str:
    """The ``repro trace show`` rendering: slowest traces first."""
    spans, metas = load_span_records(paths)
    traces = build_traces(spans)
    if trace_prefix:
        traces = [trace for trace in traces
                  if trace["trace_id"].startswith(trace_prefix)]
    shown = traces[:limit] if limit and limit > 0 else traces
    lines: List[str] = [f"spans: {len(spans)} span(s) in "
                        f"{len(traces)} trace(s) from "
                        f"{len(paths)} file(s)"]
    for meta in sorted(metas, key=lambda m: m.get("process", "")):
        lines.append(
            f"  {meta.get('process', '?'):<9} kept "
            f"{meta.get('kept_traces', 0)} trace(s) / "
            f"{meta.get('kept_spans', 0)} span(s), dropped "
            f"{meta.get('dropped_traces', 0)} trace(s) / "
            f"{meta.get('dropped_spans', 0)} span(s) "
            f"(threshold {meta.get('threshold_ms')} ms, "
            f"top-k {meta.get('top_k')})")
    for trace in shown:
        lines.append("")
        lines.extend(render_waterfall(trace, width=width))
    hidden = len(traces) - len(shown)
    if hidden > 0:
        lines.append("")
        lines.append(f"  ... {hidden} faster trace(s) not shown "
                     f"(--limit)")
    return "\n".join(lines)
