"""One recording session: the five artifact layers behind one scope.

A run records when it is given at least one artifact path: ``--trace``
(event ring), ``--metrics-out`` (registry snapshot), ``--provenance``
(placement decisions), ``--timeseries`` (windowed series) or
``--spans`` (request spans, ``repro serve`` only).
:func:`recording_session` installs a :class:`~repro.obs.recorder.Recorder`
carrying exactly the requested layers, and only then: a run given no
path keeps the disabled fast paths.  In ``finally`` it exports every
layer and restores the previous recorder state, so a failed run leaves
the same artifacts as a successful one.

The CLI opens one session per command; each ``repro serve`` worker
opens its own with its index and exports to the same paths plus a
``.w<index>`` suffix (:func:`worker_path`), so N workers never fight
over one file.  :func:`expand_paths` is the read side: a base path plus
its ``.w<N>`` siblings, which ``repro report`` and ``repro trace show``
fold into one view.
"""

from __future__ import annotations

import glob
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.obs.recorder import Recorder, recording
from repro.obs.spans import DEFAULT_THRESHOLD_MS, SpanRecorder
from repro.obs.timeseries import TimeSeriesStore


@dataclass(frozen=True)
class RecordingPaths:
    """Where each recording layer exports; ``None`` leaves it off.

    Picklable, so ``repro serve`` hands it to its forked workers as is.

    Attributes:
        trace: Event trace ring (JSONL, ``trace_meta`` trailer).
        metrics: Metrics snapshot (JSON).
        provenance: Per-placement decision records (JSONL).
        timeseries: Windowed series (JSONL) for ``repro top``.
        spans: Request spans with tail-based capture (JSONL).
        span_threshold_ms: Root-span latency at/above which a trace is
            kept (see :class:`~repro.obs.spans.SpanRecorder`).
    """

    trace: Optional[str] = None
    metrics: Optional[str] = None
    provenance: Optional[str] = None
    timeseries: Optional[str] = None
    spans: Optional[str] = None
    span_threshold_ms: float = DEFAULT_THRESHOLD_MS

    def outputs(self) -> List[str]:
        """The paths that are set, in layer order."""
        return [path for path in (self.trace, self.metrics,
                                  self.provenance, self.timeseries,
                                  self.spans) if path]


def worker_path(path: str, index: int) -> str:
    """Serve worker ``index``'s sibling of an artifact path."""
    return f"{path}.w{index}"


def expand_paths(path: str) -> List[str]:
    """``path`` (when it exists) plus its ``.w<N>`` siblings, sorted."""
    paths = [path] if os.path.exists(path) else []
    siblings = [p for p in glob.glob(f"{path}.w*")
                if re.fullmatch(r".*\.w\d+", p)]
    return paths + sorted(siblings)


@contextmanager
def recording_session(
        paths: RecordingPaths, index: Optional[int] = None,
        snapshot: Optional[Callable[[Recorder], Dict]] = None,
        echo: Optional[Callable[[str], None]] = None,
) -> Iterator[Optional[Recorder]]:
    """Record the ``with`` body into the layers ``paths`` asks for.

    Yields the installed recorder, or None (installing nothing) when no
    path is set.

    Args:
        paths: The layers to record and where to export them.
        index: A serve worker's index: exports go to
            ``<path>.w<index>`` and spans are stamped ``worker-<index>``
            (``front`` without one).
        snapshot: Builds the metrics export from the recorder (default
            :meth:`Recorder.snapshot`); serve workers merge their
            executor's service counters in.
        echo: Called with one summary line per exported layer.
    """
    if not paths.outputs():
        yield None
        return
    provenance = None
    if paths.provenance:
        from repro.obs.provenance import ProvenanceRecorder

        provenance = ProvenanceRecorder()
    spans = None
    if paths.spans:
        spans = SpanRecorder(
            threshold_ms=paths.span_threshold_ms,
            process="front" if index is None else f"worker-{index}")
    recorder = Recorder(
        provenance=provenance, spans=spans,
        timeseries=TimeSeriesStore() if paths.timeseries else None)
    with recording(recorder):
        try:
            yield recorder
        finally:
            _export(recorder, paths, index, snapshot or Recorder.snapshot,
                    echo or (lambda line: None))


def _export(recorder: Recorder, paths: RecordingPaths,
            index: Optional[int], snapshot: Callable[[Recorder], Dict],
            echo: Callable[[str], None]) -> None:
    """Write every requested layer to its (worker-suffixed) path, then
    echo one line per layer (a closed stdout cannot cost an export)."""
    def target(path: str) -> str:
        return path if index is None else worker_path(path, index)

    notes = []
    if paths.trace:
        path = target(paths.trace)
        written = recorder.tracer.export_jsonl(path)
        dropped = recorder.tracer.dropped
        notes.append(f"trace: {written} events -> {path}"
                     + (f" ({dropped} older events dropped)"
                        if dropped else ""))
    if paths.metrics:
        from repro.io import save_metrics

        path = target(paths.metrics)
        save_metrics(snapshot(recorder), path)
        notes.append(f"metrics: snapshot -> {path}")
    if paths.provenance:
        prov = recorder.provenance
        path = target(paths.provenance)
        written = prov.export_jsonl(path)
        notes.append(f"provenance: {written} decisions -> {path}"
                     + (f" ({prov.dropped} older decisions dropped)"
                        if prov.dropped else ""))
    if paths.timeseries:
        path = target(paths.timeseries)
        written = recorder.timeseries.export_jsonl(path)
        notes.append(f"timeseries: {written} series -> {path}")
    if paths.spans:
        path = target(paths.spans)
        written = recorder.spans.export_jsonl(path)
        notes.append(f"spans: {written} span(s) across "
                     f"{recorder.spans.kept_traces} trace(s) -> {path}")
    for line in notes:
        echo(line)
