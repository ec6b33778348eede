"""The process-wide recorder: every recording layer behind one flag.

Hot paths are instrumented with the idiom::

    from repro.obs import recorder as _obs
    ...
    if _obs.ENABLED:
        _obs.RECORDER.count("scheduler.placements")

``ENABLED`` is a module-level boolean, so the disabled cost of an
instrumentation site is a single attribute read — no isinstance checks,
no method dispatch into a null object.  ``RECORDER`` is only consulted
after the flag passes, and defaults to a :class:`NullRecorder` so code
that skips the flag check (cold paths, tests) still can't crash.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs.metrics import MetricsRegistry, SMALL_INT_BUCKETS


class Recorder:
    """Bundles a :class:`MetricsRegistry` with the optional layers.

    ``provenance`` optionally attaches a
    :class:`repro.obs.provenance.ProvenanceRecorder`; it defaults to
    None (decision provenance is opt-in on top of an enabled recorder,
    and this module must not import :mod:`repro.obs.provenance` — core
    modules import this one at load time and provenance reaches back
    into core).  ``timeseries`` optionally attaches a
    :class:`repro.obs.timeseries.TimeSeriesStore` under the same
    contract, and ``spans`` a :class:`repro.obs.spans.SpanRecorder`
    (bound here to the registry so finished spans observe
    ``span.<name>.seconds`` histograms).  Instrumentation sites check
    ``ENABLED`` first, then ``RECORDER.provenance is not None`` /
    ``RECORDER.timeseries is not None`` / ``RECORDER.spans is not
    None``.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 provenance=None, timeseries=None, spans=None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.provenance = provenance
        self.timeseries = timeseries
        self.spans = spans
        if spans is not None:
            spans.bind(self.registry)

    def sample(self, name: str, t: float, value: float) -> None:
        """Append one time-series sample (no-op without a store)."""
        if self.timeseries is not None:
            self.timeseries.record(name, t, value)

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name``."""
        self.registry.inc(name, amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name``."""
        self.registry.set_gauge(name, value)

    def observe(self, name: str, value: float,
                buckets=SMALL_INT_BUCKETS) -> None:
        """Record ``value`` into histogram ``name``."""
        self.registry.observe(name, value, buckets)

    def snapshot(self) -> Dict:
        """JSON-serializable metrics snapshot."""
        return self.registry.snapshot()


class NullRecorder:
    """Recorder with every write a no-op (the disabled default)."""

    #: An empty registry so reads don't need guards either.
    def __init__(self):
        self.registry = MetricsRegistry()
        self.provenance = None
        self.timeseries = None
        self.spans = None

    def sample(self, name: str, t: float, value: float) -> None:
        """Discard."""

    def count(self, name: str, amount: float = 1.0) -> None:
        """Discard."""

    def set_gauge(self, name: str, value: float) -> None:
        """Discard."""

    def observe(self, name: str, value: float,
                buckets=SMALL_INT_BUCKETS) -> None:
        """Discard."""

    def snapshot(self) -> Dict:
        """An empty snapshot."""
        return self.registry.snapshot()


#: Module-level fast-path flag.  Instrumentation sites read this (and
#: nothing else) before touching :data:`RECORDER`.
ENABLED: bool = False

#: The process-wide recorder.  A NullRecorder whenever ``ENABLED`` is
#: False, so unguarded writes stay harmless.
RECORDER = NullRecorder()


def enable(recorder: Optional[Recorder] = None) -> Recorder:
    """Turn observability on, installing (or creating) a live recorder.

    Returns:
        The installed :class:`Recorder`.
    """
    global ENABLED, RECORDER
    RECORDER = recorder if recorder is not None else Recorder()
    ENABLED = True
    return RECORDER


def is_enabled() -> bool:
    """Whether a live recorder is installed."""
    return ENABLED


@contextmanager
def recording(recorder: Optional[Recorder] = None) -> Iterator[Recorder]:
    """Scope observability to a ``with`` block, restoring prior state.

    The primary entry point for tests and library callers::

        with obs.recording() as rec:
            scheduler.run(flow_set)
        snapshot = rec.snapshot()
    """
    global ENABLED, RECORDER
    previous = (ENABLED, RECORDER)
    installed = enable(recorder)
    try:
        yield installed
    finally:
        ENABLED, RECORDER = previous
