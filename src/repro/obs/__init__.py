"""Observability: metrics, provenance, time series, spans.

A recorded run has four layers: metrics, per-placement decision
provenance, windowed time series and request spans.  The pieces:

* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket
  histograms with JSON snapshot/merge (:mod:`repro.obs.metrics`);
* :class:`ProvenanceRecorder` — one record per placement decision:
  every ``findSlot`` probe, Eq. 1 evaluation and ρ step
  (:mod:`repro.obs.provenance`);
* a process-wide :class:`Recorder` behind a module-level ``ENABLED``
  flag (:mod:`repro.obs.recorder`), so instrumented hot paths cost one
  attribute read when observability is off;
* :func:`stage` — the one timing scope: it observes
  ``span.<name>.seconds`` histograms and, under a served request,
  records causally-linked spans (:mod:`repro.obs.spans`);
* :func:`recording_session` — installs a recorder with exactly the
  layers a run asks for and exports each one, ``.w<N>``-suffixed in
  serve workers, when the run ends (:mod:`repro.obs.session`);
* :class:`TimeSeriesStore` — windowed ``(t, value)`` series with
  bounded retention (:mod:`repro.obs.timeseries`), and on top of it
  :class:`SloEngine` — per-flow multi-window burn-rate alerting
  (:mod:`repro.obs.slo`) exported as OpenMetrics text
  (:mod:`repro.obs.openmetrics`) or an ASCII dashboard
  (:mod:`repro.obs.top`).

Typical library use::

    from repro import obs

    with obs.recording() as rec:
        result = schedule_workload(network, flows, "RC")
    print(obs.format_report(rec.snapshot()))

From the CLI, ``--metrics-out FILE`` / ``--provenance FILE`` /
``--timeseries FILE`` (and ``serve --spans FILE``) open a recording
session for the run, and ``python -m repro report FILE`` renders a
saved snapshot.
"""

from repro.obs.ledger import RunLedger, environment_fingerprint
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SMALL_INT_BUCKETS,
    TIME_BUCKETS_S,
    quantile_from_buckets,
)
from repro.obs.openmetrics import parse_openmetrics, render_openmetrics
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.recorder import (
    NullRecorder,
    Recorder,
    enable,
    is_enabled,
    recording,
)
from repro.obs.report import format_report
from repro.obs.session import RecordingPaths, recording_session
from repro.obs.slo import FlowSloState, SloConfig, SloEngine
from repro.obs.spans import (
    ActiveSpan,
    SpanRecorder,
    activate,
    current_span,
    stage,
    wire_context,
)
from repro.obs.timeseries import DEFAULT_RETENTION, Series, TimeSeriesStore
from repro.obs.top import render_top, sparkline

__all__ = [
    "ActiveSpan",
    "Counter",
    "DEFAULT_RETENTION",
    "FlowSloState",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRecorder",
    "ProvenanceRecorder",
    "Recorder",
    "RecordingPaths",
    "RunLedger",
    "SMALL_INT_BUCKETS",
    "Series",
    "SloConfig",
    "SloEngine",
    "SpanRecorder",
    "TIME_BUCKETS_S",
    "TimeSeriesStore",
    "activate",
    "current_span",
    "enable",
    "environment_fingerprint",
    "format_report",
    "is_enabled",
    "parse_openmetrics",
    "quantile_from_buckets",
    "recording",
    "recording_session",
    "render_openmetrics",
    "render_top",
    "sparkline",
    "stage",
    "wire_context",
]
