"""OpenMetrics / Prometheus text exposition for metrics and series.

The registry's dotted flat names (``scheduler.slots_scanned``) become
Prometheus names under a ``repro_`` prefix with dots mapped to
underscores (``repro_scheduler_slots_scanned_total``).  Counters gain
the conventional ``_total`` suffix; histograms render cumulative
``le``-labeled buckets plus ``+Inf``, ``_sum`` and ``_count``, exactly
as Prometheus expects, so bucket-resolution quantiles computed by a
scraper match :meth:`repro.obs.metrics.Histogram.quantile`.

Time-series stores add *labeled* families: series following the
conventions the manager records —

======================================  ============================
series name                             exposed as
======================================  ============================
``slo.flow.<id>.pdr``                   ``repro_slo_pdr{flow="id"}``
``slo.flow.<id>.burn_fast``             ``repro_slo_burn_fast{...}``
``slo.flow.<id>.burn_slow``             ``repro_slo_burn_slow{...}``
``slo.flow.<id>.state``                 ``repro_slo_state{...}`` (0 ok,
                                        1 warn, 2 alert)
``channel.<ch>.prr``                    ``repro_channel_prr{channel="ch"}``
``flow.<id>.pdr``                       ``repro_flow_pdr{flow="id"}``
anything else                           ``repro_ts_<sanitized>``
======================================  ============================

— each exposing the series' *latest* value as a gauge (the exposition
is a point-in-time scrape surface; history stays in the JSONL dump).
A series prefix (``reschedule/slo.flow...``) becomes a ``run`` label.

Two snapshot-side conventions are lifted into labeled families too:
``span.<stage>.seconds`` histograms (per-stage latency recorded by
:func:`repro.obs.spans.stage`) merge into one
``repro_stage_seconds{stage="..."}``
histogram family, and ``service.cache.<kind>.<verdict>`` counters
(artifact-cache lookups) merge into
``repro_service_cache_lookups_total{kind="...",verdict="..."}`` — so a
dashboard can rate() and histogram_quantile() across stages and cache
kinds without regex-relabeling dotted names.

There is deliberately no HTTP server here: ``repro metrics export
--openmetrics`` writes the exposition to a file or stdout, which the
Prometheus node-exporter textfile collector (or a test) picks up.
:func:`parse_openmetrics` is the strict validator CI runs against the
export — it rejects malformed lines with line numbers rather than
best-effort-parsing them.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

#: Snapshot-side names lifted into labeled families.
_CACHE_COUNTER = re.compile(
    r"^service\.cache\.(?P<kind>[a-z_]+)\.(?P<verdict>hit|miss)$")
_STAGE_HISTOGRAM = re.compile(r"^span\.(?P<stage>[A-Za-z_.]+)\.seconds$")

#: Series-name patterns lifted into labeled families.
_LABELED_SERIES = (
    (re.compile(r"^slo\.flow\.(?P<flow>\d+)\.(?P<field>pdr|burn_fast|burn_slow"
                r"|state)$"),
     "repro_slo_{field}", "flow"),
    (re.compile(r"^flow\.(?P<flow>\d+)\.(?P<field>pdr)$"),
     "repro_flow_{field}", "flow"),
    (re.compile(r"^channel\.(?P<channel>\d+)\.(?P<field>prr)$"),
     "repro_channel_{field}", "channel"),
)


def sanitize_name(name: str) -> str:
    """Map a dotted metric name to a legal Prometheus name."""
    cleaned = _SANITIZE.sub("_", name)
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def _format_value(value: float) -> str:
    """Render a sample value (integral floats without the ``.0``)."""
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


class _Family:
    """One metric family: TYPE header plus its sample lines."""

    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.samples: List[str] = []

    def add(self, value: float, labels: Optional[Dict[str, str]] = None,
            suffix: str = "") -> None:
        label_str = ""
        if labels:
            parts = ",".join(f'{k}="{_escape_label(v)}"'
                             for k, v in sorted(labels.items()))
            label_str = "{" + parts + "}"
        self.samples.append(
            f"{self.name}{suffix}{label_str} {_format_value(value)}")

    def lines(self) -> List[str]:
        out = [f"# HELP {self.name} {self.help}",
               f"# TYPE {self.name} {self.kind}"]
        out.extend(self.samples)
        return out


def _split_series_prefix(name: str) -> Tuple[str, str]:
    """Split an optional ``run/`` prefix off a series name."""
    if "/" in name:
        prefix, rest = name.split("/", 1)
        return prefix, rest
    return "", name


def render_openmetrics(snapshot: Dict, timeseries=None) -> str:
    """Render a metrics snapshot (and optional series) as OpenMetrics.

    Args:
        snapshot: A :meth:`MetricsRegistry.snapshot` dict.
        timeseries: Optional :class:`TimeSeriesStore`; each series'
            latest value is exposed per the module's naming table.

    Returns:
        The exposition text, ``# EOF``-terminated.
    """
    families: Dict[str, _Family] = {}

    def family(name: str, kind: str, help_text: str) -> _Family:
        existing = families.get(name)
        if existing is None:
            existing = families[name] = _Family(name, kind, help_text)
        elif existing.kind != kind:
            raise ValueError(
                f"family {name!r} declared as both {existing.kind} "
                f"and {kind}")
        return existing

    for name, value in snapshot.get("counters", {}).items():
        cache = _CACHE_COUNTER.match(name)
        if cache:
            fam = family("repro_service_cache_lookups_total", "counter",
                         "Artifact-cache lookups by kind and verdict")
            fam.add(float(value), {"kind": cache.group("kind"),
                                   "verdict": cache.group("verdict")})
            continue
        fam = family(f"repro_{sanitize_name(name)}_total", "counter",
                     f"Counter {name}")
        fam.add(float(value))

    for name, value in snapshot.get("gauges", {}).items():
        fam = family(f"repro_{sanitize_name(name)}", "gauge",
                     f"Gauge {name}")
        fam.add(float(value))

    for name, data in snapshot.get("histograms", {}).items():
        stage = _STAGE_HISTOGRAM.match(name)
        if stage:
            fam = family("repro_stage_seconds", "histogram",
                         "Stage latency by stage name")
            labels = {"stage": stage.group("stage")}
        else:
            fam = family(f"repro_{sanitize_name(name)}", "histogram",
                         f"Histogram {name}")
            labels = {}
        cumulative = 0
        for bound, count in zip(data["buckets"], data["counts"]):
            cumulative += int(count)
            fam.add(cumulative,
                    dict(labels, le=_format_value(float(bound))),
                    suffix="_bucket")
        fam.add(int(data["count"]), dict(labels, le="+Inf"),
                suffix="_bucket")
        fam.add(float(data["sum"]), labels or None, suffix="_sum")
        fam.add(int(data["count"]), labels or None, suffix="_count")

    if timeseries is not None:
        for series_name in timeseries.names():
            series = timeseries.get(series_name)
            last = series.last()
            if last is None:
                continue
            _, value = last
            run, bare = _split_series_prefix(series_name)
            labels: Dict[str, str] = {"run": run} if run else {}
            for pattern, template, label_key in _LABELED_SERIES:
                match = pattern.match(bare)
                if match:
                    fam = family(
                        template.format(field=match.group("field")),
                        "gauge",
                        f"Latest sample of {label_key}-labeled series")
                    labels[label_key] = match.group(label_key)
                    fam.add(value, labels)
                    break
            else:
                fam = family(f"repro_ts_{sanitize_name(bare)}", "gauge",
                             f"Latest sample of series {bare}")
                fam.add(value, labels or None)

    lines: List[str] = []
    for name in sorted(families):
        lines.extend(families[name].lines())
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Strict parsing (the CI validation step)
# ----------------------------------------------------------------------

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[^ ]+)"
    r"(?: (?P<timestamp>[0-9.+-eE]+))?$")
_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<val>(?:[^"\\]|\\.)*)"$')
_VALID_KINDS = frozenset(
    {"counter", "gauge", "histogram", "summary", "untyped", "info"})


def _parse_labels(raw: str, lineno: int) -> Dict[str, str]:
    body = raw[1:-1].strip()
    if not body:
        return {}
    labels: Dict[str, str] = {}
    for part in _split_label_parts(body, lineno):
        match = _LABEL.match(part)
        if not match:
            raise ValueError(f"line {lineno}: malformed label {part!r}")
        labels[match.group("key")] = match.group("val")
    return labels


def _split_label_parts(body: str, lineno: int) -> List[str]:
    """Split ``k="v",k2="v2"`` on commas outside quoted values."""
    parts, current, in_quote, escaped = [], [], False, False
    for ch in body:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == '"':
            current.append(ch)
            in_quote = not in_quote
        elif ch == "," and not in_quote:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if in_quote:
        raise ValueError(f"line {lineno}: unterminated label value")
    if current:
        parts.append("".join(current))
    return parts


def _parse_value(raw: str, lineno: int) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"line {lineno}: bad sample value {raw!r}")


def parse_openmetrics(text: str) -> Dict[str, Dict]:
    """Strictly parse an exposition produced by :func:`render_openmetrics`.

    Enforces: a single trailing ``# EOF``; every sample preceded by a
    ``# TYPE`` declaration whose family name prefixes the sample name;
    well-formed labels; parseable values; no duplicate TYPE lines.

    Returns:
        ``{family: {"type": kind, "help": text, "samples":
        [(name, labels, value), ...]}}``.

    Raises:
        ValueError: On any malformed line, with its line number.
    """
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition must end with '# EOF'")
    families: Dict[str, Dict] = {}
    current: Optional[str] = None
    for lineno, line in enumerate(lines[:-1], start=1):
        if line == "# EOF":
            raise ValueError(f"line {lineno}: '# EOF' before end of text")
        if not line:
            raise ValueError(f"line {lineno}: blank line in exposition")
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, help_text = rest.partition(" ")
            if not _NAME_OK.match(name):
                raise ValueError(f"line {lineno}: bad HELP name {name!r}")
            families.setdefault(
                name, {"type": None, "help": None, "samples": []}
            )["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE "):]
            name, _, kind = rest.partition(" ")
            if not _NAME_OK.match(name):
                raise ValueError(f"line {lineno}: bad TYPE name {name!r}")
            if kind not in _VALID_KINDS:
                raise ValueError(
                    f"line {lineno}: unknown metric type {kind!r}")
            entry = families.setdefault(
                name, {"type": None, "help": None, "samples": []})
            if entry["type"] is not None:
                raise ValueError(
                    f"line {lineno}: duplicate TYPE for {name!r}")
            entry["type"] = kind
            current = name
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unrecognized comment {line!r}")
        match = _SAMPLE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        if current is None or not name.startswith(current):
            raise ValueError(
                f"line {lineno}: sample {name!r} outside a TYPE'd family")
        labels = (_parse_labels(match.group("labels"), lineno)
                  if match.group("labels") else {})
        value = _parse_value(match.group("value"), lineno)
        families[current]["samples"].append((name, labels, value))
    for name, entry in families.items():
        if entry["type"] is None:
            raise ValueError(f"family {name!r} has HELP but no TYPE")
        if not entry["samples"]:
            raise ValueError(f"family {name!r} declared but has no samples")
    return families
