"""Structured trace events in a bounded ring buffer.

Instrumentation sites emit *typed* events — a short ``kind`` string from
the taxonomy below plus flat JSON-serializable fields — rather than
formatted log lines, so traces can be filtered and aggregated
programmatically.  The buffer is a fixed-capacity ring: tracing a long
sweep keeps the most recent events and counts what it dropped instead of
growing without bound.

Event taxonomy (kinds emitted by the instrumented stack):

========================  ==============================================
kind                      emitted by / meaning
========================  ==============================================
``placement``             scheduler engine — a transmission was placed
``flow_admitted``         scheduler engine — every instance of a flow fit
``flow_rejected``         scheduler engine — first deadline miss
``laxity_eval``           RC — Equation 1 evaluated for a candidate slot
``rc_fallback``           RC — reuse distance ρ lowered one step
``sim_repetition``        simulator — per-repetition link outcomes
``ks_decision``           detection — verdict for one reuse link
``manager_epoch``         network manager — one closed-loop epoch's
                          health verdicts and remediation action
``manager_audit_failed``  network manager — a rebuilt schedule failed
                          its pre-flight audit and was rolled back
``slo_burn``              SLO engine — a flow's burn-rate alert state
                          changed (``ok`` / ``warn`` / ``alert``)
``service_request``       service executor — one handled verb with wall
                          time and cache verdicts
``span``                  :mod:`repro.obs.spans` — a finished
                          request-path span (mirrored into the ring
                          when a recorder carries both layers; the
                          full causal tree lives in the span dump)
``trace_meta``            :meth:`Tracer.export_jsonl` — export trailer
                          accounting for ring evictions (``dropped``,
                          ``capacity``); not an in-ring event
========================  ==============================================
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List

#: Default ring capacity (events).
DEFAULT_CAPACITY = 65536


@dataclass
class TraceEvent:
    """One structured event.

    Attributes:
        seq: Monotonic sequence number (global within the tracer, stable
            across ring overflow — gaps reveal drops).
        kind: Event type from the module taxonomy.
        fields: Flat JSON-serializable payload.
    """

    seq: int
    kind: str
    fields: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """Flatten to one JSONL record."""
        return {"seq": self.seq, "kind": self.kind, **self.fields}


class Tracer:
    """Bounded in-memory event sink.

    Args:
        capacity: Ring size; once full, the oldest events are evicted and
            :attr:`dropped` counts the evictions.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0

    @property
    def capacity(self) -> int:
        """Maximum number of retained events."""
        return self._events.maxlen  # type: ignore[return-value]

    def emit(self, kind: str, **fields) -> None:
        """Append one event, evicting the oldest when full."""
        if len(self._events) == self._events.maxlen:
            self.dropped += 1
        self._events.append(TraceEvent(self._seq, kind, fields))
        self._seq += 1

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[TraceEvent]:
        """Retained events, oldest first."""
        return list(self._events)

    def event_dicts(self) -> List[Dict]:
        """Retained events as JSONL-ready dicts."""
        return [event.to_dict() for event in self._events]

    def kind_counts(self) -> Dict[str, int]:
        """``{kind: count}`` over the retained events."""
        return dict(_TallyCounter(event.kind for event in self._events))

    def clear(self) -> None:
        """Drop all retained events (sequence numbering continues)."""
        self._events.clear()

    def export_jsonl(self, path) -> int:
        """Write the retained events as JSON Lines via :mod:`repro.io`.

        The file ends with a ``trace_meta`` trailer record —
        ``{"kind": "trace_meta", "dropped": N, "capacity": C}`` — so an
        exported trace is honest about ring evictions: without it, a
        trace that silently lost its oldest events is indistinguishable
        from a complete one.  Consumers summarizing by ``kind`` should
        skip the trailer (it is bookkeeping, not an observed event).

        Returns:
            The number of events written (the trailer excluded).
        """
        # Imported lazily: repro.io pulls in the core model, which itself
        # imports repro.obs for instrumentation.
        from repro.io import save_jsonl

        trailer = {"kind": "trace_meta", "dropped": self.dropped,
                   "capacity": self.capacity}
        return save_jsonl(self.event_dicts() + [trailer], path) - 1
