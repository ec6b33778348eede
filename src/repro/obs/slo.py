"""Per-flow SLO tracking with multi-window burn-rate alerting.

The paper's guarantees are per-flow: every instance of a periodic flow
must be delivered by its deadline.  The simulator reports that as a
packet delivery ratio (PDR, delivered/released within the hyperperiod
deadline), so a flow's *deadline-miss ratio* is ``1 - pdr``.  An SLO
declares a floor on PDR (``target_pdr``); the remaining headroom,
``1 - target_pdr``, is the flow's **error budget**.

Rather than alerting the instant one epoch dips below target (noisy on
lossy wireless links) or only after a long average drifts (too late for
a real-time network), the engine uses the SRE multi-window burn-rate
construction: for each flow it keeps windowed deadline-miss ratios over
a *fast* and a *slow* epoch window and computes

    ``burn = windowed_miss_ratio / error_budget``

A burn of 1.0 means the flow is consuming budget exactly at the rate
the SLO allows; 2.0 means twice that.  The alert state is:

========  ====================================================
state     condition
========  ====================================================
``ok``    neither window burns at ``burn_threshold`` or above
``warn``  fast window burns hot but the slow window does not
          (a spike — maybe transient interference)
``alert`` both windows burn hot (sustained budget exhaustion —
          the early-warning signal the manager's policies read)
========  ====================================================

Windows are packet-weighted (summed misses over summed releases), so a
light epoch cannot swamp a heavy one.  Each epoch's states are
returned to the caller (the manager keeps them on its
``EpochOutcome``); a *transition* into ``alert`` / ``warn`` also bumps
the ``slo.alerts`` / ``slo.warns`` counters through the recorder idiom,
and steady states stay quiet.

The engine is deliberately detector-agnostic: it consumes the same
per-epoch ``flow_released`` / ``flow_delivered`` tallies the manager
already collects, and its alert state rides into
:class:`repro.manager.policies.Observation` *alongside* the K-S
verdicts — burn rates say "this flow is dying", K-S says "this link is
why".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs import recorder as _obs

#: Alert states, in increasing severity.
STATE_OK = "ok"
STATE_WARN = "warn"
STATE_ALERT = "alert"

_SEVERITY = {STATE_OK: 0, STATE_WARN: 1, STATE_ALERT: 2}


@dataclass(frozen=True)
class SloConfig:
    """Declared per-flow objective and burn-rate evaluation windows.

    Attributes:
        target_pdr: PDR floor every flow must hold (error budget is
            ``1 - target_pdr``).
        fast_window: Epochs in the fast (spike-sensitive) window.
        slow_window: Epochs in the slow (sustained) window.
        burn_threshold: Burn rate at/above which a window is "hot".
    """

    target_pdr: float = 0.9
    fast_window: int = 5
    slow_window: int = 30
    burn_threshold: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.target_pdr < 1.0:
            raise ValueError("target_pdr must be in (0, 1)")
        if self.fast_window < 1:
            raise ValueError("fast_window must be positive")
        if self.slow_window < self.fast_window:
            raise ValueError("slow_window must be >= fast_window")
        if self.burn_threshold <= 0.0:
            raise ValueError("burn_threshold must be positive")

    @property
    def error_budget(self) -> float:
        """Allowed deadline-miss ratio, ``1 - target_pdr``."""
        return 1.0 - self.target_pdr

    def to_dict(self) -> Dict:
        """JSON-serializable form."""
        return {
            "target_pdr": self.target_pdr,
            "fast_window": self.fast_window,
            "slow_window": self.slow_window,
            "burn_threshold": self.burn_threshold,
        }


@dataclass(frozen=True)
class FlowSloState:
    """One flow's SLO standing after an epoch.

    Attributes:
        flow_id: The flow.
        epoch: Epoch index this state was computed at.
        pdr: This epoch's PDR (1.0 when nothing was released).
        burn_fast: Burn rate over the fast window.
        burn_slow: Burn rate over the slow window.
        state: ``ok`` / ``warn`` / ``alert``.
        epochs_observed: Epochs of history behind the windows (burn
            rates over very short history are tentative).
    """

    flow_id: int
    epoch: int
    pdr: float
    burn_fast: float
    burn_slow: float
    state: str
    epochs_observed: int

    def to_dict(self) -> Dict:
        """Flatten to one JSON record."""
        return {
            "flow_id": self.flow_id,
            "epoch": self.epoch,
            "pdr": self.pdr,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
            "state": self.state,
            "epochs_observed": self.epochs_observed,
        }


class _FlowWindow:
    """Per-flow ring of ``(released, missed)`` epoch tallies."""

    __slots__ = ("tallies", "epochs_observed")

    def __init__(self, slow_window: int):
        self.tallies: Deque[Tuple[int, int]] = deque(maxlen=slow_window)
        self.epochs_observed = 0

    def push(self, released: int, missed: int) -> None:
        self.tallies.append((released, missed))
        self.epochs_observed += 1

    def miss_ratio(self, window: int) -> float:
        """Packet-weighted miss ratio over the last ``window`` epochs."""
        tail = list(self.tallies)[-window:]
        released = sum(r for r, _ in tail)
        if released == 0:
            return 0.0
        return sum(m for _, m in tail) / released


class SloEngine:
    """Tracks every flow's burn rates and alert state across epochs.

    Feed it one epoch at a time via :meth:`observe_epoch`; it keeps the
    windows, computes burn rates, counts alert / warn transitions, and
    (when a recorder time-series store is attached) records
    ``{prefix}slo.flow.<id>.pdr`` / ``.burn_fast`` / ``.burn_slow``
    series.

    Args:
        config: Objective and window declaration.
        series_prefix: Prepended to recorded series names so concurrent
            engines (e.g. the adaptation study's per-policy managers)
            don't collide in one store.
    """

    def __init__(self, config: Optional[SloConfig] = None,
                 series_prefix: str = ""):
        self.config = config if config is not None else SloConfig()
        self.series_prefix = series_prefix
        self._windows: Dict[int, _FlowWindow] = {}
        self._states: Dict[int, str] = {}

    def observe_epoch(self, epoch: int,
                      flow_released: Dict[int, int],
                      flow_delivered: Dict[int, int],
                      ) -> List[FlowSloState]:
        """Fold one epoch's per-flow tallies in; return per-flow states.

        Args:
            epoch: Epoch index (becomes the series' ``t``).
            flow_released: ``{flow_id: packets released}`` this epoch.
            flow_delivered: ``{flow_id: packets delivered by deadline}``.

        Returns:
            One :class:`FlowSloState` per flow seen this epoch, sorted
            by flow id.
        """
        config = self.config
        budget = config.error_budget
        states: List[FlowSloState] = []
        for flow_id in sorted(flow_released):
            released = flow_released[flow_id]
            delivered = flow_delivered.get(flow_id, 0)
            missed = max(0, released - delivered)
            window = self._windows.get(flow_id)
            if window is None:
                window = self._windows[flow_id] = _FlowWindow(
                    config.slow_window)
            window.push(released, missed)

            burn_fast = window.miss_ratio(config.fast_window) / budget
            burn_slow = window.miss_ratio(config.slow_window) / budget
            if (burn_fast >= config.burn_threshold
                    and burn_slow >= config.burn_threshold):
                state = STATE_ALERT
            elif burn_fast >= config.burn_threshold:
                state = STATE_WARN
            else:
                state = STATE_OK

            pdr = 1.0 if released == 0 else delivered / released
            flow_state = FlowSloState(
                flow_id=flow_id, epoch=epoch, pdr=pdr,
                burn_fast=burn_fast, burn_slow=burn_slow, state=state,
                epochs_observed=window.epochs_observed)
            states.append(flow_state)
            self._note_transition(flow_state)
            self._record_series(flow_state)
        return states

    def _note_transition(self, state: FlowSloState) -> None:
        """Count a flow's entry into ``alert`` / ``warn``."""
        previous = self._states.get(state.flow_id, STATE_OK)
        self._states[state.flow_id] = state.state
        if state.state == previous or not _obs.ENABLED:
            return
        if state.state == STATE_ALERT:
            _obs.RECORDER.count("slo.alerts")
        elif state.state == STATE_WARN:
            _obs.RECORDER.count("slo.warns")

    def _record_series(self, state: FlowSloState) -> None:
        if not _obs.ENABLED:
            return
        prefix = f"{self.series_prefix}slo.flow.{state.flow_id}."
        _obs.RECORDER.sample(prefix + "pdr", state.epoch, state.pdr)
        _obs.RECORDER.sample(prefix + "burn_fast", state.epoch,
                             state.burn_fast)
        _obs.RECORDER.sample(prefix + "burn_slow", state.epoch,
                             state.burn_slow)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def state_of(self, flow_id: int) -> str:
        """A flow's current alert state (``ok`` when never observed)."""
        return self._states.get(flow_id, STATE_OK)

    def flows_in_state(self, state: str) -> List[int]:
        """Sorted flow ids currently in ``state``."""
        return sorted(f for f, s in self._states.items() if s == state)

    def alerting_flows(self) -> List[int]:
        """Sorted flow ids currently in ``alert``."""
        return self.flows_in_state(STATE_ALERT)

    def warning_flows(self) -> List[int]:
        """Sorted flow ids currently in ``warn``."""
        return self.flows_in_state(STATE_WARN)

    def worst_state(self) -> str:
        """The most severe state any flow currently holds."""
        if not self._states:
            return STATE_OK
        return max(self._states.values(), key=_SEVERITY.__getitem__)


def severity(state: str) -> int:
    """Numeric severity of an alert state (``ok``=0 … ``alert``=2)."""
    return _SEVERITY[state]
