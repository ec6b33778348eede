"""Seeded, schedulable fault timelines for the manager runtime.

A :class:`ConditionSchedule` is a declarative list of
:class:`FaultEvent` s — condition mutations active over an epoch window —
that the manager resolves into per-epoch
:class:`~repro.simulator.conditions.Conditions` overlays for the
simulator.  Everything is deterministic: the same (scenario, seed,
environment) triple always yields bit-identical overlays, which is what
makes manager runs reproducible across worker counts.

Fault kinds (the ``kind`` field of an event):

``reuse_interference``
    Adds ``boost_db`` to every intra-network interference contribution.
    Models fading drift that couples channel-reuse partners more
    strongly than the topology survey measured; the damage appears
    *only* in shared cells, so the K-S policy attributes it to reuse —
    the case :class:`~repro.manager.policies.RescheduleVictims` fixes.

``wifi_burst``
    External WiFi interferers (one per floor, at the floor centre, as in
    the paper's Section VII-E setup) on ``wifi_channel`` with the given
    duty cycle.  Pollutes the overlapped 802.15.4 channels in reuse and
    contention-free slots alike — reuse-independent degradation, the
    case :class:`~repro.manager.policies.BlacklistChannel` handles.

``link_degradation``
    Extra path loss on the listed node pairs (both directions), e.g. a
    door closing or a machine moving into the Fresnel zone.

``node_churn``
    The listed nodes power off for the window: their transmissions never
    radiate and they contribute no interference.

Scenario JSON format (see also ``EXPERIMENTS.md``)::

    {
      "name": "my-scenario",
      "events": [
        {"kind": "reuse_interference", "start_epoch": 3, "boost_db": 15.0},
        {"kind": "wifi_burst", "start_epoch": 2, "end_epoch": 6,
         "wifi_channel": 1, "duty_cycle": 0.6, "tx_power_dbm": 18.0},
        {"kind": "link_degradation", "start_epoch": 4,
         "links": [[3, 7]], "attenuation_db": 12.0},
        {"kind": "node_churn", "start_epoch": 5, "end_epoch": 8,
         "nodes": [12]}
      ]
    }

``end_epoch`` is exclusive; ``null`` / omitted means "until the run
ends".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.propagation.pathloss import LogDistancePathLoss
from repro.simulator.conditions import Conditions
from repro.simulator.interference import (
    interferer_rssi_matrix,
    place_interferer_pairs,
)
from repro.testbeds.layout import FloorPlan
from repro.testbeds.synth import RadioEnvironment

#: Recognised fault kinds.
FAULT_KINDS = ("reuse_interference", "wifi_burst", "link_degradation",
               "node_churn")


@dataclass(frozen=True)
class FaultEvent:
    """One condition mutation active over ``[start_epoch, end_epoch)``.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        start_epoch: First epoch the fault is active in.
        end_epoch: First epoch the fault is *no longer* active in
            (exclusive); ``None`` keeps it active until the run ends.
        boost_db: ``reuse_interference`` — dB added to intra-network
            interference contributions.
        wifi_channel / duty_cycle / tx_power_dbm: ``wifi_burst``
            interferer parameters.
        links: ``link_degradation`` — node pairs to attenuate (applied
            in both directions).
        attenuation_db: ``link_degradation`` — extra path loss in dB.
        nodes: ``node_churn`` — nodes powered off for the window.
    """

    kind: str
    start_epoch: int = 0
    end_epoch: Optional[int] = None
    boost_db: float = 15.0
    wifi_channel: int = 1
    duty_cycle: float = 0.5
    tx_power_dbm: float = 15.0
    links: Tuple[Tuple[int, int], ...] = ()
    attenuation_db: float = 12.0
    nodes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r} "
                             f"(expected one of {FAULT_KINDS})")
        if self.start_epoch < 0:
            raise ValueError("start_epoch must be non-negative")
        if self.end_epoch is not None and self.end_epoch <= self.start_epoch:
            raise ValueError("end_epoch must be greater than start_epoch")
        if self.kind == "link_degradation" and not self.links:
            raise ValueError("link_degradation requires links")
        if self.kind == "node_churn" and not self.nodes:
            raise ValueError("node_churn requires nodes")
        # Normalize JSON-born lists to hashable tuples.
        object.__setattr__(self, "links",
                           tuple((int(u), int(v)) for u, v in self.links))
        object.__setattr__(self, "nodes",
                           tuple(int(n) for n in self.nodes))

    def active_in(self, epoch: int) -> bool:
        """Whether the fault is active during ``epoch``."""
        if epoch < self.start_epoch:
            return False
        return self.end_epoch is None or epoch < self.end_epoch

    def to_dict(self) -> Dict:
        """JSON-serializable form (only the fields the kind uses)."""
        payload: Dict = {"kind": self.kind, "start_epoch": self.start_epoch,
                         "end_epoch": self.end_epoch}
        if self.kind == "reuse_interference":
            payload["boost_db"] = self.boost_db
        elif self.kind == "wifi_burst":
            payload.update(wifi_channel=self.wifi_channel,
                           duty_cycle=self.duty_cycle,
                           tx_power_dbm=self.tx_power_dbm)
        elif self.kind == "link_degradation":
            payload.update(links=[list(pair) for pair in self.links],
                           attenuation_db=self.attenuation_db)
        elif self.kind == "node_churn":
            payload["nodes"] = list(self.nodes)
        return payload

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultEvent":
        """Inverse of :meth:`to_dict`; rejects unknown fields."""
        known = {"kind", "start_epoch", "end_epoch", "boost_db",
                 "wifi_channel", "duty_cycle", "tx_power_dbm", "links",
                 "attenuation_db", "nodes"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault event fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "links" in kwargs:
            kwargs["links"] = tuple(tuple(pair) for pair in kwargs["links"])
        if "nodes" in kwargs:
            kwargs["nodes"] = tuple(kwargs["nodes"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ConditionSchedule:
    """A named, seeded timeline of fault events.

    Attributes:
        name: Scenario label (appears in reports).
        events: The fault events, in declaration order.
    """

    name: str
    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def to_dict(self) -> Dict:
        """JSON-serializable form."""
        return {"name": self.name,
                "events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: Dict) -> "ConditionSchedule":
        """Parse a scenario dict (the JSON format above)."""
        if "events" not in data:
            raise ValueError("scenario requires an 'events' list")
        events = tuple(FaultEvent.from_dict(item) for item in data["events"])
        return cls(name=str(data.get("name", "custom")), events=events)


def load_scenario(path: Union[str, Path]) -> ConditionSchedule:
    """Load a fault-scenario JSON file.

    Raises:
        ValueError: On malformed JSON or unknown event fields/kinds.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise ValueError(f"malformed scenario JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ValueError("scenario JSON must be an object")
    return ConditionSchedule.from_dict(payload)


class ScenarioResolver:
    """Resolves a scenario's per-epoch :class:`Conditions` overlays.

    Resolution is deterministic: interferer RSSI rows are drawn from a
    generator seeded by ``(seed, event index)``, and each event's
    expensive artifacts are computed once and reused for every epoch in
    its window.
    """

    def __init__(self, scenario: ConditionSchedule,
                 environment: RadioEnvironment, plan: FloorPlan,
                 seed: int = 0,
                 pathloss: Optional[LogDistancePathLoss] = None):
        self.scenario = scenario
        self.environment = environment
        self.plan = plan
        self.seed = seed
        self.pathloss = pathloss or LogDistancePathLoss()
        self._interferer_cache: Dict[int, Tuple[tuple, np.ndarray]] = {}
        self._condition_cache: Dict[Tuple[FaultEvent, ...], Conditions] = {}

    def _wifi_artifacts(self, index: int, event: FaultEvent):
        """(interferers, rssi) for a wifi_burst event, cached per event."""
        cached = self._interferer_cache.get(index)
        if cached is None:
            interferers = tuple(place_interferer_pairs(
                self.plan, wifi_channel=event.wifi_channel,
                tx_power_dbm=event.tx_power_dbm,
                duty_cycle=event.duty_cycle))
            rssi = interferer_rssi_matrix(
                interferers, self.environment.positions, self.plan,
                self.pathloss,
                np.random.default_rng(self.seed + 7919 * (index + 1)))
            cached = self._interferer_cache[index] = (interferers, rssi)
        return cached

    def conditions_for(self, epoch: int) -> Conditions:
        """The merged overlay for one epoch (cached per active-event set)."""
        active = [(index, event)
                  for index, event in enumerate(self.scenario.events)
                  if event.active_in(epoch)]
        key = tuple(event for _, event in active)
        cached = self._condition_cache.get(key)
        if cached is not None:
            return cached

        attenuation: Dict[Tuple[int, int], float] = {}
        boost = 0.0
        dark: set = set()
        interferers: list = []
        rssi_rows: list = []
        for index, event in active:
            if event.kind == "reuse_interference":
                boost += event.boost_db
            elif event.kind == "link_degradation":
                for u, v in event.links:
                    attenuation[(u, v)] = (attenuation.get((u, v), 0.0)
                                           + event.attenuation_db)
                    attenuation[(v, u)] = (attenuation.get((v, u), 0.0)
                                           + event.attenuation_db)
            elif event.kind == "node_churn":
                dark.update(event.nodes)
            elif event.kind == "wifi_burst":
                event_interferers, event_rssi = self._wifi_artifacts(
                    index, event)
                interferers.extend(event_interferers)
                rssi_rows.append(event_rssi)

        conditions = Conditions(
            pair_attenuation_db=attenuation,
            interference_boost_db=boost,
            dark_nodes=frozenset(dark),
            extra_interferers=tuple(interferers),
            extra_interferer_rssi_dbm=(np.vstack(rssi_rows)
                                       if rssi_rows else None))
        self._condition_cache[key] = conditions
        return conditions


def _preset(name: str, *events: FaultEvent) -> ConditionSchedule:
    return ConditionSchedule(name=name, events=events)


#: Named fault scenarios usable from the CLI (``--scenario NAME``).
#: Epoch indices assume the default manage horizon (8-12 epochs with a
#: 2-epoch warm-up): faults land after warm-up so detection sees a
#: healthy baseline first.
SCENARIO_PRESETS: Dict[str, ConditionSchedule] = {
    # Nothing ever goes wrong: the NoOp baseline of baselines.
    "quiet": _preset("quiet"),
    # Reuse partners couple 15 dB harder than surveyed, forever: the
    # canonical reuse-attributed fault RescheduleVictims repairs.
    "reuse-storm": _preset(
        "reuse-storm",
        FaultEvent(kind="reuse_interference", start_epoch=3, boost_db=15.0)),
    # The paper's Section VII-E WiFi setup, switched on mid-run:
    # channel-selective external interference (BlacklistChannel's case).
    "wifi-burst": _preset(
        "wifi-burst",
        FaultEvent(kind="wifi_burst", start_epoch=3, wifi_channel=1,
                   duty_cycle=0.6, tx_power_dbm=18.0)),
    # A transient WiFi burst that clears on its own: policies should not
    # leave permanent damage behind.
    "wifi-transient": _preset(
        "wifi-transient",
        FaultEvent(kind="wifi_burst", start_epoch=3, end_epoch=6,
                   wifi_channel=1, duty_cycle=0.6, tx_power_dbm=18.0)),
    # Reuse storm with a late churn event layered on top.
    "storm-and-churn": _preset(
        "storm-and-churn",
        FaultEvent(kind="reuse_interference", start_epoch=3, boost_db=15.0),
        FaultEvent(kind="node_churn", start_epoch=6, end_epoch=8,
                   nodes=(7,))),
}


def resolve_scenario(scenario: Union[str, ConditionSchedule, Path],
                     ) -> ConditionSchedule:
    """Turn a preset name, JSON path, or schedule into a schedule.

    Strings naming a preset resolve from :data:`SCENARIO_PRESETS`; other
    strings (and Paths) are treated as scenario-file paths.
    """
    if isinstance(scenario, ConditionSchedule):
        return scenario
    if isinstance(scenario, str) and scenario in SCENARIO_PRESETS:
        return SCENARIO_PRESETS[scenario]
    path = Path(scenario)
    if not path.exists():
        raise ValueError(
            f"unknown scenario {str(scenario)!r}: not a preset "
            f"({', '.join(sorted(SCENARIO_PRESETS))}) and no such file")
    return load_scenario(path)
