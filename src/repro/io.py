"""Persistence: save and load topologies, flow sets, and schedules.

Real deployments separate topology collection, scheduling, and
execution in time; experiments need the same artifacts pinned to disk
for reproducibility.  Topologies (dense numeric matrices) use ``.npz``;
flow sets and schedules (small and structural) use JSON.  Observability
artifacts — metrics snapshots and decision/series/span records — use
JSON and JSON Lines respectively.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Union

import numpy as np

from repro.core.schedule import Schedule
from repro.core.transmissions import TransmissionRequest
from repro.flows.flow import Flow, FlowSet
from repro.mac.channels import ChannelMap
from repro.network.node import Node, NodeRole, Position
from repro.network.topology import Topology

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Generic JSON / JSON Lines (metrics snapshots, observability records)
# ----------------------------------------------------------------------

def save_jsonl(records: Iterable[Dict], path: PathLike) -> int:
    """Write dict records as JSON Lines (one compact object per line).

    Returns:
        The number of records written.
    """
    count = 0
    with Path(path).open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def load_jsonl(path: PathLike) -> List[Dict]:
    """Read records written by :func:`save_jsonl` (blank lines skipped)."""
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def save_metrics(snapshot: Dict, path: PathLike) -> None:
    """Save a :meth:`repro.obs.MetricsRegistry.snapshot` as JSON."""
    Path(path).write_text(json.dumps(snapshot, indent=2, sort_keys=True))


def load_metrics(path: PathLike) -> Dict:
    """Load a metrics snapshot saved by :func:`save_metrics`."""
    return json.loads(Path(path).read_text())


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------

def save_topology(topology: Topology, path: PathLike) -> None:
    """Save a topology (PRR matrix, channels, nodes) to an ``.npz`` file."""
    roles = np.array([node.role.value for node in topology.nodes])
    positions = topology.positions()
    if positions is None:
        positions = np.full((topology.num_nodes, 3), np.nan)
    np.savez_compressed(
        Path(path),
        prr=topology.prr,
        channels=np.array(list(topology.channel_map), dtype=np.int64),
        roles=roles,
        positions=positions,
        name=np.array(topology.name),
    )


def load_topology(path: PathLike) -> Topology:
    """Load a topology saved by :func:`save_topology`."""
    with np.load(Path(path), allow_pickle=False) as data:
        prr = data["prr"]
        channels = tuple(int(c) for c in data["channels"])
        roles = [NodeRole(str(r)) for r in data["roles"]]
        positions = data["positions"]
        name = str(data["name"])
    nodes = []
    for index, role in enumerate(roles):
        coords = positions[index]
        position = None if np.isnan(coords).any() else Position(
            float(coords[0]), float(coords[1]), float(coords[2]))
        nodes.append(Node(index, role, position))
    return Topology(nodes=nodes, channel_map=ChannelMap(channels),
                    prr=prr, name=name)


# ----------------------------------------------------------------------
# Flow sets
# ----------------------------------------------------------------------

def flow_to_dict(flow: Flow) -> Dict:
    """JSON-serializable form of a flow."""
    return {
        "flow_id": flow.flow_id,
        "source": flow.source,
        "destination": flow.destination,
        "period_slots": flow.period_slots,
        "deadline_slots": flow.deadline_slots,
        "route": list(flow.route),
        "wire_after": flow.wire_after,
    }


def flow_from_dict(data: Dict) -> Flow:
    """Inverse of :func:`flow_to_dict`."""
    return Flow(
        flow_id=int(data["flow_id"]),
        source=int(data["source"]),
        destination=int(data["destination"]),
        period_slots=int(data["period_slots"]),
        deadline_slots=int(data["deadline_slots"]),
        route=tuple(data.get("route", ())),
        wire_after=data.get("wire_after"),
    )


def save_flow_set(flow_set: FlowSet, path: PathLike) -> None:
    """Save a flow set (priority order preserved) as JSON."""
    payload = {"flows": [flow_to_dict(f) for f in flow_set]}
    Path(path).write_text(json.dumps(payload, indent=2))


def load_flow_set(path: PathLike) -> FlowSet:
    """Load a flow set saved by :func:`save_flow_set`."""
    payload = json.loads(Path(path).read_text())
    return FlowSet([flow_from_dict(d) for d in payload["flows"]])


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------

def schedule_to_dict(schedule: Schedule) -> Dict:
    """JSON-serializable form of a schedule: its dimensions and entry
    list, in placement order (the indexes are rebuilt on load)."""
    entries: List[Dict] = []
    for entry in schedule.entries:
        request = entry.request
        entries.append({
            "flow_id": request.flow_id,
            "instance": request.instance,
            "hop_index": request.hop_index,
            "attempt": request.attempt,
            "sender": request.sender,
            "receiver": request.receiver,
            "release_slot": request.release_slot,
            "deadline_slot": request.deadline_slot,
            "slot": entry.slot,
            "offset": entry.offset,
        })
    return {
        "num_nodes": schedule.num_nodes,
        "num_slots": schedule.num_slots,
        "num_offsets": schedule.num_offsets,
        "entries": entries,
    }


def schedule_from_dict(data: Dict, strict: bool = True) -> Schedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output.

    Args:
        data: The serialized schedule.
        strict: When True (default), entries are re-added through
            :meth:`Schedule.add`, so conflict-freedom is re-checked on
            load.  When False, they are force-added: node conflicts are
            kept as dumped, and judging them is left to
            :func:`repro.validate.audit.audit_schedule`.  Either way an
            out-of-range slot, offset or node raises ``ValueError``.
    """
    schedule = Schedule(int(data["num_nodes"]), int(data["num_slots"]),
                        int(data["num_offsets"]))
    place = schedule.add if strict else schedule.force_add
    for item in data["entries"]:
        request = TransmissionRequest(
            flow_id=int(item["flow_id"]),
            instance=int(item["instance"]),
            hop_index=int(item["hop_index"]),
            attempt=int(item["attempt"]),
            sender=int(item["sender"]),
            receiver=int(item["receiver"]),
            release_slot=int(item["release_slot"]),
            deadline_slot=int(item["deadline_slot"]),
        )
        place(request, int(item["slot"]), int(item["offset"]))
    return schedule


def save_schedule(schedule: Schedule, path: PathLike) -> None:
    """Save a schedule as JSON (see :func:`schedule_to_dict`)."""
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2))


def load_schedule(path: PathLike, strict: bool = True) -> Schedule:
    """Load a schedule saved by :func:`save_schedule`.

    ``strict=False`` keeps node conflicts as dumped, for auditing (see
    :func:`schedule_from_dict`).
    """
    return schedule_from_dict(json.loads(Path(path).read_text()),
                              strict=strict)


# ----------------------------------------------------------------------
# Validation artifacts (audit reports, fuzz reports / failure cases)
# ----------------------------------------------------------------------

def save_audit_report(report, path: PathLike) -> None:
    """Save a :class:`repro.validate.AuditReport` as JSON."""
    Path(path).write_text(json.dumps(report.to_dict(), indent=2,
                                     sort_keys=True))


def save_fuzz_report(report, path: PathLike) -> None:
    """Save a :class:`repro.validate.FuzzReport` (failing cases in full,
    each with its ``reproduce`` command line) as JSON."""
    Path(path).write_text(json.dumps(report.to_dict(), indent=2))
