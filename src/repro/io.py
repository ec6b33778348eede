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
from repro.core.scheduler import SchedulingResult
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

def schedule_to_dict(schedule: Schedule, include_state: bool = False) -> Dict:
    """JSON-serializable form of a schedule.

    Args:
        schedule: The schedule to serialize.
        include_state: Also embed the internal bookkeeping arrays (busy
            matrix, used-offset masks, occupancy planes) verbatim.  Audit
            dumps need this: the whole point of re-auditing a schedule is
            that its bookkeeping may disagree with its entry list, and an
            entries-only round trip would silently rebuild consistent
            state.  Loaded back with ``strict=False``, the arrays are
            restored bit for bit.
    """
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
    payload = {
        "num_nodes": schedule.num_nodes,
        "num_slots": schedule.num_slots,
        "num_offsets": schedule.num_offsets,
        "entries": entries,
    }
    if include_state:
        counts, senders, receivers = schedule.occupancy()
        payload["state"] = {
            "busy": schedule.busy_matrix().astype(int).tolist(),
            "used_mask": [int(schedule._used_mask[s])
                          for s in range(schedule.num_slots)],
            "occ_count": counts.tolist(),
            "occ_senders": senders.tolist(),
            "occ_receivers": receivers.tolist(),
        }
    return payload


def schedule_from_dict(data: Dict, strict: bool = True) -> Schedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output.

    Args:
        data: The serialized schedule.
        strict: When True (default), entries are re-added through the
            normal mutation path, so structural invariants
            (conflict-freedom, bounds) are re-checked on load and any
            embedded ``state`` blob is ignored as redundant.  When
            False, entries are force-added without the node-conflict
            check and an embedded ``state`` blob overwrites the
            bookkeeping arrays verbatim — the loader reproduces the
            dump exactly and leaves validity judgments to
            :func:`repro.validate.audit.audit_schedule`.
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
    state = data.get("state")
    if state is not None and not strict:
        lanes = (len(state["occ_senders"][0][0])
                 if state["occ_senders"] and state["occ_senders"][0] else 0)
        shape = (schedule.num_slots, schedule.num_offsets, lanes)
        schedule._busy = np.asarray(state["busy"], dtype=bool)
        schedule._used_mask = np.asarray(state["used_mask"], dtype=np.int32)
        schedule._occ_count = np.asarray(state["occ_count"], dtype=np.int32)
        schedule._occ_senders = np.asarray(
            state["occ_senders"], dtype=np.int32).reshape(shape)
        schedule._occ_receivers = np.asarray(
            state["occ_receivers"], dtype=np.int32).reshape(shape)
    return schedule


def save_schedule(schedule: Schedule, path: PathLike,
                  include_state: bool = False) -> None:
    """Save a schedule as JSON (see :func:`schedule_to_dict`)."""
    Path(path).write_text(json.dumps(
        schedule_to_dict(schedule, include_state=include_state), indent=2))


def load_schedule(path: PathLike, strict: bool = True) -> Schedule:
    """Load a schedule saved by :func:`save_schedule`.

    ``strict=False`` reproduces the dump verbatim — including invalid
    placements and corrupt bookkeeping — for auditing
    (see :func:`schedule_from_dict`).
    """
    return schedule_from_dict(json.loads(Path(path).read_text()),
                              strict=strict)


# ----------------------------------------------------------------------
# Scheduling results
# ----------------------------------------------------------------------

def scheduling_result_to_dict(result: SchedulingResult,
                              include_schedule: bool = True) -> Dict:
    """JSON-serializable form of a :class:`SchedulingResult`.

    Args:
        result: The scheduler outcome.
        include_schedule: Also embed the (potentially large) schedule and
            flow set; set False for compact per-run summaries.
    """
    payload: Dict = {
        "schedulable": result.schedulable,
        "policy": result.policy_name,
        "failed_flow": result.failed_flow,
        "failed_instance": result.failed_instance,
        "elapsed_s": result.elapsed_s,
        "counters": {name: value
                     for name, value in sorted(result.counters.items())},
    }
    if include_schedule:
        payload["schedule"] = schedule_to_dict(result.schedule)
        payload["flows"] = [flow_to_dict(f) for f in result.flow_set]
    return payload


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
