"""Wire protocol of the scheduling service: newline-delimited JSON.

One request per line, one response line per request, over TCP or a Unix
socket.  The framing is deliberately primitive — ``readline`` is the
whole parser — so any language (or ``nc``) can drive the service, and a
single connection can pipeline: requests carry a client-chosen ``id``
that the matching response echoes, so responses arriving in service
order can be re-associated however the client interleaved its verbs.

Request shape::

    {"id": 7, "verb": "schedule", "network": "plant-3",
     "config": {"testbed": "indriya", "seed": 1, "channels": 5,
                "flows": 10, "policy": "RC", "rho_t": 2,
                "traffic": "p2p", "workload_seed": 3}}

Response shape::

    {"id": 7, "ok": true, "verb": "schedule", "network": "plant-3",
     "worker": 1, "result": {...}}           # or, on failure:
    {"id": 7, "ok": false, "verb": "schedule", "network": "plant-3",
     "error": {"type": "...", "message": "..."}}

Requests may carry an optional ``trace`` object — ``{"trace_id": ...,
"span_id": ...}`` per :mod:`repro.obs.spans` — adopted by the
front-end's request span and echoed (``{"trace_id": ...}``) in the
response, so a client can find its own requests in the span dumps.
The front-end rewrites the context (adding ``enqueued_unix``) before
forwarding to a worker; clients never need that field.

Verbs: ``schedule`` (compile a network's superframe), ``reschedule``
(repair the running schedule around victim links), ``explain``
(constraint chain for one link × slot), ``status`` (service and cache
counters), ``metrics`` (OpenMetrics exposition), ``ping``.

The *network* name is the sharding key: :func:`shard_of` maps it
deterministically (CRC-32, stable across processes and runs — unlike
``hash()`` under ``PYTHONHASHSEED``) to a worker index, so all requests
for one network serialize on one worker while distinct networks run in
parallel.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

from repro.obs.ledger import config_hash

#: Verbs executed by a worker (shard-routed on the network name).
WORKER_VERBS = ("schedule", "reschedule", "explain", "simulate")
#: Verbs answered by the front-end (aggregated over every worker).
CONTROL_VERBS = ("status", "metrics", "ping")
VERBS = WORKER_VERBS + CONTROL_VERBS

#: Hard cap on repetitions per ``simulate`` request — a worker is
#: shared; long Monte-Carlo sweeps belong in the experiment CLIs.
MAX_SIM_REPETITIONS = 1000


class ProtocolError(ValueError):
    """A request line the service cannot accept (bad JSON, bad verb,
    missing fields).  The message is safe to echo back to the client."""


@dataclass(frozen=True)
class NetworkConfig:
    """Everything that defines one network's scheduling problem.

    The canonical hash of (subsets of) these fields keys the artifact
    cache: two requests agreeing on :meth:`topology_hash` share a
    prepared network, on :meth:`workload_hash` a routed flow set, and on
    :meth:`schedule_hash` the compiled superframe itself.

    ``seed`` seeds the testbed synthesis; ``workload_seed`` seeds flow
    generation (default: same as ``seed``), so a fleet of networks can
    share one physical topology while carrying distinct workloads.
    """

    testbed: str = "indriya"
    seed: int = 0
    channels: int = 5
    flows: int = 10
    traffic: str = "p2p"
    period_min_exp: int = 0
    period_max_exp: int = 3
    policy: str = "RC"
    rho_t: int = 2
    workload_seed: Optional[int] = None

    def __post_init__(self):
        if self.testbed not in ("indriya", "wustl"):
            raise ProtocolError(f"unknown testbed: {self.testbed!r}")
        if self.policy not in ("NR", "RA", "RC"):
            raise ProtocolError(f"unknown policy: {self.policy!r}")
        if self.traffic not in ("p2p", "centralized"):
            raise ProtocolError(f"unknown traffic: {self.traffic!r}")
        if self.flows <= 0 or self.channels <= 0:
            raise ProtocolError("flows and channels must be positive")

    @classmethod
    def from_dict(cls, data: Dict) -> "NetworkConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ProtocolError(
                f"unknown config field(s): {sorted(unknown)}")
        try:
            return cls(**{key: data[key] for key in data})
        except TypeError as error:
            raise ProtocolError(f"bad config: {error}")

    def to_dict(self) -> Dict:
        return {"testbed": self.testbed, "seed": self.seed,
                "channels": self.channels, "flows": self.flows,
                "traffic": self.traffic,
                "period_min_exp": self.period_min_exp,
                "period_max_exp": self.period_max_exp,
                "policy": self.policy, "rho_t": self.rho_t,
                "workload_seed": self.workload_seed}

    @property
    def effective_workload_seed(self) -> int:
        return self.seed if self.workload_seed is None else \
            self.workload_seed

    def topology_hash(self) -> str:
        """Cache key of the prepared network (graphs + hop matrix)."""
        return config_hash({"kind": "topology", "testbed": self.testbed,
                            "seed": self.seed,
                            "channels": self.channels})

    def workload_hash(self) -> str:
        """Cache key of the routed, priority-ordered flow set."""
        return config_hash({"kind": "workload", "testbed": self.testbed,
                            "seed": self.seed,
                            "channels": self.channels,
                            "flows": self.flows, "traffic": self.traffic,
                            "period_min_exp": self.period_min_exp,
                            "period_max_exp": self.period_max_exp,
                            "workload_seed": self.effective_workload_seed})

    def schedule_hash(self) -> str:
        """Cache key of the compiled superframe (full config)."""
        return config_hash(dict(self.to_dict(), kind="schedule",
                                workload_seed=self.effective_workload_seed))


@dataclass
class Request:
    """A validated request (see module docstring for the wire form)."""

    verb: str
    network: str = ""
    id: object = None
    config: Optional[NetworkConfig] = None
    victims: object = None            # "auto" | [[u, v], ...] | None
    link: Optional[Tuple[int, int]] = None
    slot: Optional[int] = None
    include_schedule: bool = False
    repetitions: Optional[int] = None
    sim_seed: Optional[int] = None
    trace: Optional[Dict] = None

    def to_dict(self) -> Dict:
        """Picklable wire form (what the front-end forwards to workers)."""
        payload: Dict = {"verb": self.verb, "id": self.id}
        if self.network:
            payload["network"] = self.network
        if self.config is not None:
            payload["config"] = self.config.to_dict()
        if self.victims is not None:
            payload["victims"] = self.victims
        if self.link is not None:
            payload["link"] = list(self.link)
        if self.slot is not None:
            payload["slot"] = self.slot
        if self.include_schedule:
            payload["include_schedule"] = True
        if self.repetitions is not None:
            payload["repetitions"] = self.repetitions
        if self.sim_seed is not None:
            payload["seed"] = self.sim_seed
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload


def parse_request(data) -> Request:
    """Validate one request (a JSON text line or an already-parsed dict).

    Raises:
        ProtocolError: On malformed JSON, unknown verbs, or missing /
            ill-typed fields.  The front-end turns this into an error
            response without involving a worker.
    """
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as error:
            raise ProtocolError(f"bad JSON: {error}")
    if not isinstance(data, dict):
        raise ProtocolError("request must be a JSON object")
    verb = data.get("verb")
    if verb not in VERBS:
        raise ProtocolError(f"unknown verb: {verb!r} "
                            f"(expected one of {list(VERBS)})")
    request = Request(verb=verb, id=data.get("id"),
                      network=str(data.get("network", "")))
    if data.get("trace") is not None:
        request.trace = _parse_trace_context(data["trace"])
    if verb in WORKER_VERBS and not request.network:
        raise ProtocolError(f"{verb} needs a 'network' name")
    if verb == "schedule":
        config = data.get("config")
        if not isinstance(config, dict):
            raise ProtocolError("schedule needs a 'config' object")
        request.config = NetworkConfig.from_dict(config)
        request.include_schedule = bool(data.get("include_schedule"))
    elif verb == "reschedule":
        victims = data.get("victims", "auto")
        if victims != "auto":
            try:
                victims = [(int(u), int(v)) for u, v in victims]
            except (TypeError, ValueError):
                raise ProtocolError(
                    "victims must be \"auto\" or a list of [u, v] pairs")
        request.victims = victims
    elif verb == "explain":
        link = data.get("link")
        try:
            sender, receiver = (int(link[0]), int(link[1]))
        except (TypeError, ValueError, IndexError):
            raise ProtocolError("explain needs 'link': [sender, receiver]")
        request.link = (sender, receiver)
        try:
            request.slot = int(data["slot"])
        except (KeyError, TypeError, ValueError):
            raise ProtocolError("explain needs an integer 'slot'")
    elif verb == "simulate":
        try:
            request.repetitions = int(data.get("repetitions", 18))
        except (TypeError, ValueError):
            raise ProtocolError("repetitions must be an integer")
        if not 1 <= request.repetitions <= MAX_SIM_REPETITIONS:
            raise ProtocolError(
                f"repetitions must be in [1, {MAX_SIM_REPETITIONS}]")
        if data.get("seed") is not None:
            try:
                request.sim_seed = int(data["seed"])
            except (TypeError, ValueError):
                raise ProtocolError("seed must be an integer")
            if request.sim_seed < 0:
                raise ProtocolError("seed must be non-negative")
    return request


#: Upper bound on client-supplied trace/span id length.
MAX_TRACE_ID_LEN = 64


def _parse_trace_context(data) -> Dict:
    """Validate a request's ``trace`` object (strict, like configs)."""
    if not isinstance(data, dict):
        raise ProtocolError("trace must be a JSON object")
    unknown = set(data) - {"trace_id", "span_id", "enqueued_unix"}
    if unknown:
        raise ProtocolError(f"unknown trace field(s): {sorted(unknown)}")
    trace_id = data.get("trace_id")
    if not isinstance(trace_id, str) or not trace_id \
            or len(trace_id) > MAX_TRACE_ID_LEN:
        raise ProtocolError("trace.trace_id must be a non-empty string "
                            f"of <= {MAX_TRACE_ID_LEN} chars")
    span_id = data.get("span_id")
    if span_id is not None and (not isinstance(span_id, str)
                                or len(span_id) > MAX_TRACE_ID_LEN):
        raise ProtocolError("trace.span_id must be a string of <= "
                            f"{MAX_TRACE_ID_LEN} chars")
    enqueued = data.get("enqueued_unix")
    if enqueued is not None and not isinstance(enqueued, (int, float)):
        raise ProtocolError("trace.enqueued_unix must be a number")
    return dict(data)


def ok_response(request: Request, result: Dict,
                worker: Optional[int] = None) -> Dict:
    response: Dict = {"id": request.id, "ok": True, "verb": request.verb,
                      "result": result}
    if request.network:
        response["network"] = request.network
    if worker is not None:
        response["worker"] = worker
    return response


def error_response(request: Optional[Request], error: Exception,
                   worker: Optional[int] = None) -> Dict:
    response: Dict = {
        "id": request.id if request is not None else None,
        "ok": False,
        "verb": request.verb if request is not None else None,
        "error": {"type": type(error).__name__, "message": str(error)},
    }
    if request is not None and request.network:
        response["network"] = request.network
    if worker is not None:
        response["worker"] = worker
    return response


def encode_line(payload: Dict) -> bytes:
    """One compact JSON line, ready for the socket."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") \
        + b"\n"


def shard_of(network: str, num_workers: int) -> int:
    """Deterministic worker index for a network name.

    CRC-32 of the UTF-8 name modulo the pool size: stable across
    processes, runs, and machines, so a network always lands on the
    same worker (its requests serialize) for any fixed pool size.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    return zlib.crc32(network.encode("utf-8")) % num_workers

