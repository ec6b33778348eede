"""Request execution against the artifact cache and per-network sessions.

:class:`ServiceExecutor` is the service's brain, deliberately free of
any I/O or process machinery: the worker processes drive one instance
each over a pipe, tests drive it in-process, and the load generator's
``--verify`` mode drives a *shadow* instance with the same request
stream to prove the service's responses bit-identical to direct library
calls — because this class IS the direct library call path
(:func:`repro.experiments.common.prepare_network` /
:func:`~repro.experiments.common.build_workload` /
:func:`~repro.experiments.common.schedule_workload`), plus a cache in
front and a session behind.

Semantics per verb:

* ``schedule`` — (re)compile the network from its config.  All three
  artifact layers consult the cache; the session (current schedule,
  barred links, counters) resets to the pristine compiled result.  A
  network name re-binding to a different config hash drops the old
  session and invalidates its compiled-schedule artifact.
* ``reschedule`` — evolve the session: bar the victim links (explicit
  pairs, or ``"auto"`` = the smallest not-yet-barred link occupying a
  shared cell) and route the change through the PR 7 incremental repair
  path (:func:`repro.core.repair.repair_schedule`) against the warm
  schedule; on repair failure fall back to the full rebuild
  (:func:`repro.core.reschedule.reschedule_without_reuse_on`).
  A rebuild that still fails keeps the previous schedule live
  (manager-style rollback) and reports ``schedulable: false``.
* ``explain`` — the offline Section V-A constraint chain for one
  link × slot of the session's *current* schedule.
* ``simulate`` — Monte-Carlo execute the session's *current* schedule
  in the SINR simulator (the repetition count picks the engine; the
  response names it) and return the PDR summary plus per-channel PRR.
  The ground-truth :class:`~repro.testbeds.synth.RadioEnvironment` is a
  fourth cached artifact kind, keyed like the topology.
* ``status`` — request, session, and cache counters.

Request, error, repair-fallback and per-kind cache counters live on
the executor and its cache, recorder or not: ``status`` reports them
and :meth:`ServiceExecutor.metrics` renders them as the ``service.*``
metric families.  Every expensive phase — cache lookups,
compile, repair, rebuild, simulate — runs inside a named
:func:`repro.obs.spans.stage`: while recording, each one observes its
``span.<stage>.seconds`` histogram, and when the recorder also carries
a span layer and a request span is open (the worker loop) it is a
child span too, which is what the ``repro trace show`` waterfalls
decompose latency into.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.repair import (
    ChangeSet,
    repair_schedule,
    smallest_reused_link,
)
from repro.core.reschedule import reschedule_without_reuse_on
from repro.core.schedule import Schedule
from repro.core.scheduler import SchedulingResult
from repro.experiments.common import (
    PreparedNetwork,
    build_workload,
    make_policy,
    prepare_network,
    schedule_workload,
)
from repro.flows.flow import FlowSet
from repro.flows.generator import PeriodRange
from repro.obs.spans import stage
from repro.routing.traffic import TrafficType
from repro.service.cache import ArtifactCache, DEFAULT_CAPACITY
from repro.service.protocol import NetworkConfig, Request
from repro.io import schedule_to_dict

Link = Tuple[int, int]


class ServiceError(ValueError):
    """A request the executor must refuse (unknown network, bad state).

    Distinct from :class:`repro.service.protocol.ProtocolError`: the
    request was well-formed, the *state* it addressed was not there."""


@dataclass
class NetworkSession:
    """Mutable per-network serving state (lives on the owning shard)."""

    network: str
    config: NetworkConfig
    config_hash: str
    prepared: PreparedNetwork
    flow_set: FlowSet
    schedule: Schedule
    schedulable: bool
    barred: Set[Link] = field(default_factory=set)
    reschedules: int = 0
    repairs: int = 0
    fallbacks: int = 0

    def summary(self) -> Dict:
        return {"config_hash": self.config_hash,
                "schedulable": self.schedulable,
                "barred_links": len(self.barred),
                "reschedules": self.reschedules,
                "repairs": self.repairs,
                "fallbacks": self.fallbacks}


def build_prepared(config: NetworkConfig) -> PreparedNetwork:
    """The uncached topology artifact for a config."""
    from repro.testbeds import make_indriya, make_wustl

    factory = {"indriya": make_indriya, "wustl": make_wustl}[config.testbed]
    topology, _ = factory(config.seed)
    return prepare_network(topology, num_channels=config.channels)


def build_environment(config: NetworkConfig):
    """The uncached RF-environment artifact for a config.

    Re-runs the testbed factory and keeps the environment this time;
    synthesis is deterministic in ``config.seed``, so the pair matches
    the :func:`build_prepared` topology exactly.  Cached under the same
    key as the topology (both depend only on testbed/seed/channels).
    """
    from repro.testbeds import make_indriya, make_wustl

    factory = {"indriya": make_indriya, "wustl": make_wustl}[config.testbed]
    _, environment = factory(config.seed)
    return environment


def build_flow_set(config: NetworkConfig,
                   prepared: PreparedNetwork) -> FlowSet:
    """The uncached workload artifact for a config."""
    traffic = (TrafficType.CENTRALIZED if config.traffic == "centralized"
               else TrafficType.PEER_TO_PEER)
    rng = np.random.default_rng(config.effective_workload_seed)
    return build_workload(
        prepared, config.flows,
        PeriodRange(config.period_min_exp, config.period_max_exp),
        traffic, rng)


def direct_schedule(config: NetworkConfig) -> SchedulingResult:
    """One network's schedule via direct library calls, no cache.

    The reference the service's responses must be bit-identical to;
    tests and ``repro loadgen --verify`` compare against its
    :meth:`~repro.core.schedule.Schedule.canonical_hash`.
    """
    prepared = build_prepared(config)
    flow_set = build_flow_set(config, prepared)
    return schedule_workload(prepared, flow_set, config.policy,
                             rho_t=config.rho_t)


class ServiceExecutor:
    """Executes worker verbs against one shard's cache and sessions.

    Args:
        cache_capacity: LRU bound of the artifact cache.
        worker_index: Shard identity, echoed in status payloads.
    """

    def __init__(self, cache_capacity: int = DEFAULT_CAPACITY,
                 worker_index: int = 0):
        self.cache = ArtifactCache(cache_capacity)
        self.sessions: Dict[str, NetworkSession] = {}
        self.worker_index = worker_index
        self.requests: Dict[str, int] = {}
        self.errors = 0
        #: Lifetime repair-fallback count.  Session counters reset when
        #: a network recompiles; this one never does.
        self.fallbacks = 0
        self.started = time.time()

    # -- dispatch --------------------------------------------------------

    def handle(self, request: Request) -> Dict:
        """Execute one verb, returning the response ``result`` payload.

        Raises:
            ServiceError: For state errors the client can act on.
        """
        start = time.perf_counter()
        self.requests[request.verb] = self.requests.get(request.verb, 0) + 1
        try:
            if request.verb == "schedule":
                result = self._schedule(request)
            elif request.verb == "reschedule":
                result = self._reschedule(request)
            elif request.verb == "explain":
                result = self._explain(request)
            elif request.verb == "simulate":
                result = self._simulate(request)
            elif request.verb == "status":
                result = self.status()
            else:
                raise ServiceError(f"executor cannot serve verb "
                                   f"{request.verb!r}")
        except Exception:
            self.errors += 1
            raise
        result["elapsed_ms"] = round((time.perf_counter() - start) * 1e3, 3)
        return result

    # -- verbs -----------------------------------------------------------

    def _schedule(self, request: Request) -> Dict:
        config = request.config
        cache_info: Dict[str, str] = {}

        with stage("cache.topology") as sp:
            prepared, cache_info["topology"] = self.cache.get_or_build(
                "topology", config.topology_hash(),
                lambda: build_prepared(config))
            if sp is not None:
                sp.annotate(verdict=cache_info["topology"])
        with stage("cache.workload") as sp:
            flow_set, cache_info["workload"] = self.cache.get_or_build(
                "workload", config.workload_hash(),
                lambda: build_flow_set(config, prepared))
            if sp is not None:
                sp.annotate(verdict=cache_info["workload"])
        with stage("compile") as sp:
            result, cache_info["schedule"] = self.cache.get_or_build(
                "schedule", config.schedule_hash(),
                lambda: schedule_workload(prepared, flow_set,
                                          config.policy,
                                          rho_t=config.rho_t))
            if sp is not None:
                sp.annotate(verdict=cache_info["schedule"],
                            placements=len(result.schedule))

        previous = self.sessions.get(request.network)
        if previous is not None \
                and previous.config_hash != config.schedule_hash():
            # The network name re-bound to a different configuration:
            # its old compiled superframe can never be asked for again
            # under this name — drop it rather than waiting for LRU.
            self.cache.invalidate("schedule", previous.config_hash)
        self.sessions[request.network] = NetworkSession(
            network=request.network, config=config,
            config_hash=config.schedule_hash(), prepared=prepared,
            flow_set=flow_set, schedule=result.schedule,
            schedulable=result.schedulable)

        payload = {
            "schedulable": result.schedulable,
            "policy": result.policy_name,
            "placements": len(result.schedule),
            "reuse_cells": result.schedule.num_reused_cells(),
            "makespan": result.schedule.makespan(),
            "schedule_hash": result.schedule.canonical_hash(),
            "config_hash": config.schedule_hash(),
            "cache": cache_info,
        }
        if not result.schedulable:
            payload["failed_flow"] = result.failed_flow
            payload["failed_instance"] = result.failed_instance
        if request.include_schedule:
            payload["schedule"] = schedule_to_dict(result.schedule)
        return payload

    def _session(self, request: Request) -> NetworkSession:
        session = self.sessions.get(request.network)
        if session is None:
            raise ServiceError(
                f"network {request.network!r} has no schedule yet "
                f"(send a 'schedule' request first)")
        return session

    def _reschedule(self, request: Request) -> Dict:
        session = self._session(request)
        session.reschedules += 1
        config = session.config
        if request.victims == "auto" or request.victims is None:
            victim = smallest_reused_link(session.schedule,
                                          exclude=session.barred)
            victims: List[Link] = [victim] if victim is not None else []
        else:
            victims = [tuple(sorted(link)) for link in request.victims]
            victims = sorted(set(victims) -
                             {tuple(sorted(l)) for l in session.barred})
        if not victims:
            return {"repair_mode": "noop", "schedulable":
                    session.schedulable, "victims": [],
                    "schedule_hash": session.schedule.canonical_hash(),
                    "barred_links": len(session.barred)}

        with stage("repair") as sp:
            outcome = repair_schedule(
                session.schedule, session.flow_set,
                session.prepared.reuse,
                ChangeSet(victims=tuple(victims)), rho_t=config.rho_t,
                barred=sorted(session.barred),
                policy_name=config.policy)
            if sp is not None:
                sp.annotate(victims=len(victims),
                            repaired=outcome.schedulable,
                            evicted=getattr(outcome, "evicted", None))
        payload: Dict = {"victims": [list(v) for v in victims]}
        if outcome.schedulable:
            session.schedule = outcome.schedule
            session.schedulable = True
            session.repairs += 1
            payload.update(repair_mode="repair", schedulable=True,
                           evicted_cells=outcome.evicted)
        else:
            # Repair could not re-place its blast radius: fall back to
            # the full rebuild with every barred link (old and new) held
            # out of shared cells.
            session.fallbacks += 1
            self.fallbacks += 1
            all_barred = set(session.barred) | set(victims)
            with stage("rebuild") as sp:
                prepared = session.prepared
                rebuilt = reschedule_without_reuse_on(
                    session.flow_set, prepared.topology.num_nodes,
                    prepared.num_channels, prepared.reuse,
                    make_policy(config.policy, config.rho_t), all_barred)
                if sp is not None:
                    sp.annotate(barred=len(all_barred),
                                schedulable=rebuilt.schedulable)
            payload.update(repair_mode="rebuild",
                           schedulable=rebuilt.schedulable)
            if rebuilt.schedulable:
                session.schedule = rebuilt.schedule
                session.schedulable = True
            # else: roll back — keep serving the previous schedule.
        if payload["schedulable"]:
            session.barred |= set(victims)
        payload["schedule_hash"] = session.schedule.canonical_hash()
        payload["barred_links"] = len(session.barred)
        return payload

    def _explain(self, request: Request) -> Dict:
        from repro.obs.explain import explain_cell

        session = self._session(request)
        sender, receiver = request.link
        num_nodes = session.prepared.topology.num_nodes
        if not (0 <= sender < num_nodes and 0 <= receiver < num_nodes):
            raise ServiceError(f"link {request.link} out of range for "
                               f"{num_nodes} nodes")
        if not 0 <= request.slot < session.schedule.num_slots:
            raise ServiceError(f"slot {request.slot} out of range for "
                               f"{session.schedule.num_slots} slots")
        rho = (math.inf if session.config.policy == "NR"
               else session.config.rho_t)
        lines = explain_cell(session.schedule, session.prepared.reuse,
                             sender, receiver, request.slot, rho)
        return {"lines": list(lines), "rho_t": None if rho == math.inf
                else rho}

    def _simulate(self, request: Request) -> Dict:
        from repro.simulator.engine import (
            ENGINE_EVENT,
            SimulationConfig,
            TschSimulator,
            engine_for,
        )

        session = self._session(request)
        if not session.schedulable:
            raise ServiceError(
                f"network {request.network!r} has no live schedule to "
                f"simulate (last compile/repair failed)")
        config = session.config
        with stage("cache.environment") as sp:
            environment, env_verdict = self.cache.get_or_build(
                "environment", config.topology_hash(),
                lambda: build_environment(config))
            if sp is not None:
                sp.annotate(verdict=env_verdict)
        # A client-chosen seed makes runs reproducible across requests;
        # the default derives from the network config so two networks
        # sharing a topology still draw distinct fading.
        sim_seed = request.sim_seed if request.sim_seed is not None \
            else config.seed + 7000
        repetitions = request.repetitions or 18
        engine = engine_for(repetitions)
        simulator = TschSimulator(
            schedule=session.schedule, flow_set=session.flow_set,
            environment=environment,
            channel_map=session.prepared.topology.channel_map,
            config=SimulationConfig(seed=sim_seed))
        with stage("simulate") as sp:
            stats = simulator.run(repetitions)
            if sp is not None:
                sp.annotate(engine=engine, repetitions=repetitions)
                if engine == ENGINE_EVENT:
                    from repro.simulator.events import default_chunk_size

                    chunk = default_chunk_size(simulator.draw_plan,
                                               repetitions)
                    sp.annotate(chunks=-(-repetitions // chunk))
        per_flow = stats.pdr_per_flow()
        return {
            "repetitions": repetitions,
            "engine": engine,
            "seed": sim_seed,
            "schedule_hash": session.schedule.canonical_hash(),
            "median_pdr": stats.median_pdr(),
            "worst_pdr": stats.worst_pdr(),
            "per_flow_pdr": {str(flow): pdr
                             for flow, pdr in sorted(per_flow.items())},
            "channel_prr": {str(channel): prr for channel, prr in
                            sorted(stats.channel_prr().items())},
            "cache": {"environment": env_verdict},
        }

    # -- introspection ---------------------------------------------------

    def status(self) -> Dict:
        """Counters + per-network session summaries (JSON-ready)."""
        return {
            "worker": self.worker_index,
            "uptime_s": round(time.time() - self.started, 3),
            "requests": dict(sorted(self.requests.items())),
            "errors": self.errors,
            "networks": len(self.sessions),
            "repair_fallbacks": self.fallbacks,
            "cache": self.cache.stats(),
            "sessions": {name: session.summary()
                         for name, session in
                         sorted(self.sessions.items())},
        }

    def metrics(self) -> Dict:
        """The service families of the ``metrics`` verb: the counters
        :meth:`status` reports, as a metrics snapshot (see
        :meth:`repro.obs.metrics.MetricsRegistry.snapshot`) that needs
        no recorder.  ``service.cache.<kind>.<verdict>`` counters render
        as the labeled ``repro_service_cache_lookups_total`` family."""
        counters = {"service.requests": sum(self.requests.values()),
                    "service.errors": self.errors,
                    "service.repair_fallbacks": self.fallbacks}
        for verb, count in self.requests.items():
            counters[f"service.requests.{verb}"] = count
        for verdict, per_kind in (("hit", self.cache.hits),
                                  ("miss", self.cache.misses)):
            for kind, count in per_kind.items():
                counters[f"service.cache.{kind}.{verdict}"] = count
        return {"counters": dict(sorted(counters.items())), "gauges": {},
                "histograms": {}}
