"""The service's reference answer: one network scheduled by direct calls.

A served response goes through the front end, a shard's artifact cache
and its session state.  The function here builds the same schedule from
the library with no cache and no session, so a served schedule hash can
be compared with it.  Nothing in the library calls it; ``repro loadgen
--verify`` checks a live server through its own shadow executor.
"""

from repro.core.scheduler import SchedulingResult
from repro.experiments.common import schedule_workload
from repro.service.executor import build_flow_set, build_prepared
from repro.service.protocol import NetworkConfig


def direct_schedule(config: NetworkConfig) -> SchedulingResult:
    """One network's schedule via direct library calls, no cache: the
    reference a served ``schedule_hash`` must equal."""
    prepared = build_prepared(config)
    flow_set = build_flow_set(config, prepared)
    return schedule_workload(prepared, flow_set, config.policy,
                             rho_t=config.rho_t)
