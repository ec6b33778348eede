"""Core contribution: schedule structure, reuse constraints, laxity, and
the NR / RA / RC fixed-priority schedulers."""

from repro.core.constraints import (
    NO_REUSE,
    validate_schedule,
)
from repro.core.laxity import (
    LaxityTable,
    calculate_laxity,
    conflict_slots_for,
)
from repro.core.nr import NoReusePolicy
from repro.core.ra import AggressiveReusePolicy, DEFAULT_RHO_T
from repro.core.reschedule import (
    ReuseBarrierPolicy,
    reschedule_without_reuse_on,
)
from repro.core.rc import (
    ConservativeReusePolicy,
    RHO_RESET_FLOW,
    RHO_RESET_TRANSMISSION,
)
from repro.core.schedule import Schedule, ScheduledTransmission
from repro.core.scheduler import (
    FixedPriorityScheduler,
    OFFSET_FIRST,
    OFFSET_LEAST_LOADED,
    PlacementPolicy,
    SchedulingResult,
    find_slot,
)
from repro.core.transmissions import (
    ATTEMPTS_PER_LINK,
    RequestWindow,
    TransmissionRequest,
    expand_instance,
)

__all__ = [
    "ATTEMPTS_PER_LINK",
    "AggressiveReusePolicy",
    "ConservativeReusePolicy",
    "DEFAULT_RHO_T",
    "FixedPriorityScheduler",
    "LaxityTable",
    "NO_REUSE",
    "NoReusePolicy",
    "OFFSET_FIRST",
    "OFFSET_LEAST_LOADED",
    "PlacementPolicy",
    "RHO_RESET_FLOW",
    "RequestWindow",
    "ReuseBarrierPolicy",
    "reschedule_without_reuse_on",
    "RHO_RESET_TRANSMISSION",
    "Schedule",
    "ScheduledTransmission",
    "SchedulingResult",
    "TransmissionRequest",
    "calculate_laxity",
    "conflict_slots_for",
    "expand_instance",
    "find_slot",
    "validate_schedule",
]
