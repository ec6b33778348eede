"""repro — Conservative Channel Reuse in Real-Time Industrial WSANs.

A full-stack reproduction of Gunatilaka & Lu, "Conservative Channel Reuse
in Real-Time Industrial Wireless Sensor-Actuator Networks" (ICDCS 2018):
a WirelessHART/TSCH network model, the RC / RA / NR fixed-priority
schedulers, a SINR-based slot simulator, and the K-S-test reliability
degradation classifier, plus runners for every figure in the paper's
evaluation.

Quickstart::

    import numpy as np
    from repro import (make_indriya, prepare_network, build_workload,
                       schedule_workload, PeriodRange, TrafficType)

    topology, environment = make_indriya()
    network = prepare_network(topology, num_channels=5)
    rng = np.random.default_rng(1)
    flows = build_workload(network, num_flows=30, period_range=PeriodRange(0, 2),
                           traffic=TrafficType.PEER_TO_PEER, rng=rng)
    result = schedule_workload(network, flows, "RC")
    print(result.schedulable, result.schedule.num_reused_cells())
"""

from repro.core import (
    AggressiveReusePolicy,
    ConservativeReusePolicy,
    FixedPriorityScheduler,
    NoReusePolicy,
    Schedule,
    SchedulingResult,
    calculate_laxity,
    validate_schedule,
)
from repro.detection import (
    DetectionConfig,
    Verdict,
    build_epoch_reports,
    diagnose_epoch,
    ks_2samp,
)
from repro.experiments import (
    build_workload,
    prepare_network,
    run_detection,
    run_reliability,
    run_sweep,
    schedule_workload,
)
from repro.flows import Flow, FlowSet, PeriodRange, generate_flow_set
from repro.mac import ChannelMap
from repro.network import ChannelReuseGraph, CommunicationGraph, Topology
from repro import obs
from repro.obs import MetricsRegistry, NullRecorder, Recorder
from repro.routing import TrafficType, assign_routes
from repro.simulator import SimulationConfig, TschSimulator, WifiInterferer
from repro.testbeds import make_indriya, make_testbed, make_wustl

__version__ = "1.0.0"

__all__ = [
    "AggressiveReusePolicy",
    "ChannelMap",
    "ChannelReuseGraph",
    "CommunicationGraph",
    "ConservativeReusePolicy",
    "DetectionConfig",
    "FixedPriorityScheduler",
    "Flow",
    "FlowSet",
    "MetricsRegistry",
    "NoReusePolicy",
    "NullRecorder",
    "PeriodRange",
    "Recorder",
    "obs",
    "Schedule",
    "SchedulingResult",
    "SimulationConfig",
    "Topology",
    "TrafficType",
    "TschSimulator",
    "Verdict",
    "WifiInterferer",
    "assign_routes",
    "build_epoch_reports",
    "build_workload",
    "calculate_laxity",
    "diagnose_epoch",
    "generate_flow_set",
    "ks_2samp",
    "make_indriya",
    "make_testbed",
    "make_wustl",
    "prepare_network",
    "run_detection",
    "run_reliability",
    "run_sweep",
    "schedule_workload",
    "validate_schedule",
    "__version__",
]
