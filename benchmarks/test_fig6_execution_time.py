"""Figure 6: scheduler execution time vs number of flows.

Paper setup: 5 channels, P = [2^0, 2^2], peer-to-peer, 40-160 flows.
Expected shape: NR is fastest; the channel-reuse schedulers cost more
and grow superlinearly with load.  (Absolute numbers and the RA-vs-RC
ordering depend on implementation constants — see EXPERIMENTS.md.)
"""

import gc

import pytest

from repro.flows.generator import PeriodRange
from repro.experiments.schedulability import run_sweep
from repro.routing.traffic import TrafficType

from conftest import print_series

FLOWS = [40, 80, 120, 160]


@pytest.mark.benchmark(group="fig6")
def test_fig6_execution_time(benchmark, indriya, scale):
    topology, _ = indriya
    sets = max(3, scale["flow_sets"] // 2)
    # The collector stays on, so pauses the schedulers' own objects
    # cause are timed; only the earlier tests' objects are frozen out
    # of its full collections, whose cost would otherwise land in
    # whichever run they happen to interrupt.
    gc.collect()
    gc.freeze()
    try:
        result = benchmark.pedantic(
            run_sweep,
            args=(topology, TrafficType.PEER_TO_PEER, "flows", FLOWS),
            kwargs=dict(fixed_channels=5, period_range=PeriodRange(0, 2),
                        num_flow_sets=sets, seed=60,
                        collect_histograms=False),
            rounds=1, iterations=1)
    finally:
        gc.unfreeze()
    times = result.mean_times_ms()
    print_series("Fig 6: scheduler execution time (ms)", times)
    # NR is cheapest at every point.  Each run's time is placement
    # alone: the flow set's request plan is built before the clock.
    for x in FLOWS:
        assert times["NR"][x] <= times["RA"][x]
        assert times["NR"][x] <= times["RC"][x]
    # Cost grows with the number of flows for every scheduler.
    for policy in ("NR", "RA", "RC"):
        assert times[policy][FLOWS[-1]] > times[policy][FLOWS[0]]
