"""Pure measurement helpers of the benchmark (no repro imports).

Percentiles with an explicit sample-count guard (pinned by
``test_perfbench.py``) and the host-speed calibration every workload
scales its times by.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
from typing import Dict, Sequence


#: A reported percentile must have at least this many samples beyond it.
MIN_BEYOND = 10

#: Seconds :func:`calibration_s` takes on the reference host (a 2-core
#: Xeon VM in its fast phase).  Times are reported at this host speed.
CALIBRATION_REF_S = 0.010


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile."""
    if not 0.0 < q < 100.0:
        raise ValueError("q must be in (0, 100)")
    return n - max(1, math.ceil(q / 100.0 * n))


def percentile(values: Sequence[float], q: float,
               min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile that refuses thin tails.

    Raises:
        TooFewSamples: When fewer than ``min_beyond`` samples lie beyond
            the requested percentile (p99 needs at least 1000 samples).
    """
    n = len(values)
    if n == 0 or samples_beyond(n, q) < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} sample(s) has "
            f"{max(0, samples_beyond(n, q)) if n else 0} beyond it; "
            f"needs >= {min_beyond}")
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(q / 100.0 * n)) - 1])


def median(values: Sequence[float]) -> float:
    """Median (raises on an empty sample, like :mod:`statistics`)."""
    return float(statistics.median(values))


def latency_summary(values_ms: Sequence[float], tail_q: float) -> Dict:
    """Median plus the workload's tail percentile, with sample counts."""
    return {"n": len(values_ms),
            "p50": percentile(values_ms, 50.0),
            "tail_q": tail_q,
            "tail": percentile(values_ms, tail_q),
            "beyond_tail": samples_beyond(len(values_ms), tail_q)}


def safe_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 for an empty denominator."""
    return numerator / denominator if denominator else 0.0


_LOOP = """
import time

def spin():
    total, table = 0, {}
    for i in range(80_000):
        total += i * i
        table[i & 1023] = total

def timed():
    start = time.perf_counter()
    spin()
    return time.perf_counter() - start
"""


def calibration_s(all_cpus: bool = False) -> float:
    """Median of three timings of a fixed pure-Python loop.

    The loop touches no program code.  Its time tracks how fast the
    host runs Python right now; on a shared host that swings by up to
    2x over seconds to minutes, with the same swings in the workloads'
    times.  ``all_cpus`` runs one copy pinned to each CPU at once and
    averages them, for workloads that keep every core busy.
    """
    if not all_cpus:
        scope: Dict = {}
        exec(_LOOP, scope)
        return statistics.median(scope["timed"]() for _ in range(3))
    code = (_LOOP + "import os, statistics, sys\n"
            "os.sched_setaffinity(0, {int(sys.argv[1])})\n"
            "print(statistics.median(timed() for _ in range(3)))\n")
    children = [subprocess.Popen([sys.executable, "-c", code, str(cpu)],
                                 stdout=subprocess.PIPE, text=True)
                for cpu in sorted(os.sched_getaffinity(0))]
    return statistics.mean(float(child.communicate()[0])
                           for child in children)


def host_factor(before: float, after: float) -> float:
    """Scale from this host's speed to the reference host's, from the
    calibration times taken just before and just after a measurement
    (multiply a measured time by it; divide a measured rate by it)."""
    return CALIBRATION_REF_S / ((before + after) / 2.0)
