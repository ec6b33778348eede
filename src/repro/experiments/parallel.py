"""Process-parallel trial execution for the experiment runners.

Every experiment is a bag of independent trials — a (sweep point, flow
set) pair, a reliability flow set, a detection policy — whose outcomes
are only aggregated at the end.  :func:`parallel_map` fans those trials
out over a :class:`~concurrent.futures.ProcessPoolExecutor` while
keeping three properties the runners rely on:

* **Determinism.**  Each trial derives its RNG seeds from the trial key
  alone (``seed + set_index`` style), never from "how many trials ran
  before me", so the outcome list is identical for any worker count —
  ``workers=4`` is bit-for-bit the same result as ``workers=1``.
* **Ordering.**  Results come back in task-submission order (the serial
  loop order), so downstream aggregation never sees a shuffled list.
* **Observability.**  When the parent has the :mod:`repro.obs` recorder
  enabled, each trial runs under a worker-local recorder and ships its
  metrics snapshot home; the parent folds them into its own registry via
  :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`.  Counters
  and histograms therefore aggregate exactly as in a serial run; trace
  *events* are not shipped (the ring buffer stays per-process).

Workers receive the experiment context once, at pool start-up (not per
task), and rebuild process-local state — e.g. the
:class:`~repro.experiments.common.PreparedNetwork` cache of
:func:`trial_network` — on first use.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.experiments.common import PreparedNetwork, prepare_network
from repro.obs import recorder as _obs
from repro.obs.metrics import MetricsRegistry

#: Worker-process globals installed by :func:`_init_worker`.
_WORKER: Dict[str, Any] = {}


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count request: ``None``/``0`` means all CPUs."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    return max(1, int(workers))


def trial_network(context: Dict[str, Any], *,
                  num_channels: Optional[int] = None,
                  channels: Optional[Sequence[int]] = None,
                  prr_threshold: float = 0.9) -> PreparedNetwork:
    """The trial's :class:`PreparedNetwork`, cached per process.

    Serial callers share the cache through the context dict itself
    (fresh per runner invocation); each worker process starts with an
    empty cache, so a (worker, channel-restriction) pair pays
    :func:`prepare_network` exactly once no matter how many trials it
    executes.
    """
    cache = context.setdefault("_networks", {})
    key = (num_channels,
           tuple(channels) if channels is not None else None,
           prr_threshold)
    network = cache.get(key)
    if network is None:
        network = cache[key] = prepare_network(
            context["topology"], num_channels=num_channels,
            channels=channels, prr_threshold=prr_threshold)
    return network


def _init_worker(context: Dict[str, Any], record: bool) -> None:
    """Install the experiment context in a freshly started worker."""
    _WORKER["context"] = dict(context)
    _WORKER["record"] = record


def _run_trial(packed) -> tuple:
    """Execute one trial in a worker, capturing its metrics delta."""
    fn, task = packed
    context = _WORKER["context"]
    if _WORKER["record"]:
        from repro import obs

        with obs.recording() as rec:
            result = fn(context, task)
        return result, rec.snapshot()
    return fn(context, task), None


def parallel_map(fn: Callable[[Dict[str, Any], Any], Any],
                 tasks: Sequence[Any], *, workers: Optional[int],
                 context: Dict[str, Any]) -> List[Any]:
    """Run ``fn(context, task)`` for every task, preserving task order.

    Args:
        fn: A module-level trial function (must be picklable by
            reference).  It receives the context dict and one task key,
            and must derive all randomness from those two alone.
        tasks: Trial keys, in the order results should come back.
        workers: Worker processes; ``None``/``0`` uses all CPUs, ``1``
            runs serially in-process (no pool, no pickling).
        context: Picklable experiment inputs shared by every trial.
            Shipped to each worker once, at pool start-up.

    Returns:
        ``[fn(context, task) for task in tasks]`` — same values, same
        order, regardless of worker count.
    """
    tasks = list(tasks)
    workers = min(resolve_workers(workers), max(len(tasks), 1))
    if workers <= 1:
        # Copy so trial_network's cache stays scoped to this invocation.
        context = dict(context)
        return [fn(context, task) for task in tasks]

    record = _obs.is_enabled()
    with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker,
            initargs=(context, record)) as pool:
        packed = list(pool.map(_run_trial, [(fn, task) for task in tasks]))

    if record:
        merged = MetricsRegistry.merge_snapshots(
            snapshot for _, snapshot in packed if snapshot is not None)
        _obs.RECORDER.registry.merge_snapshot(merged)
    return [result for result, _ in packed]
