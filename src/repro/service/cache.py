"""Compiled-topology artifact cache, keyed by canonical config hashes.

Scheduling a network touches three expensive artifacts, each strictly
contained in the next request that needs it:

* ``topology`` — the prepared network: channel-restricted topology,
  communication graph, and the channel-reuse graph whose precomputed
  hop matrix (``effective_hops``) backs every reuse-distance query a
  placement makes;
* ``workload`` — the generated, deadline-monotonic, routed flow set;
* ``schedule`` — the compiled superframe (the full
  :class:`~repro.core.scheduler.SchedulingResult`), the schedule the
  reschedule repair path warm-starts from.  Repair works on a clone,
  so the cached schedule is never mutated.

Entries are *content-addressed* by the run ledger's canonical
:func:`repro.obs.ledger.config_hash` over the defining fields (see
:meth:`repro.service.protocol.NetworkConfig.topology_hash` and
friends), so networks that share a testbed share the prepared topology
while keeping distinct workloads, and a repeated request is a pure
lookup.  Any config field change changes the hash — there is no
stale-entry hazard, only a miss — and when a *network name* re-binds to
a different hash the old session is dropped and counted as an
invalidation.

The cache is per-worker (workers are separate processes; shared memory
would buy contention, not wins, since a network's requests all land on
one worker anyway) and LRU-bounded.  Hit / miss / eviction /
invalidation counters reconcile with request counts by construction:
every lookup increments exactly one of hits or misses.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

#: Artifact kinds, in build-dependency order.
KINDS = ("topology", "workload", "schedule")

#: Default per-worker capacity (entries across all kinds).  Sized for
#: a few dozen concurrently-active networks per worker; the LRU policy
#: keeps a hot fleet resident and lets one-off explorations age out.
DEFAULT_CAPACITY = 256


class ArtifactCache:
    """Bounded LRU cache of compiled artifacts with per-kind counters.

    Args:
        capacity: Maximum resident entries (all kinds pooled; least
            recently *used* evicted first).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, str], object]" = \
            OrderedDict()
        self.hits: Dict[str, int] = {kind: 0 for kind in KINDS}
        self.misses: Dict[str, int] = {kind: 0 for kind in KINDS}
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, kind: str, key: str):
        """The cached artifact, or None (counts the hit / miss)."""
        entry = self._entries.get((kind, key))
        if entry is None:
            self.misses[kind] = self.misses.get(kind, 0) + 1
            return None
        self._entries.move_to_end((kind, key))
        self.hits[kind] = self.hits.get(kind, 0) + 1
        return entry

    def put(self, kind: str, key: str, value) -> None:
        """Insert (or refresh) an artifact, evicting LRU entries."""
        self._entries[(kind, key)] = value
        self._entries.move_to_end((kind, key))
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_build(self, kind: str, key: str,
                     build: Callable[[], object]):
        """Lookup, falling back to ``build()`` + insert on a miss.

        Returns:
            ``(value, "hit" | "miss")`` — callers thread the verdict
            into per-request cache diagnostics.
        """
        value = self.get(kind, key)
        if value is not None:
            return value, "hit"
        value = build()
        self.put(kind, key, value)
        return value, "miss"

    def invalidate(self, kind: Optional[str] = None,
                   key: Optional[str] = None) -> int:
        """Drop entries (all, one kind, or one exact artifact).

        Returns:
            The number of entries dropped (also added to
            :attr:`invalidations`).
        """
        if kind is not None and key is not None:
            dropped = 1 if self._entries.pop((kind, key), None) else 0
        else:
            doomed = [entry_key for entry_key in self._entries
                      if kind is None or entry_key[0] == kind]
            for entry_key in doomed:
                del self._entries[entry_key]
            dropped = len(doomed)
        self.invalidations += dropped
        return dropped

    def stats(self) -> Dict:
        """JSON-ready counter snapshot (hits/misses reconcile with the
        lookups the executor performed — exactly one count per lookup)."""
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": dict(self.hits),
            "misses": dict(self.misses),
            "hit_total": sum(self.hits.values()),
            "miss_total": sum(self.misses.values()),
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
