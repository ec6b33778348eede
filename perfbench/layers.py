"""Per-layer timers wrapped around public functions, from outside.

A :class:`LayerClock` replaces module attributes (functions, or methods
on a class) with timing wrappers for the duration of a ``with`` block
and restores them on exit.  Wrappers keep a call stack, so each layer
gets both its inclusive busy time and its *self* time — busy time minus
the part covered by nested wrapped calls — which is what the coverage
check sums.

The program's own recorder (:mod:`repro.obs`) stays off: turning it on
moves RC off its fused vector path, so it would time different code.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class LayerClock:
    """Inclusive and self time, and call counts, per named layer."""

    def __init__(self):
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, int] = defaultdict(int)
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, layer, fn: Callable,
             on_call: Optional[Callable] = None) -> Callable:
        """``fn`` timed as ``layer`` — a name, or ``layer(args, kwargs)``
        returning one; ``on_call(args, kwargs, result)`` runs after the
        clock stops, so its cost is not charged."""
        clock = self
        name_of = layer if callable(layer) else (lambda args, kwargs: layer)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            name = name_of(args, kwargs)
            frame = [0.0]
            clock._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                clock._stack.pop()
                clock.busy[name] += elapsed
                clock.self_s[name] += elapsed - frame[0]
                clock.count[name] += 1
                if clock._stack:
                    clock._stack[-1][0] += elapsed
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return timed

    def patch(self, owner, attr: str, layer,
              on_call: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with its timed wrapper until exit."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(layer, original, on_call))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerClock":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def covered_s(self) -> float:
        """Sum of every layer's self time."""
        return sum(self.self_s.values())


class Stamps:
    """Timestamps of each call to one function (epoch boundaries).

    Cheaper than a :class:`LayerClock`: one clock read per call, used in
    the untraced runs to cut a managed run into per-epoch latencies.
    """

    def __init__(self, owner, attr: str):
        self.times: List[float] = []
        self._owner = owner
        self._attr = attr
        self._original = getattr(owner, attr)
        times = self.times
        original = self._original

        @functools.wraps(original)
        def stamped(*args, **kwargs):
            times.append(time.perf_counter())
            return original(*args, **kwargs)

        setattr(owner, attr, stamped)

    def __enter__(self) -> "Stamps":
        return self

    def __exit__(self, *exc) -> None:
        setattr(self._owner, self._attr, self._original)
