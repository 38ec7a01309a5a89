"""Metric primitives: counters, gauges, and streaming histograms.

Everything here is dependency-free and allocation-light so it can sit on
the serving hot path: a counter increment is one integer add under a
per-metric lock, a histogram observation is one binary search plus three
float updates.  Histograms never store samples — quantiles (p50/p90/p99)
are interpolated from fixed log-spaced bucket counts, so memory stays
O(buckets) no matter how many observations stream through.

**Thread safety.**  Every mutation (``inc``/``dec``/``set``/``observe``/
``reset``) is a read-modify-write — ``self._value += amount`` compiles to
a LOAD/ADD/STORE sequence the GIL is free to interleave, so two threads
incrementing concurrently could lose updates.  Each metric therefore
carries its own lock, held only for the few instructions of the update;
single-field reads stay lock-free (a GIL-atomic load of a stable value).
Metric locks are leaves in the serving stack's lock order: no metric ever
calls out while holding one (see docs/architecture.md).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

# Log-spaced boundaries, 8 per decade from 1e-7 to 1e5: fine enough that
# interpolated quantiles land within ~15% of the true value, wide enough
# to cover sub-microsecond timers and thousand-plan batch sizes alike.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    10.0 ** (exponent / 8.0) for exponent in range(-56, 41)
)


def _lockless_state(metric) -> dict:
    """Slot state minus the lock, for pickling/deepcopy of metrics.

    Locks are process-local runtime objects: a copied or unpickled metric
    gets a fresh, unheld one via ``_restore_state``.
    """
    return {
        slot: getattr(metric, slot)
        for slot in metric.__slots__
        if slot != "_lock"
    }


def _restore_state(metric, state: dict) -> None:
    for slot, value in state.items():
        setattr(metric, slot, value)
    metric._lock = threading.Lock()


class Counter:
    """Monotonically increasing count (events, cache hits, plans served)."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        return self._value

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def __getstate__(self) -> dict:
        return _lockless_state(self)

    def __setstate__(self, state: dict) -> None:
        _restore_state(self, state)

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Gauge:
    """Point-in-time value (queue depth, coalescing ratio, cache size)."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def reset(self) -> None:
        self._value = 0.0

    def __getstate__(self) -> dict:
        return _lockless_state(self)

    def __setstate__(self, state: dict) -> None:
        _restore_state(self, state)

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self._value})"


class Histogram:
    """Streaming distribution: count/sum/min/max plus bucketed quantiles.

    ``observe`` files the value into a fixed log-spaced bucket; ``quantile``
    finds the bucket holding the requested rank and interpolates linearly
    inside it, clamped to the observed min/max so single-observation
    histograms report exact values.
    """

    __slots__ = ("name", "help", "bounds", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} buckets must be sorted")
        self.name = name
        self.help = help
        self.bounds = bounds                     # upper bound per bucket
        self._counts = [0] * (len(bounds) + 1)   # +1 overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def observe(self, value: float, count: int = 1) -> None:
        """File ``value`` ``count`` times (one lock round trip)."""
        value = float(value)
        bucket = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[bucket] += count
            self._count += count
            self._sum += value * count
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def observe_many(self, values: Sequence[float]) -> None:
        """Batch :meth:`observe`: one lock round trip for the whole batch.

        The hot serving paths resolve whole flushes at once; filing each
        latency individually would pay a lock acquisition per request.
        Bucketing happens outside the lock, so the critical section is
        just the counter updates.
        """
        if not values:
            return
        floats = [float(value) for value in values]
        buckets = [bisect_left(self.bounds, value) for value in floats]
        low, high, total = min(floats), max(floats), sum(floats)
        with self._lock:
            for bucket in buckets:
                self._counts[bucket] += 1
            self._count += len(floats)
            self._sum += total
            if low < self._min:
                self._min = low
            if high > self._max:
                self._max = high

    def quantile(self, q: float) -> float:
        """Interpolated q-quantile (q in [0, 1]) of everything observed."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                low = self.bounds[index - 1] if index > 0 else 0.0
                high = (self.bounds[index] if index < len(self.bounds)
                        else self._max)
                # Clamp the bucket to the observed range so tight
                # distributions do not smear across the whole bucket.
                low = max(low, self._min)
                high = min(high, self._max)
                if high <= low:
                    return high
                fraction = (rank - cumulative) / bucket_count
                return low + fraction * (high - low)
            cumulative += bucket_count
        return self._max

    def bucket_counts(self) -> List[int]:
        """Per-bucket observation counts (last entry is the overflow)."""
        return list(self._counts)

    def __getstate__(self) -> dict:
        return _lockless_state(self)

    def __setstate__(self, state: dict) -> None:
        _restore_state(self, state)

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf

    def __repr__(self) -> str:
        return (f"Histogram({self.name} count={self._count} "
                f"mean={self.mean:.6g})")
