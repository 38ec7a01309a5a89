"""MetricsRegistry: one named home for every counter, gauge, and timer.

A registry is a flat namespace of metrics (``serve.encode_seconds``,
``batch.flush_size``, ...) plus a bounded span trace.  Components create
metrics lazily through ``counter``/``gauge``/``histogram`` — repeated
calls return the same object, so a service and the batcher in front of it
can share one registry and one report.

Timing comes in two flavours:

- ``timer(name)`` — context manager that records elapsed wall-time
  (seconds) into the histogram ``name``;
- ``span(name)`` — ``timer`` plus a trace record (name, start offset,
  duration, nesting depth) appended to a bounded ring buffer, so the
  last N stage executions can be reconstructed in order.

``NULL_REGISTRY`` is a shared no-op implementation with the same API: a
component handed it pays (almost) nothing, which is what the
instrumentation-overhead benchmark compares against.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Union

from repro.obs.metrics import Counter, Gauge, Histogram

Metric = Union[Counter, Gauge, Histogram]

DEFAULT_TRACE_CAPACITY = 512


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: where a stage ran inside the trace timeline."""

    name: str
    start: float          # seconds since the registry was created
    duration: float       # seconds
    depth: int            # nesting level at entry (0 = top-level)


class _Timer:
    """Context manager recording wall-time into a histogram."""

    __slots__ = ("_histogram", "_registry", "_trace", "_start", "last")

    def __init__(self, histogram: Histogram,
                 registry: Optional["MetricsRegistry"] = None) -> None:
        self._histogram = histogram
        self._registry = registry        # set only for span(): enables trace
        self._start = 0.0
        self.last = 0.0

    def __enter__(self) -> "_Timer":
        if self._registry is not None:
            self._registry._depth += 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        self.last = elapsed
        self._histogram.observe(elapsed)
        if self._registry is not None:
            registry = self._registry
            registry._depth -= 1
            # deque.append with a maxlen is a single GIL-atomic op, so
            # concurrent spans interleave but never corrupt the ring.
            registry._trace.append(SpanRecord(
                name=self._histogram.name,
                start=self._start - registry._epoch,
                duration=elapsed,
                depth=registry._depth,
            ))


class MetricsRegistry:
    """Named metrics plus a bounded span trace."""

    def __init__(self, trace_capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        self._metrics: "OrderedDict[str, Metric]" = OrderedDict()
        self._trace: Deque[SpanRecord] = deque(maxlen=trace_capacity)
        self._epoch = time.perf_counter()
        # Span nesting depth is a per-thread notion: two threads timing
        # stages concurrently are not nested inside each other.
        self._local = threading.local()
        self._create_lock = threading.Lock()

    def __getstate__(self) -> dict:
        # Locks and thread-locals are process-local runtime state: a
        # copied/unpickled registry gets fresh ones (span depth resets).
        state = self.__dict__.copy()
        del state["_create_lock"]
        del state["_local"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._local = threading.local()
        self._create_lock = threading.Lock()

    @property
    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    @_depth.setter
    def _depth(self, value: int) -> None:
        self._local.depth = value

    # ------------------------------------------------------------------ #
    # Metric creation (get-or-create by name)
    # ------------------------------------------------------------------ #
    def _get_or_create(self, name: str, kind, **kwargs) -> Metric:
        # Lock-free fast path: once created, a metric is never replaced,
        # so a plain read either sees it or falls through to the locked
        # create (which re-checks).
        metric = self._metrics.get(name)
        if metric is None:
            with self._create_lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = kind(name, **kwargs)
                    self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help=help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get_or_create(name, Histogram, help=help, buckets=buckets)

    # ------------------------------------------------------------------ #
    # Timing
    # ------------------------------------------------------------------ #
    def timer(self, name: str, help: str = "") -> _Timer:
        """Record elapsed seconds into histogram ``name`` on exit."""
        return _Timer(self.histogram(name, help=help))

    def span(self, name: str, help: str = "") -> _Timer:
        """``timer`` that also appends a :class:`SpanRecord` to the trace."""
        return _Timer(self.histogram(name, help=help), registry=self)

    @property
    def trace(self) -> List[SpanRecord]:
        """The most recent completed spans, oldest first."""
        return list(self._trace)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def as_dict(self) -> Dict[str, Metric]:
        return dict(self._metrics)

    def reset(self) -> None:
        """Zero every metric and drop the trace (names stay registered)."""
        for metric in self._metrics.values():
            metric.reset()
        self._trace.clear()


# ---------------------------------------------------------------------- #
# Null objects: same API, no work — the uninstrumented baseline.
# ---------------------------------------------------------------------- #
class _NullMetric:
    """Accepts every Counter/Gauge/Histogram call and does nothing."""

    __slots__ = ()
    name = "null"
    help = ""
    value = 0
    count = 0
    sum = 0.0
    mean = 0.0
    min = 0.0
    max = 0.0

    def inc(self, amount=1):
        pass

    def dec(self, amount=1):
        pass

    def set(self, value):
        pass

    def observe(self, value, count=1):
        pass

    def quantile(self, q):
        return 0.0

    def bucket_counts(self):
        return []

    def reset(self):
        pass


class _NullTimer:
    __slots__ = ()
    last = 0.0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        pass


class NullRegistry(MetricsRegistry):
    """A registry whose metrics and timers are shared no-ops."""

    _METRIC = _NullMetric()
    _TIMER = _NullTimer()

    def __init__(self) -> None:
        super().__init__(trace_capacity=1)

    def counter(self, name: str, help: str = ""):
        return self._METRIC

    def gauge(self, name: str, help: str = ""):
        return self._METRIC

    def histogram(self, name: str, help: str = "", buckets=None):
        return self._METRIC

    def timer(self, name: str, help: str = ""):
        return self._TIMER

    def span(self, name: str, help: str = ""):
        return self._TIMER


NULL_REGISTRY = NullRegistry()
