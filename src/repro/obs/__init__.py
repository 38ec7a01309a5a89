"""Observability: metrics, timers, and tracing for the serving runtime.

Dependency-free instrumentation shared by the whole stack:

- :class:`~repro.obs.metrics.Counter` / :class:`~repro.obs.metrics.Gauge`
  / :class:`~repro.obs.metrics.Histogram` — the primitives; histograms
  stream p50/p90/p99 from log-spaced buckets without storing samples;
- :class:`~repro.obs.registry.MetricsRegistry` — a named home for
  metrics plus ``timer()``/``span()`` context managers and a bounded
  span trace;
- exporters — :func:`~repro.obs.export.render_table` (human),
  :func:`~repro.obs.export.to_json_lines` (lossless, round-trips via
  :func:`~repro.obs.export.load_json_lines`), and
  :func:`~repro.obs.export.to_prometheus` (scrape endpoint text);
- :data:`~repro.obs.registry.NULL_REGISTRY` — the no-op twin used to
  measure instrumentation overhead.

The serving stack (`EstimatorService`, the worker pool, the resilience
tier) and the `Trainer` accept a registry and record per-stage timings
onto it; ``python -m repro serve --metrics out.jsonl`` dumps a report and
``python -m repro obs out.jsonl`` pretty-prints one.
"""

from repro.obs.export import (
    load_json_lines,
    render_table,
    to_json_lines,
    to_prometheus,
)
from repro.obs.metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram
from repro.obs.registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    SpanRecord,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "SpanRecord",
    "render_table",
    "to_json_lines",
    "load_json_lines",
    "to_prometheus",
]
