"""The serving runtime: batched, cached, graph-free, fault-tolerant inference.

Everything downstream of a trained model goes through this package.
Its tiers call each other through one method,
``predict_caught(Sequence[CaughtPlan]) -> ndarray``: a plan is caught
(snapshot) once, by the outermost tier or on the caller's thread, and
every tier below prices the caught plans.

- :class:`~repro.serve.service.EstimatorService` — wraps a model +
  encoder with an LRU fingerprint cache and batch-sorted, no-graph
  inference;
- :class:`~repro.serve.fused.FusedInferStep` — the serving entry point
  of the one graph-free DACE forward that cache-miss buckets run through
  (bit-identical to the autograd ``DACEModel.forward``; LoRA-delta and
  non-DACE configurations are served by ``model.infer``);
- :class:`~repro.serve.concurrent.ConcurrentEstimatorService` — a
  thread-pool front-end that coalesces *concurrent* traffic into batched
  forwards (leader/followers drain), byte-identical to the serial path;
  it refuses a wrapped object whose class does not define
  ``predict_caught``;
- :class:`~repro.serve.resilience.ResilientEstimator` — one fault
  boundary: calls the wrapped tier once and answers each failed or
  non-finite prediction from the optimizer-cost fallback
  (:class:`~repro.serve.resilience.CostFallback`), flagged, so serving
  never raises;
- :class:`~repro.serve.registry.ModelRegistry` — hot-swaps
  LoRA-fine-tuned adapter sets keyed by deployment tag;
- :class:`~repro.serve.fleet.FleetGateway` — the sharded multi-tenant
  front door: consistent-hash routing (cache affinity) across N shard
  stacks, per-tenant LoRA resolution, bounded-queue admission control
  with shed-to-:class:`~repro.serve.resilience.CostFallback`, and
  ``fleet.*`` metrics.

Seeded fault injection for chaos testing and ``serve --chaos`` lives in
:mod:`repro.bench.chaos`, next to the ``chaos`` cell.
"""

from repro.serve.cache import CacheStats, LRUCache
from repro.serve.concurrent import ConcurrentEstimatorService, PoolPrediction
from repro.serve.fleet import (
    ConsistentHashRing,
    FleetGateway,
    FleetPrediction,
    FleetShard,
)
from repro.serve.fused import FusedInferStep, maybe_fused_infer
from repro.serve.registry import ModelRegistry
from repro.serve.resilience import CostFallback, ResilientEstimator
from repro.serve.service import EstimatorService

__all__ = [
    "EstimatorService",
    "FusedInferStep",
    "maybe_fused_infer",
    "ConcurrentEstimatorService",
    "PoolPrediction",
    "ConsistentHashRing",
    "FleetGateway",
    "FleetPrediction",
    "FleetShard",
    "ModelRegistry",
    "LRUCache",
    "CacheStats",
    "CostFallback",
    "ResilientEstimator",
]
