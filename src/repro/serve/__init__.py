"""The serving runtime: batched, cached, graph-free, fault-tolerant inference.

Everything downstream of a trained model goes through this package:

- :class:`~repro.serve.estimator.Estimator` — the protocol every
  prediction consumer (apps, CLI, benchmarks) depends on;
- :class:`~repro.serve.service.EstimatorService` — wraps a model +
  encoder behind the protocol with an LRU fingerprint cache and
  batch-sorted, no-graph inference;
- :class:`~repro.serve.fused.FusedInferStep` — the serving entry point
  of the one graph-free DACE forward that cache-miss buckets run through
  (bit-identical to the autograd ``DACEModel.forward``; LoRA-delta and
  non-DACE configurations are served by ``model.infer``);
- :class:`~repro.serve.concurrent.ConcurrentEstimatorService` — a
  thread-pool front-end that coalesces *concurrent* traffic into batched
  forwards (leader/followers drain), byte-identical to the serial path;
- :class:`~repro.serve.resilience.ResilientEstimator` — one fault
  boundary: calls the wrapped estimator once and answers each failed or
  non-finite prediction from the optimizer-cost fallback
  (:class:`~repro.serve.resilience.CostFallback`), flagged, so serving
  never raises;
- :class:`~repro.serve.chaos.ChaosEstimator` — seeded fault injection
  (errors, NaN outputs, latency spikes) for chaos testing and the
  ``serve --chaos`` replay mode;
- :class:`~repro.serve.registry.ModelRegistry` — hot-swaps
  LoRA-fine-tuned adapter sets keyed by deployment tag;
- :class:`~repro.serve.fleet.FleetGateway` — the sharded multi-tenant
  front door: consistent-hash routing (cache affinity) across N shard
  stacks, per-tenant LoRA resolution, bounded-queue admission control
  with shed-to-:class:`~repro.serve.resilience.CostFallback`, and
  ``fleet.*`` metrics.
"""

from repro.serve.cache import CacheStats, LRUCache
from repro.serve.concurrent import ConcurrentEstimatorService, PoolPrediction
from repro.serve.chaos import (
    ChaosConfig,
    ChaosEstimator,
    InjectedFault,
)
from repro.serve.estimator import Estimator, as_plan_scorers, resolve_predictions
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
    "Estimator",
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
    "ChaosConfig",
    "ChaosEstimator",
    "InjectedFault",
    "as_plan_scorers",
    "resolve_predictions",
]
