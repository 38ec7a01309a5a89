"""EstimatorService: the batched, cached, graph-free prediction path.

Wraps any model + encoder pair behind ``predict_caught``, the method the
serving tiers call on each other, and the plan-level ``predict*`` calls:

- **no-graph forward** — cache-miss buckets run through the model's
  graph-free ``infer``/``embed_infer``; for a stock DACE that is the one
  numpy forward training shares (:mod:`repro.core.model`), bit-identical
  to the autograd ``forward``.  A stock DACE with no LoRA adapter enabled
  enters it through :class:`~repro.serve.fused.FusedInferStep`, which
  counts each batch on ``serve.fused.forwards``; one with an adapter
  enabled goes through ``model.infer`` and counts on
  ``serve.fused.fallbacks``;
- **encoding/prediction cache** — per-plan node-level predictions and
  embeddings are cached in an LRU keyed by
  :meth:`~repro.featurize.catcher.CaughtPlan.fingerprint`, with hit/miss
  counters exposed as ``service.cache_stats``;
- **batching** — cache misses are sorted by node count (small padding)
  and run through the model in ``batch_size`` chunks, whatever the
  granularity of the incoming call.

The cache stores *log-space node vectors*, so one warm entry serves
``predict_plan``, ``predict_subplans``, and dataset-level calls alike.
Cached arrays are **read-only** (``flags.writeable = False``) — the same
object is handed to every hit, so in-place mutation would poison every
later lookup; NumPy raises instead.  Owners must call :meth:`invalidate`
whenever model weights change (training, LoRA fine-tuning, adapter
hot-swap).

Every service carries a :class:`~repro.obs.registry.MetricsRegistry`
(``service.metrics``) recording per-stage wall time
(``serve.encode_seconds``, ``serve.forward_seconds``,
``serve.request_seconds``), the batch-size distribution
(``serve.batch_size``), request/plan counters, and the cache's
hit/miss/eviction counters (``serve.cache.*``).

**Deterministic batching.**  Model outputs shift at the ~1e-14 level when
the padded width of a batch changes, so two calls that co-batch a plan
with different neighbours would disagree in the last bits.  The service
therefore pads every forward to a *bucketed* width — ``PAD_BASE`` (16),
growing by x1.5 as plans outgrow it — and only co-batches plans from the
same bucket.  A plan's bits then depend on nothing but the plan itself,
which is what lets the concurrent front-end
(:class:`~repro.serve.concurrent.ConcurrentEstimatorService`) coalesce
arbitrary request mixes and still answer byte-for-byte equal to the
serial path.

**Thread safety.**  The service holds no per-call mutable state: model
weights and the fitted scaler are read-only at serving time, the LRU
cache locks internally, and all counters are lock-protected
:mod:`repro.obs` metrics, so any number of threads may call ``predict*``
concurrently.  Two threads that miss on the same fingerprint both run the
forward and both insert — identical (deterministic) values, so the race
is benign and lock-free reads stay cheap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.plan import PlanNode
from repro.featurize.catcher import CaughtPlan, catch_plan
from repro.obs import MetricsRegistry
from repro.serve.cache import CacheStats, LRUCache
from repro.serve.fused import FusedInferStep, maybe_fused_infer

DEFAULT_CACHE_SIZE = 4096
# Narrowest padded width a forward runs at (see _pad_width).
PAD_BASE = 16


class EstimatorService:
    """Serves latency predictions for plans from one model + encoder."""

    def __init__(
        self,
        model,
        encoder,
        batch_size: int = 64,
        cache_size: int = DEFAULT_CACHE_SIZE,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.encoder = encoder
        self.batch_size = batch_size
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Workload-dependent extra features read predicate literals the
        # fingerprint does not cover, so two distinct plans can share a
        # fingerprint: both the cache and in-call dedup must stand down.
        self._fingerprint_safe = not getattr(encoder, "extra_features", False)
        if not self._fingerprint_safe:
            cache_size = 0
        self._cache = LRUCache(
            cache_size, stats=CacheStats(self.metrics, prefix="serve.cache")
        )
        # Encoding memo: per-plan encode_plan arrays keyed by fingerprint.
        # Separate layer from the prediction cache — a plan whose
        # prediction was evicted (or never cached, cache_size=0) still
        # pays its forward, but not a byte-identical re-encode.
        self._encodings = LRUCache(
            DEFAULT_CACHE_SIZE if self._fingerprint_safe else 0,
            stats=CacheStats(self.metrics, prefix="serve.enc_cache"),
        )
        self._requests = self.metrics.counter(
            "serve.requests", help="prediction/embedding calls served"
        )
        self._plans_seen = self.metrics.counter(
            "serve.plans", help="plans routed through the service"
        )
        self._batch_sizes = self.metrics.histogram(
            "serve.batch_size", help="plans per model forward"
        )
        # The adapter state is re-checked per call
        # (FusedInferStep.engaged), so adapter flips on a live model need
        # no rebuild.
        self._fused = maybe_fused_infer(model)
        self._fused_forwards = self.metrics.counter(
            "serve.fused.forwards", help="batches served by FusedInferStep"
        )
        self._fused_fallbacks = self.metrics.counter(
            "serve.fused.fallbacks",
            help="batches of a LoRA-enabled DACE, served by model.infer",
        )

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #
    @property
    def cache_stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def invalidate(self) -> None:
        """Drop cached predictions and encodings — required after any
        weight change (and after refitting the encoder's scaler)."""
        self._cache.clear()
        self._encodings.clear()

    def invalidate_predictions(self) -> None:
        """Drop cached predictions but keep the encoding memo.

        The right call after a *weight-only* change — a LoRA adapter
        hot-swap: ``encode_plan`` arrays are a function of the encoder
        (and its fitted scaler) alone, so they stay valid across adapter
        swaps, and a fleet shard cycling through tenants re-encodes
        nothing.  Any change that touches the encoder or scaler still
        requires the full :meth:`invalidate`.
        """
        self._cache.clear()

    def reset_stats(self) -> None:
        """Zero every metric on the registry (cache counters included)."""
        self.metrics.reset()

    # ------------------------------------------------------------------ #
    # Model access
    # ------------------------------------------------------------------ #
    def _fused_step(self) -> Optional[FusedInferStep]:
        """The fused step if it should serve this batch, else None."""
        fused = self._fused
        if fused is None:
            return None
        if fused.engaged():
            self._fused_forwards.inc()
            return fused
        self._fused_fallbacks.inc()
        return None

    def _forward(self, batch) -> np.ndarray:
        fused = self._fused_step()
        if fused is not None:
            return fused.forward(batch)
        return self.model.infer(batch)

    def _embed_forward(self, batch) -> np.ndarray:
        fused = self._fused_step()
        if fused is not None:
            return fused.embed(batch)
        return self.model.embed_infer(batch)

    # ------------------------------------------------------------------ #
    # Deterministic chunking
    # ------------------------------------------------------------------ #
    def _pad_width(self, num_nodes: int) -> int:
        """Bucketed padded width for a plan.

        Buckets grow by x1.5 (16, 24, 36, 54, ...): attention cost is
        quadratic in the padded width, so doubling buckets waste up to
        4x compute on plans just past a boundary; x1.5 caps the waste at
        ~2.25x worst case while keeping the bucket count small.
        """
        width = PAD_BASE
        while width < num_nodes:
            width += width >> 1
        return width

    def _iter_chunks(self, misses, caught):
        """Split sorted miss indices into (chunk, pad_to) forwards.

        Chunks never mix padding buckets: since ``misses`` is sorted by
        node count, each bucket is a contiguous run, and a chunk ends at
        ``batch_size`` or at the bucket boundary, whichever comes first.
        """
        start = 0
        total = len(misses)
        while start < total:
            width = self._pad_width(caught[misses[start]].num_nodes)
            end = start + 1
            while (
                end < total
                and end - start < self.batch_size
                and self._pad_width(caught[misses[end]].num_nodes) == width
            ):
                end += 1
            yield misses[start:end], width
            start = end

    def _chunk_features(self, chunk_plans) -> Optional[List[np.ndarray]]:
        """Per-plan ``encode_plan`` arrays for one chunk, memoized.

        Hits come from the fingerprint-keyed encoding memo; misses are
        computed and stored read-only.  Returns None when fingerprints
        are unsafe (the encoder reads predicate literals the fingerprint
        does not cover), letting ``encode_batch`` do the work directly.
        """
        if not self._fingerprint_safe:
            return None
        features = [
            self._encodings.get(plan.fingerprint()) for plan in chunk_plans
        ]
        for index, plan in enumerate(chunk_plans):
            if features[index] is None:
                array = self.encoder.encode_plan(plan)
                array.flags.writeable = False
                features[index] = array
                self._encodings.put(plan.fingerprint(), array)
        return features

    # ------------------------------------------------------------------ #
    # Core cached/batched inference over caught plans
    # ------------------------------------------------------------------ #
    def _run_batched(
        self,
        caught: Sequence[CaughtPlan],
        kind: str,
        forward,
        extract,
    ) -> List[np.ndarray]:
        """One per-plan array per input, resolving via cache then batches.

        ``forward`` maps an encoded batch to a (B, ...) array; ``extract``
        slices row ``row`` of that output down to plan ``plan``'s own
        entry (trimming padding).

        Duplicate fingerprints within one call are encoded and forwarded
        once; the other occurrences resolve from that first computation
        and count as cache hits.  Every array handed back (and cached) is
        read-only so a caller mutating a result cannot poison later hits.
        """
        self._requests.inc()
        self._plans_seen.inc(len(caught))
        with self.metrics.span("serve.request_seconds"):
            results: List[Optional[np.ndarray]] = [None] * len(caught)
            misses: List[int] = []
            # First in-call index per fingerprint, so duplicates piggyback
            # on one computation instead of each missing independently.
            pending: Dict[Tuple[str, str], int] = {}
            duplicates: Dict[int, List[int]] = {}
            # With storage disabled (capacity 0) every lookup misses by
            # definition: skip the per-plan mutex round trips and record
            # the misses in one stroke after the scan.
            cache_on = self._cache.capacity > 0
            for index, plan in enumerate(caught):
                key = (kind, plan.fingerprint())
                if self._fingerprint_safe and key in pending:
                    duplicates.setdefault(pending[key], []).append(index)
                    self._cache.stats.record_hit()
                    continue
                entry = self._cache.get(key) if cache_on else None
                if entry is not None:
                    results[index] = entry
                else:
                    if self._fingerprint_safe:
                        pending[key] = index
                    misses.append(index)
            if not cache_on and misses:
                self._cache.stats.record_miss(len(misses))
            if misses:
                # Sort by node count so padding inside each chunk stays
                # small.
                misses.sort(key=lambda index: caught[index].num_nodes)
                for chunk, pad_to in self._iter_chunks(misses, caught):
                    self._batch_sizes.observe(len(chunk))
                    chunk_plans = [caught[index] for index in chunk]
                    with self.metrics.span("serve.encode_seconds"):
                        batch = self.encoder.encode_batch(
                            chunk_plans,
                            with_labels=False,
                            pad_to=pad_to,
                            node_features=self._chunk_features(chunk_plans),
                        )
                    with self.metrics.span("serve.forward_seconds"):
                        output = forward(batch)
                    for row, index in enumerate(chunk):
                        value = extract(output, row, caught[index])
                        value.flags.writeable = False
                        results[index] = value
                        # Validate before insert: a NaN/inf prediction must
                        # never become a sticky cache entry that keeps
                        # answering long after the fault has passed.
                        if cache_on:
                            if np.all(np.isfinite(value)):
                                self._cache.put(
                                    (kind, caught[index].fingerprint()),
                                    value,
                                )
                            else:
                                self._cache.stats.record_rejection()
                        for dup in duplicates.get(index, ()):
                            results[dup] = value
        return results  # type: ignore[return-value]

    def _node_logs(self, caught: Sequence[CaughtPlan]) -> List[np.ndarray]:
        """Per-plan log-latency vectors (one entry per node, DFS order)."""
        return self._run_batched(
            caught,
            "pred",
            self._forward,
            lambda output, row, plan: output[row, :plan.num_nodes].copy(),
        )

    def _embeddings(self, caught: Sequence[CaughtPlan]) -> List[np.ndarray]:
        return self._run_batched(
            caught,
            "embed",
            self._embed_forward,
            lambda output, row, plan: output[row].copy(),
        )

    # ------------------------------------------------------------------ #
    # Prediction (plans)
    # ------------------------------------------------------------------ #
    def predict_plan(self, plan: PlanNode) -> float:
        """Predicted latency (ms) for a single plan."""
        logs = self._node_logs([catch_plan(plan)])
        return float(np.exp(logs[0][0]))

    def predict_plans(self, plans: Sequence[PlanNode]) -> np.ndarray:
        """Predicted latency (ms) per plan, batched and cached."""
        return self.predict_caught([catch_plan(plan) for plan in plans])

    def predict_caught(self, caught: Sequence[CaughtPlan]) -> np.ndarray:
        """``predict_plans`` for already-caught plans.

        Lets front-ends that snapshot plans on their own threads (the
        concurrent pool catches at submit time) skip the per-request
        catch + fingerprint work on the serialized drain path.
        """
        logs = self._node_logs(caught)
        return np.exp(np.array([entry[0] for entry in logs]))

    def predict_subplans(self, plan: PlanNode) -> np.ndarray:
        """Predicted latency (ms) for every sub-plan, in DFS order."""
        logs = self._node_logs([catch_plan(plan)])
        return np.exp(logs[0])

    # ------------------------------------------------------------------ #
    # Prediction (datasets)
    # ------------------------------------------------------------------ #
    def predict_log(self, dataset) -> np.ndarray:
        """Predicted root log-latency per plan of a PlanDataset."""
        logs = self._node_logs([catch_plan(s.plan) for s in dataset])
        return np.array([entry[0] for entry in logs])

    def predict(self, dataset) -> np.ndarray:
        """Predicted latency (ms) per plan of a PlanDataset."""
        return np.exp(self.predict_log(dataset))

    # ------------------------------------------------------------------ #
    # Embeddings (paper eq. 9)
    # ------------------------------------------------------------------ #
    def embed_plan(self, plan: PlanNode) -> np.ndarray:
        """Pre-trained-encoder context vector ``w_E`` for one plan."""
        return self._embeddings([catch_plan(plan)])[0]

    def embed_dataset(self, dataset) -> np.ndarray:
        """Context vectors for every plan: shape (len(dataset), hidden2)."""
        embeddings = self._embeddings([catch_plan(s.plan) for s in dataset])
        if embeddings:
            return np.stack(embeddings)
        # Preserve the embedding width even when empty so downstream
        # concatenation (np.hstack with other feature blocks) still works.
        hidden = getattr(getattr(self.model, "config", None), "hidden2", 0)
        return np.empty((0, hidden))
