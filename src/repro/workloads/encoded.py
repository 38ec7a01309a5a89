"""Encode-once training pipeline: pre-encoded, bucketed plan datasets.

The training loop used to call ``PlanEncoder.encode_batch`` inside every
epoch — for the training batches *and* again for validation — rebuilding
identical one-hot/robust-scaled features, adjacency masks, and
``alpha ** height`` loss weights 40+ times per run.  The encoding is
deterministic given the encoder state, so all of that is redundant work.

:class:`EncodedDataset` encodes a caught-plan list exactly once (through
the vectorized ``PlanEncoder.encode_plans``) and serves size-bucketed
padded :class:`~repro.featurize.encoder.EncodedBatch` objects that are
bit-identical to what per-epoch re-encoding would have produced.  Batch
*composition* is fixed (plans sorted by node count, sliced into
``batch_size`` groups — the same deterministic grouping the trainer always
used); only the batch *order* is shuffled per epoch by the trainer's
seeded RNG, so the gradient schedule does not change by a single bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.featurize.catcher import CaughtPlan
from repro.featurize.encoder import LABEL_EPS_MS, EncodedBatch, PlanEncoder
from repro.featurize.loss_weights import loss_weights


class EncodedDataset:
    """A plan dataset encoded exactly once, served as padded batches.

    Holds per-plan feature arrays plus everything else a training batch
    needs (adjacency, heights, loss weights, labels) and assembles padded
    batches on demand.  Assembled batches are memoized per batch size, so
    epochs after the first pay only a list copy and an RNG shuffle.
    """

    def __init__(
        self,
        features: Sequence[np.ndarray],
        adjacency: Sequence[np.ndarray],
        heights: Sequence[np.ndarray],
        weights: Sequence[np.ndarray],
        labels: Optional[Sequence[np.ndarray]],
    ) -> None:
        if not features:
            raise ValueError("cannot build an empty EncodedDataset")
        self.features = list(features)
        self.adjacency = list(adjacency)
        self.heights = list(heights)
        self.weights = list(weights)
        self.labels = list(labels) if labels is not None else None
        self.node_counts = np.array(
            [f.shape[0] for f in self.features], dtype=np.int64
        )
        self.dim = int(self.features[0].shape[1])
        self._bucketed: Dict[int, List[EncodedBatch]] = {}
        self._sequential: Dict[int, List[EncodedBatch]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def encode(
        cls,
        encoder: PlanEncoder,
        plans: Sequence[CaughtPlan],
        with_labels: bool = True,
    ) -> "EncodedDataset":
        """Encode ``plans`` once through the vectorized encoder path.

        Every stored array is bit-identical to what
        ``encoder.encode_batch`` computes per epoch, which is what makes
        swapping this pipeline into the trainer a pure performance change.
        """
        if not plans:
            raise ValueError("cannot encode an empty plan list")
        features = encoder.encode_plans(plans)
        labels: Optional[List[np.ndarray]] = None
        if with_labels:
            labels = []
            for plan in plans:
                if plan.actual_times is None:
                    raise ValueError(
                        "plan has no labels; executed plans needed"
                    )
                labels.append(
                    np.log(np.maximum(plan.actual_times, LABEL_EPS_MS))
                )
        return cls(
            features=features,
            adjacency=[plan.adjacency for plan in plans],
            heights=[plan.heights for plan in plans],
            weights=[
                loss_weights(plan.heights, encoder.alpha) for plan in plans
            ],
            labels=labels,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.features)

    # ------------------------------------------------------------------ #
    # Batch assembly
    # ------------------------------------------------------------------ #
    def _assemble(self, indices: Sequence[int]) -> EncodedBatch:
        """Pad the selected plans into one batch.

        Mirrors ``PlanEncoder.encode_batch`` field for field (zero fill,
        padding rows attending to themselves, loss weight 0 on padding)
        so the two paths agree byte-for-byte.
        """
        batch = len(indices)
        n_max = int(max(self.node_counts[i] for i in indices))
        features = np.zeros((batch, n_max, self.dim), dtype=np.float64)
        attention = np.zeros((batch, n_max, n_max), dtype=bool)
        valid = np.zeros((batch, n_max), dtype=bool)
        heights = np.zeros((batch, n_max), dtype=np.int64)
        weights = np.zeros((batch, n_max), dtype=np.float64)
        labels: Optional[np.ndarray] = None
        if self.labels is not None:
            labels = np.zeros((batch, n_max), dtype=np.float64)
        for row, index in enumerate(indices):
            n = int(self.node_counts[index])
            features[row, :n] = self.features[index]
            attention[row, :n, :n] = self.adjacency[index]
            valid[row, :n] = True
            heights[row, :n] = self.heights[index]
            weights[row, :n] = self.weights[index]
            if labels is not None:
                labels[row, :n] = self.labels[index]
            if n < n_max:
                pad = np.arange(n, n_max)
                attention[row, pad, pad] = True
        return EncodedBatch(
            features=features,
            attention_mask=attention,
            valid=valid,
            heights=heights,
            loss_weights=weights,
            labels_log=labels,
        )

    def bucketed_batches(self, batch_size: int) -> List[EncodedBatch]:
        """Size-bucketed batches in deterministic (sorted) order.

        Plans are stably sorted by node count and sliced into
        ``batch_size`` groups — exactly the trainer's historical batch
        composition.  Callers shuffle the *order* of the returned list
        per epoch; the batches themselves are built once and reused.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        cached = self._bucketed.get(batch_size)
        if cached is None:
            order = sorted(range(len(self)),
                           key=lambda i: self.node_counts[i])
            cached = [
                self._assemble(order[start:start + batch_size])
                for start in range(0, len(order), batch_size)
            ]
            self._bucketed[batch_size] = cached
        return cached

    def sequential_batches(self, batch_size: int) -> List[EncodedBatch]:
        """Original-order batches (the validation/evaluation chunking)."""
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        cached = self._sequential.get(batch_size)
        if cached is None:
            cached = [
                self._assemble(range(start, min(start + batch_size, len(self))))
                for start in range(0, len(self), batch_size)
            ]
            self._sequential[batch_size] = cached
        return cached
