"""The plan encoder: one-hot node types + robust-scaled DBMS estimates.

Per node the encoding is ``[one_hot(node_type, 16), scaled_card,
scaled_cost]`` (d = 18, matching the paper).  The scaler is fit on the
training plans only and log-transforms the heavy-tailed estimates before
median/IQR scaling, as Zero-Shot's robust scaling does.

Plans are batched with padding; a padded position's attention row lets it
attend only to itself (avoiding NaN softmax rows) and its loss weight is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.engine.plan import NODE_TYPES
from repro.featurize.catcher import CaughtPlan
from repro.featurize.loss_weights import DEFAULT_ALPHA, loss_weights

NUM_NODE_TYPES = len(NODE_TYPES)  # 16
ENCODING_DIM = NUM_NODE_TYPES + 2  # + scaled card, scaled cost = 18
LABEL_EPS_MS = 1e-3  # floor before taking log of latencies


class RobustScaler:
    """Median/IQR scaling after log1p, fit on training data only."""

    def __init__(self) -> None:
        self.center_: Optional[np.ndarray] = None
        self.scale_: Optional[np.ndarray] = None

    def fit(self, values: np.ndarray) -> "RobustScaler":
        """Fit on a (num_samples, num_features) array of raw estimates."""
        logged = np.log1p(np.maximum(values, 0.0))
        self.center_ = np.median(logged, axis=0)
        q75, q25 = np.percentile(logged, [75, 25], axis=0)
        iqr = q75 - q25
        self.scale_ = np.where(iqr > 1e-12, iqr, 1.0)
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        if self.center_ is None:
            raise RuntimeError("scaler must be fit before transform")
        logged = np.log1p(np.maximum(values, 0.0))
        return (logged - self.center_) / self.scale_

    def state(self) -> dict:
        return {"center": self.center_, "scale": self.scale_}

    def load_state(self, state: dict) -> None:
        self.center_ = np.asarray(state["center"], dtype=np.float64)
        self.scale_ = np.asarray(state["scale"], dtype=np.float64)


@dataclass
class EncodedBatch:
    """A padded batch of encoded plans, ready for the model."""

    features: np.ndarray      # (B, n_max, 18)
    attention_mask: np.ndarray  # (B, n_max, n_max) bool
    valid: np.ndarray         # (B, n_max) bool — real (non-padding) nodes
    heights: np.ndarray       # (B, n_max) int
    loss_weights: np.ndarray  # (B, n_max) float, 0 on padding
    labels_log: Optional[np.ndarray]  # (B, n_max) log-latency, 0 on padding

    @property
    def batch_size(self) -> int:
        return self.features.shape[0]

    @property
    def max_nodes(self) -> int:
        return self.features.shape[1]


NUM_EXTRA_FEATURES = 4


class PlanEncoder:
    """Encodes caught plans into padded model-ready batches.

    ``card_source`` selects which cardinality feeds the encoding:
    ``"estimated"`` (the DBMS estimate — DACE proper) or ``"actual"`` (the
    true cardinality — the paper's DACE-A oracle variant, Fig 12).

    ``extra_features`` appends the richer, *workload-dependent* per-node
    features the WDM baselines' original designs consume — tuple width,
    predicate count, raw literal magnitudes, operator mix.  These carry
    data characteristics: they add in-distribution signal but shift under
    template/data/database drift, which is exactly the fragility the paper
    attributes to WDMs (DACE deliberately omits them; see Insight I).
    """

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        card_source: str = "estimated",
        extra_features: bool = False,
    ) -> None:
        if card_source not in ("estimated", "actual"):
            raise ValueError(f"unknown card_source {card_source!r}")
        self.alpha = alpha
        self.card_source = card_source
        self.extra_features = extra_features
        self.scaler = RobustScaler()

    def _cards(self, plan: CaughtPlan) -> np.ndarray:
        if self.card_source == "estimated":
            return plan.est_rows
        if plan.actual_rows is None:
            raise ValueError(
                "card_source='actual' needs executed plans with actual rows"
            )
        return plan.actual_rows

    # ------------------------------------------------------------------ #
    def fit(self, plans: Iterable[CaughtPlan]) -> "PlanEncoder":
        """Fit the robust scaler on training plans' (card, cost) pairs."""
        rows: List[np.ndarray] = []
        for plan in plans:
            rows.append(np.stack([self._cards(plan), plan.est_costs], axis=1))
        if not rows:
            raise ValueError("cannot fit encoder on an empty plan set")
        self.scaler.fit(np.concatenate(rows, axis=0))
        return self

    @property
    def is_fit(self) -> bool:
        return self.scaler.center_ is not None

    @property
    def dim(self) -> int:
        """Per-node encoding length."""
        return ENCODING_DIM + (NUM_EXTRA_FEATURES if self.extra_features
                               else 0)

    def _extra(self, plan: CaughtPlan) -> np.ndarray:
        """The workload-dependent extra features (n, 4): raw-scale width,
        predicate count, mean literal magnitude, equality-operator mix."""
        rows = []
        for node in plan.nodes:
            literals = [
                p.value if p.op != "in" else float(np.mean(p.values))
                for p in node.predicates
            ]
            if literals:
                magnitude = float(np.mean([
                    np.sign(v) * np.log1p(abs(v)) for v in literals
                ])) / 10.0
                eq_fraction = float(np.mean([
                    1.0 if p.op in ("=", "in") else 0.0
                    for p in node.predicates
                ]))
            else:
                magnitude = 0.0
                eq_fraction = 0.0
            rows.append([
                np.log1p(node.width) / 10.0,
                len(node.predicates) / 4.0,
                magnitude,
                eq_fraction,
            ])
        return np.asarray(rows, dtype=np.float64)

    # ------------------------------------------------------------------ #
    def encode_plan(self, plan: CaughtPlan) -> np.ndarray:
        """Node encodings of shape (n, self.dim), dtype float64.

        float64 is the encoding contract: every downstream consumer
        (autograd tensors, the graph-free serving kernels, the on-disk
        encoding cache) assumes it, and the bit-identity guarantees
        between those paths depend on it.
        """
        if not self.is_fit:
            raise RuntimeError("encoder must be fit before encoding")
        n = plan.num_nodes
        one_hot = np.zeros((n, NUM_NODE_TYPES), dtype=np.float64)
        one_hot[np.arange(n), plan.node_type_ids] = 1.0
        scaled = self.scaler.transform(
            np.stack([self._cards(plan), plan.est_costs], axis=1)
        )
        parts = [one_hot, scaled]
        if self.extra_features:
            parts.append(self._extra(plan))
        return np.concatenate(parts, axis=1)

    def encode_plans(self, plans: Sequence[CaughtPlan]) -> List[np.ndarray]:
        """Vectorized :meth:`encode_plan` over many plans at once.

        Concatenates every plan's (card, cost) rows into one array, runs a
        single scaler transform and a single one-hot scatter over the
        whole workload, then splits back per plan.  The scaler is purely
        elementwise, so each returned array is bit-identical to what
        ``encode_plan`` produces for that plan — this is what lets the
        training pipeline encode a dataset once without changing a single
        bit of the gradient schedule.
        """
        if not plans:
            return []
        if not self.is_fit:
            raise RuntimeError("encoder must be fit before encoding")
        counts = [plan.num_nodes for plan in plans]
        raw = np.concatenate([
            np.stack([self._cards(plan), plan.est_costs], axis=1)
            for plan in plans
        ], axis=0)
        scaled = self.scaler.transform(raw)
        type_ids = np.concatenate([plan.node_type_ids for plan in plans])
        total = type_ids.shape[0]
        one_hot = np.zeros((total, NUM_NODE_TYPES), dtype=np.float64)
        one_hot[np.arange(total), type_ids] = 1.0
        parts = [one_hot, scaled]
        if self.extra_features:
            parts.append(np.concatenate(
                [self._extra(plan) for plan in plans], axis=0
            ))
        stacked = np.concatenate(parts, axis=1)
        offsets = np.cumsum(counts)[:-1]
        return np.split(stacked, offsets, axis=0)

    def encode_batch(
        self,
        plans: Sequence[CaughtPlan],
        with_labels: bool = True,
        pad_to: Optional[int] = None,
        node_features: Optional[Sequence[np.ndarray]] = None,
    ) -> EncodedBatch:
        """Pad a list of plans into one batch.

        ``pad_to`` forces the padded width up to at least that many nodes
        (plans wider than ``pad_to`` still pad to the batch maximum).  A
        fixed width makes each plan's forward-pass bits independent of
        whatever it happens to be batched with — the foundation of the
        serving stack's determinism guarantee under concurrent batching.

        ``node_features`` supplies precomputed :meth:`encode_plan` arrays
        (one per plan, same order), letting the serving path reuse
        encodings it has memoized and keep only the padded assembly here.
        The arrays must be exactly what ``encode_plan`` returns, so
        assembly stays bit-identical.
        """
        if not plans:
            raise ValueError("empty batch")
        if node_features is not None and len(node_features) != len(plans):
            raise ValueError(
                f"got {len(node_features)} precomputed encodings "
                f"for {len(plans)} plans"
            )
        batch = len(plans)
        n_max = max(plan.num_nodes for plan in plans)
        if pad_to is not None:
            n_max = max(n_max, pad_to)
        if node_features is None:
            # One vectorized encoding pass over the whole batch (bit-
            # identical to per-plan encode_plan calls; see encode_plans).
            node_features = self.encode_plans(plans)

        features = np.zeros((batch, n_max, self.dim), dtype=np.float64)
        attention = np.zeros((batch, n_max, n_max), dtype=bool)
        valid = np.zeros((batch, n_max), dtype=bool)
        heights = np.zeros((batch, n_max), dtype=np.int64)
        weights = np.zeros((batch, n_max), dtype=np.float64)
        labels: Optional[np.ndarray] = None
        if with_labels:
            labels = np.zeros((batch, n_max), dtype=np.float64)

        for index, plan in enumerate(plans):
            n = plan.num_nodes
            features[index, :n] = node_features[index]
            attention[index, :n, :n] = plan.adjacency
            valid[index, :n] = True
            heights[index, :n] = plan.heights
            if with_labels:
                # Loss weights only matter when a loss will be computed;
                # label-free (inference) batches keep the zero fill and
                # skip the per-plan height walk on the serving hot path.
                weights[index, :n] = loss_weights(plan.heights, self.alpha)
                if plan.actual_times is None:
                    raise ValueError("plan has no labels; executed plans needed")
                labels[index, :n] = np.log(
                    np.maximum(plan.actual_times, LABEL_EPS_MS)
                )
            # Padding rows attend to themselves so softmax rows stay finite.
            if n < n_max:
                pad = np.arange(n, n_max)
                attention[index, pad, pad] = True
        return EncodedBatch(
            features=features,
            attention_mask=attention,
            valid=valid,
            heights=heights,
            loss_weights=weights,
            labels_log=labels,
        )

    # ------------------------------------------------------------------ #
    def state(self) -> dict:
        return {
            "alpha": self.alpha,
            "card_source": self.card_source,
            **self.scaler.state(),
        }

    def load_state(self, state: dict) -> None:
        self.alpha = float(state["alpha"])
        self.card_source = str(state.get("card_source", "estimated"))
        self.scaler.load_state(state)
