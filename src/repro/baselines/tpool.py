"""TPool (Sun & Li, "An end-to-end learning-based cost estimator", VLDB 2019).

A tree-pooling model trained **multi-task**: every node predicts both its
sub-plan latency and its output cardinality.  A shared representation MLP
embeds each node's features; a combiner merges the node embedding with the
mean-pooled children states; two linear heads emit (log latency,
log1p cardinality) per node.

Faithful simplifications: the original's string-predicate embeddings are
replaced by the numeric node encodings our substrate exposes; the
representation/pooling structure and the multi-task objective are kept.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.base import CostEstimatorBase
from repro.baselines.common import TreeLevelBatch, build_tree_levels
from repro.featurize.catcher import CaughtPlan, catch_plan
from repro.featurize.encoder import PlanEncoder
from repro.nn import Adam, Module, Tensor, no_grad
from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.losses import log_qerror_loss
from repro.workloads.dataset import PlanDataset


class _TPoolNet(Module):
    def __init__(self, input_dim: int, hidden: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.hidden = hidden
        self.represent = Sequential(
            Linear(input_dim, hidden, rng=rng), ReLU(),
            Linear(hidden, hidden, rng=rng), ReLU(),
        )
        self.combine = Sequential(
            Linear(2 * hidden, hidden, rng=rng), ReLU(),
            Linear(hidden, hidden, rng=rng), ReLU(),
        )
        self.cost_head = Linear(hidden, 1, rng=rng)
        self.card_head = Linear(hidden, 1, rng=rng)

    def forward(self, batch: TreeLevelBatch):
        """Returns (cost preds per level, card preds per level, root costs)."""
        deeper_hidden: Optional[Tensor] = None
        cost_preds: List[Tensor] = []
        card_preds: List[Tensor] = []
        for level in batch.levels:
            n = level.num_nodes
            own = self.represent(Tensor(level.features))
            if deeper_hidden is None or level.child_mean is None:
                pooled = Tensor(np.zeros((n, self.hidden)))
            else:
                pooled = Tensor(level.child_mean) @ deeper_hidden
            hidden = self.combine(Tensor.concat([own, pooled], axis=1))
            cost = self.cost_head(hidden)
            card = self.card_head(hidden)
            cost_preds.append(cost.reshape(n))
            card_preds.append(card.reshape(n))
            deeper_hidden = hidden
        roots = cost_preds[-1][batch.root_order]
        return cost_preds, card_preds, roots


class TPoolModel(CostEstimatorBase):
    """TPool with the fit/predict interface (multi-task cost + cardinality)."""

    name = "TPool"

    def __init__(
        self,
        hidden: int = 160,
        epochs: int = 30,
        batch_size: int = 64,
        lr: float = 1e-3,
        card_loss_weight: float = 0.5,
        seed: int = 0,
    ) -> None:
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.card_loss_weight = card_loss_weight
        self.seed = seed
        self.encoder = PlanEncoder(extra_features=True)
        self.net = _TPoolNet(
            self.encoder.dim, hidden, np.random.default_rng(seed)
        )

    def _batches(self, plans: Sequence[CaughtPlan], rng: np.random.Generator):
        order = sorted(range(len(plans)), key=lambda i: plans[i].num_nodes)
        chunks = [
            [plans[i] for i in order[s:s + self.batch_size]]
            for s in range(0, len(order), self.batch_size)
        ]
        rng.shuffle(chunks)
        return chunks

    def fit(self, train: PlanDataset) -> "TPoolModel":
        plans = [catch_plan(s.plan) for s in train]
        if not self.encoder.is_fit:
            self.encoder.fit(plans)
        rng = np.random.default_rng(self.seed)
        optimizer = Adam(self.net.trainable_parameters(), lr=self.lr)
        for _ in range(self.epochs):
            for chunk in self._batches(plans, rng):
                batch = build_tree_levels(chunk, self.encoder)
                optimizer.zero_grad()
                cost_preds, card_preds, _ = self.net(batch)
                total_nodes = sum(l.num_nodes for l in batch.levels)
                loss = None
                for level, cost, card in zip(
                    batch.levels, cost_preds, card_preds
                ):
                    term = log_qerror_loss(cost, level.labels_log)
                    term = term + self.card_loss_weight * log_qerror_loss(
                        card, level.card_labels_log
                    )
                    term = term * level.num_nodes
                    loss = term if loss is None else loss + term
                loss = loss * (1.0 / total_nodes)
                loss.backward()
                optimizer.step()
        return self

    def predict_ms(self, test: PlanDataset) -> np.ndarray:
        plans = [catch_plan(s.plan) for s in test]
        out = np.empty(len(plans))
        with no_grad():
            for start in range(0, len(plans), self.batch_size):
                chunk = plans[start:start + self.batch_size]
                batch = build_tree_levels(chunk, self.encoder, with_labels=False)
                _, _, roots = self.net(batch)
                out[start:start + len(chunk)] = roots.data
        return np.exp(out)

    def num_parameters(self) -> int:
        return self.net.num_parameters()
