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

from typing import List, Optional

import numpy as np

from repro.baselines.base import LearnedBaseline
from repro.baselines.common import TreeLevelBatch
from repro.featurize.encoder import PlanEncoder
from repro.nn import Module, Tensor
from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.losses import log_qerror_loss

HIDDEN = 160
CARD_LOSS_WEIGHT = 0.5


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


class TPoolModel(LearnedBaseline):
    """TPool with the fit/predict interface (multi-task cost + cardinality)."""

    name = "TPool"

    def __init__(self, epochs: int = 30, seed: int = 0) -> None:
        super().__init__(epochs, seed)
        self.encoder = PlanEncoder(extra_features=True)
        self.net = _TPoolNet(
            self.encoder.dim, HIDDEN, np.random.default_rng(seed)
        )

    def _loss(self, batch: TreeLevelBatch, context) -> Tensor:
        cost_preds, card_preds, _ = self.net(batch)
        total_nodes = sum(l.num_nodes for l in batch.levels)
        loss = None
        for level, cost, card in zip(
            batch.levels, cost_preds, card_preds
        ):
            term = log_qerror_loss(cost, level.labels_log)
            term = term + CARD_LOSS_WEIGHT * log_qerror_loss(
                card, level.card_labels_log
            )
            term = term * level.num_nodes
            loss = term if loss is None else loss + term
        return loss * (1.0 / total_nodes)

    def _readout(self, batch: TreeLevelBatch, context) -> Tensor:
        return self.net(batch)[2]
