"""QPPNet (Marcus & Papaemmanouil, VLDB 2019).

Plan-structured neural units: one small network per node type.  Each unit
consumes the node's features concatenated with the *data vectors* of its
(up to two) children and outputs a data vector plus a latency prediction.
The loss is taken on **every** node's latency with equal weight — the
"information redundancy" the paper's loss adjuster fixes — and inference is
inherently sequential in tree depth because parents wait for children.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.baselines.base import LearnedBaseline
from repro.baselines.common import TreeLevelBatch
from repro.engine.plan import NODE_TYPES
from repro.featurize.encoder import PlanEncoder
from repro.nn import Module, Tensor
from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.losses import log_qerror_loss

HIDDEN = 128


class _QPPNetUnits(Module):
    """Per-node-type units emitting (data vector, latency) jointly."""

    def __init__(self, input_dim: int, hidden: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.hidden = hidden
        input_dim = input_dim + 2 * hidden  # own features + 2 child slots
        self.units = [
            Sequential(
                Linear(input_dim, hidden, rng=rng),
                ReLU(),
                Linear(hidden, hidden + 1, rng=rng),
            )
            for _ in NODE_TYPES
        ]

    def forward(self, batch: TreeLevelBatch):
        """Returns (per-level predictions, root predictions)."""
        deeper_hidden: Optional[Tensor] = None
        level_preds: List[Tensor] = []
        for level in batch.levels:
            n = level.num_nodes
            if deeper_hidden is None or not level.child_slot:
                child0 = Tensor(np.zeros((n, self.hidden)))
                child1 = Tensor(np.zeros((n, self.hidden)))
            else:
                child0 = Tensor(level.child_slot[0]) @ deeper_hidden
                child1 = Tensor(level.child_slot[1]) @ deeper_hidden
            inputs = Tensor.concat(
                [Tensor(level.features), child0, child1], axis=1
            )
            groups: List[Tensor] = []
            group_rows: List[np.ndarray] = []
            for type_id in np.unique(level.node_type_ids):
                rows = np.nonzero(level.node_type_ids == type_id)[0]
                groups.append(self.units[int(type_id)](inputs[rows]))
                group_rows.append(rows)
            stacked = Tensor.concat(groups, axis=0)
            inverse = np.argsort(np.concatenate(group_rows))
            outputs = stacked[inverse]
            deeper_hidden = outputs[:, : self.hidden].relu()
            level_preds.append(outputs[:, self.hidden])
        roots = level_preds[-1][batch.root_order]
        return level_preds, roots


class QPPNetModel(LearnedBaseline):
    """QPPNet with the fit/predict interface (sub-plan supervised)."""

    name = "QPPNet"

    def __init__(self, epochs: int = 30, seed: int = 0) -> None:
        super().__init__(epochs, seed)
        self.encoder = PlanEncoder(extra_features=True)
        self.net = _QPPNetUnits(
            self.encoder.dim, HIDDEN, np.random.default_rng(seed)
        )

    def _loss(self, batch: TreeLevelBatch, context) -> Tensor:
        level_preds, _ = self.net(batch)
        # Equal-weight loss on every sub-plan (QPPNet's protocol).
        losses = []
        for level, pred in zip(batch.levels, level_preds):
            losses.append(
                log_qerror_loss(pred, level.labels_log)
                * level.num_nodes
            )
        total_nodes = sum(l.num_nodes for l in batch.levels)
        loss = losses[0]
        for extra in losses[1:]:
            loss = loss + extra
        return loss * (1.0 / total_nodes)

    def _readout(self, batch: TreeLevelBatch, context) -> Tensor:
        return self.net(batch)[1]
