"""Zero-Shot (Hilprecht & Binnig, VLDB 2022) — the across-database baseline.

Transforms the query plan into a directed graph and learns **node-type-
specific MLPs**; inference propagates messages bottom-up: a node's hidden
state is an MLP (chosen by its node type) of its own features concatenated
with the sum of its children's hidden states.  A readout MLP on the root
predicts log-latency.  Trained on the root loss only.

Faithful simplifications: the original's per-feature embeddings of data
characteristics (columns, literals) are replaced by the extended node
encoding our substrate exposes (node type + scaled DBMS estimates + the
workload-dependent width/predicate/literal features); the message function
and training protocol are unchanged.
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


class _TypedMessagePassing(Module):
    """Shared machinery: per-node-type MLPs applied level by level."""

    def __init__(self, input_dim: int, hidden: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.hidden = hidden
        self.type_mlps = [
            Sequential(
                Linear(input_dim + hidden, hidden, rng=rng),
                ReLU(),
                Linear(hidden, hidden, rng=rng),
                ReLU(),
            )
            for _ in NODE_TYPES
        ]

    def propagate(self, batch: TreeLevelBatch) -> Tensor:
        """Bottom-up message passing; returns root hidden states (B, hidden)."""
        deeper_hidden: Optional[Tensor] = None
        for level in batch.levels:
            n = level.num_nodes
            if deeper_hidden is None or level.child_sum is None:
                child_agg = Tensor(np.zeros((n, self.hidden)))
            else:
                child_agg = Tensor(level.child_sum) @ deeper_hidden
            inputs = Tensor.concat(
                [Tensor(level.features), child_agg], axis=1
            )
            # Run each node-type group through its own MLP, then restore
            # the level's row order (differentiable gather).
            groups: List[Tensor] = []
            group_rows: List[np.ndarray] = []
            for type_id in np.unique(level.node_type_ids):
                rows = np.nonzero(level.node_type_ids == type_id)[0]
                groups.append(self.type_mlps[int(type_id)](inputs[rows]))
                group_rows.append(rows)
            stacked = Tensor.concat(groups, axis=0)
            inverse = np.argsort(np.concatenate(group_rows))
            deeper_hidden = stacked[inverse]
        return deeper_hidden[batch.root_order]


class _ZeroShotNet(_TypedMessagePassing):
    def __init__(self, input_dim: int, hidden: int,
                 rng: np.random.Generator) -> None:
        super().__init__(input_dim, hidden, rng)
        self.readout = Sequential(
            Linear(hidden, hidden // 2, rng=rng),
            ReLU(),
            Linear(hidden // 2, 1, rng=rng),
        )

    def forward(self, batch: TreeLevelBatch) -> Tensor:
        roots = self.propagate(batch)
        out = self.readout(roots)
        return out.reshape(out.shape[0])


class ZeroShotModel(LearnedBaseline):
    """The Zero-Shot cost model with the fit/predict interface."""

    name = "Zero-Shot"

    def __init__(self, epochs: int = 30, seed: int = 0) -> None:
        super().__init__(epochs, seed)
        rng = np.random.default_rng(seed)
        # Zero-Shot's original featurization is far richer than DACE's
        # 18-dim encoding; the extra (workload-dependent) features stand
        # in for that.
        self.encoder = PlanEncoder(extra_features=True)
        self.net = _ZeroShotNet(self.encoder.dim, HIDDEN, rng)

    def _loss(self, batch: TreeLevelBatch, context) -> Tensor:
        # Root loss only: the roots level's labels, in plan order.
        labels = batch.levels[-1].labels_log[batch.root_order]
        return log_qerror_loss(self.net(batch), labels)

    def _readout(self, batch: TreeLevelBatch, context) -> Tensor:
        return self.net(batch)
