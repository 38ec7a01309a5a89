"""QueryFormer (Zhao, VLDB 2022).

A tree transformer over the query plan with the original's three structural
devices:

- **height embeddings** added to every node's input projection,
- **tree-bias attention**: a learnable scalar per node-pair tree distance
  added to the attention scores (the ``b_d`` DACE deliberately drops),
- a **super node** attached to every node; the prediction is read out from
  the super node's final state.

Eight encoder layers as in the paper's description, trained on the root
latency.  The hybrid variant accepts an external context vector that is
concatenated into the readout (used for DACE-QueryFormer knowledge
integration).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baselines.base import CostEstimatorBase
from repro.featurize.catcher import CaughtPlan, catch_plan
from repro.featurize.encoder import LABEL_EPS_MS, PlanEncoder
from repro.nn import Adam, Module, Parameter, Tensor, no_grad
from repro.nn.attention import multi_head_self_attention
from repro.nn.layers import LayerNorm, Linear, ReLU, Sequential
from repro.nn.losses import log_qerror_loss
from repro.workloads.dataset import PlanDataset

MAX_DISTANCE_BUCKET = 8     # tree distances 0..7, clipped
SUPER_BUCKET = MAX_DISTANCE_BUCKET        # super-node <-> anything
NUM_BUCKETS = MAX_DISTANCE_BUCKET + 1
MAX_HEIGHT = 24
_NEG_INF = -1e9


class _QFBatch:
    """Padded QueryFormer inputs with a super node at position 0."""

    def __init__(self, plans: Sequence[CaughtPlan], encoder: PlanEncoder):
        batch = len(plans)
        n_max = max(p.num_nodes for p in plans) + 1  # +1 super node
        self.features = np.zeros((batch, n_max, encoder.dim))
        self.heights = np.zeros((batch, n_max), dtype=np.int64)
        self.buckets = np.zeros((batch, n_max, n_max), dtype=np.int64)
        self.valid = np.zeros((batch, n_max), dtype=bool)
        self.labels = np.zeros(batch)
        for index, plan in enumerate(plans):
            n = plan.num_nodes
            self.features[index, 1:n + 1] = encoder.encode_plan(plan)
            self.heights[index, 1:n + 1] = np.minimum(
                plan.heights + 1, MAX_HEIGHT - 1
            )
            distances = np.minimum(
                plan.distance_matrix(), MAX_DISTANCE_BUCKET - 1
            )
            self.buckets[index, 1:n + 1, 1:n + 1] = distances
            self.buckets[index, 0, :] = SUPER_BUCKET
            self.buckets[index, :, 0] = SUPER_BUCKET
            self.valid[index, : n + 1] = True
            if plan.actual_times is not None:
                self.labels[index] = np.log(
                    max(plan.actual_times[0], LABEL_EPS_MS)
                )
        # Attention visibility: valid query position -> valid key positions;
        # padded rows see only themselves (finite softmax rows).
        visible = self.valid[:, :, None] & self.valid[:, None, :]
        eye = np.eye(n_max, dtype=bool)[None]
        self.attention_ok = visible | eye


class _EncoderLayer(Module):
    def __init__(self, d_model: int, d_ff: int, num_heads: int,
                 rng: np.random.Generator):
        super().__init__()
        self.d_model = d_model
        self.num_heads = num_heads
        self.w_q = Linear(d_model, d_model, rng=rng, bias=False)
        self.w_k = Linear(d_model, d_model, rng=rng, bias=False)
        self.w_v = Linear(d_model, d_model, rng=rng, bias=False)
        self.w_o = Linear(d_model, d_model, rng=rng)
        self.bias = Parameter(np.zeros(NUM_BUCKETS))  # tree-bias b_d
        self.ln1 = LayerNorm(d_model)
        self.ln2 = LayerNorm(d_model)
        self.ffn = Sequential(
            Linear(d_model, d_ff, rng=rng), ReLU(),
            Linear(d_ff, d_model, rng=rng),
        )

    def forward(self, x: Tensor, buckets: np.ndarray,
                attention_ok: np.ndarray) -> Tensor:
        attended = multi_head_self_attention(
            self.w_q(x), self.w_k(x), self.w_v(x),
            num_heads=self.num_heads,
            mask=attention_ok,
            bias=self.bias[buckets],
        )
        x = self.ln1(x + self.w_o(attended))
        return self.ln2(x + self.ffn(x))


class _QueryFormerNet(Module):
    def __init__(self, input_dim: int, d_model: int, d_ff: int,
                 n_layers: int, context_dim: int, num_heads: int,
                 rng: np.random.Generator):
        super().__init__()
        self.input_proj = Linear(input_dim, d_model, rng=rng)
        self.height_embedding = Parameter(
            rng.normal(0.0, 0.02, (MAX_HEIGHT, d_model))
        )
        self.super_embedding = Parameter(rng.normal(0.0, 0.02, (d_model,)))
        self.layers = [
            _EncoderLayer(d_model, d_ff, num_heads, rng)
            for _ in range(n_layers)
        ]
        self.readout = Sequential(
            Linear(d_model + context_dim, d_model, rng=rng), ReLU(),
            Linear(d_model, 1, rng=rng),
        )

    def encode(self, batch: _QFBatch) -> Tensor:
        """Final super-node states, shape (B, d_model)."""
        x = self.input_proj(Tensor(batch.features))
        x = x + self.height_embedding[batch.heights]
        super_mask = np.zeros(batch.features.shape[:2] + (1,))
        super_mask[:, 0, 0] = 1.0
        x = x + Tensor(super_mask) * self.super_embedding
        for layer in self.layers:
            x = layer(x, batch.buckets, batch.attention_ok)
        return x[:, 0, :]

    def forward(self, batch: _QFBatch,
                context: Optional[np.ndarray] = None) -> Tensor:
        pooled = self.encode(batch)
        if context is not None:
            pooled = Tensor.concat([pooled, Tensor(context)], axis=1)
        out = self.readout(pooled)
        return out.reshape(out.shape[0])


class QueryFormerModel(CostEstimatorBase):
    """QueryFormer with the fit/predict interface."""

    name = "QueryFormer"

    def __init__(
        self,
        d_model: int = 64,
        d_ff: int = 256,
        n_layers: int = 8,
        num_heads: int = 4,
        context_dim: int = 0,
        epochs: int = 30,
        batch_size: int = 64,
        lr: float = 5e-4,
        seed: int = 0,
    ) -> None:
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.seed = seed
        self.context_dim = context_dim
        self.encoder = PlanEncoder(extra_features=True)
        self.net = _QueryFormerNet(
            self.encoder.dim, d_model, d_ff, n_layers, context_dim,
            num_heads, np.random.default_rng(seed),
        )

    # ------------------------------------------------------------------ #
    def _chunks(self, count: int):
        for start in range(0, count, self.batch_size):
            yield start, min(start + self.batch_size, count)

    def fit(
        self,
        train: PlanDataset,
        context: Optional[np.ndarray] = None,
    ) -> "QueryFormerModel":
        if self.context_dim and context is None:
            raise ValueError("model was built with context_dim but none given")
        plans = [catch_plan(s.plan) for s in train]
        if not self.encoder.is_fit:
            self.encoder.fit(plans)
        rng = np.random.default_rng(self.seed)
        optimizer = Adam(self.net.trainable_parameters(), lr=self.lr)
        order = sorted(range(len(plans)), key=lambda i: plans[i].num_nodes)
        for _ in range(self.epochs):
            starts = list(self._chunks(len(plans)))
            rng.shuffle(starts)
            for start, stop in starts:
                rows = order[start:stop]
                chunk = [plans[i] for i in rows]
                batch = _QFBatch(chunk, self.encoder)
                ctx = context[rows] if context is not None else None
                optimizer.zero_grad()
                pred = self.net(batch, ctx)
                loss = log_qerror_loss(pred, batch.labels)
                loss.backward()
                optimizer.step()
        return self

    def predict_ms(
        self,
        test: PlanDataset,
        context: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if self.context_dim and context is None:
            raise ValueError("model was built with context_dim but none given")
        plans = [catch_plan(s.plan) for s in test]
        out = np.empty(len(plans))
        with no_grad():
            for start, stop in self._chunks(len(plans)):
                chunk = plans[start:stop]
                batch = _QFBatch(chunk, self.encoder)
                ctx = context[start:stop] if context is not None else None
                out[start:stop] = self.net(batch, ctx).data
        return np.exp(out)

    def num_parameters(self) -> int:
        return self.net.num_parameters()
