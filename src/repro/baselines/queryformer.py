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

from repro.baselines.base import LearnedBaseline
from repro.featurize.catcher import CaughtPlan
from repro.featurize.encoder import LABEL_EPS_MS, PlanEncoder
from repro.nn import Module, Parameter, Tensor
from repro.nn.attention import multi_head_self_attention
from repro.nn.layers import LayerNorm, Linear, ReLU, Sequential
from repro.nn.losses import log_qerror_loss

D_MODEL = 64
D_FF = 256
NUM_HEADS = 4
MAX_DISTANCE_BUCKET = 8     # tree distances 0..7, clipped
SUPER_BUCKET = MAX_DISTANCE_BUCKET        # super-node <-> anything
NUM_BUCKETS = MAX_DISTANCE_BUCKET + 1
MAX_HEIGHT = 24


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


class QueryFormerModel(LearnedBaseline):
    """QueryFormer with the fit/predict interface."""

    name = "QueryFormer"
    lr = 5e-4

    def __init__(
        self,
        n_layers: int = 8,
        context_dim: int = 0,
        epochs: int = 30,
        seed: int = 0,
    ) -> None:
        super().__init__(epochs, seed)
        self.context_dim = context_dim
        self.encoder = PlanEncoder(extra_features=True)
        self.net = _QueryFormerNet(
            self.encoder.dim, D_MODEL, D_FF, n_layers, context_dim,
            NUM_HEADS, np.random.default_rng(seed),
        )

    def _batch(self, inputs, rows, with_labels: bool) -> _QFBatch:
        return _QFBatch([inputs[i] for i in rows], self.encoder)

    def _loss(self, batch: _QFBatch, context) -> Tensor:
        return log_qerror_loss(self.net(batch, context), batch.labels)

    def _readout(self, batch: _QFBatch, context) -> Tensor:
        return self.net(batch, context)
