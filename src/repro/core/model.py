"""The DACE model (paper Sec. IV-C).

Architecture, matching the paper's parameter settings:

- input: node encodings of length d = 18 (16 one-hot node types +
  robust-scaled DBMS cardinality and cost),
- a single-layer, single-head transformer encoder with d_k = d_v = 128
  whose attention is masked by the plan's partial-order matrix ``A(p)``
  (eq. 5) — each node attends only to itself and its descendants, the same
  information flow as actual plan execution,
- a 3-layer MLP head (128 -> 128 -> 64 -> 1) predicting the log-latency of
  **every sub-plan in parallel** (eq. 6); the three layers are
  :class:`~repro.nn.lora.LoRALinear` with ranks 32/16/8 so the model can be
  LoRA-fine-tuned for across-more scenarios (eq. 8).

Ablations used by the paper's Fig 10/11 are first-class:
``use_tree_attention=False`` gives "DACE w/o TA" (full attention over real
nodes); the loss adjuster's alpha lives in the encoder/trainer
(alpha=0 -> "w/o SP", alpha=1 -> "w/o LA").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.featurize.encoder import ENCODING_DIM, EncodedBatch
from repro.nn import LoRALinear, Module, Tensor, masked_self_attention
from repro.nn.attention import _NEG_INF
from repro.nn.layers import Linear, ReLU


# Identity masks for the w/o-TA ablation, cached per padded width: the
# ablation forward used to rebuild np.eye on every call.  Entries are
# marked read-only so no caller can poison the shared mask.
_EYE_MASKS: dict = {}


def _eye_mask(n: int) -> np.ndarray:
    """Read-only (1, n, n) boolean identity, shared across forwards."""
    eye = _EYE_MASKS.get(n)
    if eye is None:
        base = np.eye(n, dtype=bool)
        base.setflags(write=False)
        eye = base[None, :, :]
        # dict assignment is GIL-atomic; a concurrent duplicate build
        # just wastes one allocation.
        _EYE_MASKS[n] = eye
    return eye


@dataclass(frozen=True)
class DACEConfig:
    """Hyperparameters (defaults are the paper's)."""

    input_dim: int = ENCODING_DIM  # 18
    attention_dim: int = 128       # d_k = d_v
    hidden1: int = 128             # W_1 output
    hidden2: int = 64              # W_2 output
    lora_ranks: tuple = (32, 16, 8)
    use_tree_attention: bool = True


class DACEModel(Module):
    """Tree-attention transformer + parallel sub-plan MLP head."""

    def __init__(
        self,
        config: DACEConfig = DACEConfig(),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.config = config
        d, dk = config.input_dim, config.attention_dim
        self.w_q = Linear(d, dk, rng=rng, bias=False)
        self.w_k = Linear(d, dk, rng=rng, bias=False)
        self.w_v = Linear(d, dk, rng=rng, bias=False)
        r1, r2, r3 = config.lora_ranks
        self.mlp1 = LoRALinear(dk, config.hidden1, rank=r1, rng=rng)
        self.mlp2 = LoRALinear(config.hidden1, config.hidden2, rank=r2, rng=rng)
        self.mlp3 = LoRALinear(config.hidden2, 1, rank=r3, rng=rng)
        self.act = ReLU()

    # ------------------------------------------------------------------ #
    def _attention_mask(self, batch: EncodedBatch) -> np.ndarray:
        if self.config.use_tree_attention:
            return batch.attention_mask
        # Ablation (w/o TA): full attention among real nodes; padding rows
        # still attend only to themselves.
        full = batch.valid[:, :, None] & batch.valid[:, None, :]
        return full | _eye_mask(batch.max_nodes)

    def _hidden(self, batch: EncodedBatch) -> Tensor:
        """Attention output H of shape (B, n, d_v)."""
        x = Tensor(batch.features)
        q, k, v = self.w_q(x), self.w_k(x), self.w_v(x)
        return masked_self_attention(q, k, v, self._attention_mask(batch))

    def forward(self, batch: EncodedBatch) -> Tensor:
        """Predicted log-latency for every node: shape (B, n)."""
        hidden = self._hidden(batch)
        h1 = self.act(self.mlp1(hidden))
        h2 = self.act(self.mlp2(h1))
        out = self.mlp3(h2)
        return out.reshape(out.shape[0], out.shape[1])

    # ------------------------------------------------------------------ #
    # Graph-free forward: the serving hot path
    # ------------------------------------------------------------------ #
    def infer(self, batch: EncodedBatch) -> np.ndarray:
        """Pure-numpy :meth:`forward`: the same bits, no Tensor graph.
        Shape (B, n)."""
        hidden, _ = attention_np(self, batch)
        return head_np(self, hidden)

    def embed_infer(self, batch: EncodedBatch) -> np.ndarray:
        """Graph-free :meth:`embed`: root ``w_E`` vectors, shape (B, hidden2)."""
        hidden, _ = attention_np(self, batch)
        return head_np(self, hidden, depth=2)[:, 0, :].copy()

    # ------------------------------------------------------------------ #
    def embed(self, batch: EncodedBatch) -> np.ndarray:
        """Pre-trained-encoder output ``w_E = h_2`` (paper eq. 9).

        Returns the root node's 64-dim second hidden layer per plan,
        shape (B, hidden2).  The root is DFS position 0.
        """
        hidden = self._hidden(batch)
        h1 = self.act(self.mlp1(hidden))
        h2 = self.act(self.mlp2(h1))
        return h2.data[:, 0, :].copy()

    # ------------------------------------------------------------------ #
    # LoRA phase control (paper eq. 8)
    # ------------------------------------------------------------------ #
    def enable_lora(self) -> None:
        """Fine-tuning phase: only the adapters train; W frozen."""
        for layer in (self.mlp1, self.mlp2, self.mlp3):
            layer.enable_adapter()
        # The attention projections also freeze during fine-tuning.
        for projection in (self.w_q, self.w_k, self.w_v):
            projection.weight.freeze()

    def disable_lora(self) -> None:
        """Pre-training phase: W trains, adapters frozen."""
        for layer in (self.mlp1, self.mlp2, self.mlp3):
            layer.disable_adapter()
        for projection in (self.w_q, self.w_k, self.w_v):
            projection.weight.unfreeze()

    @property
    def lora_enabled(self) -> bool:
        return self.mlp1.adapter_enabled

    def lora_num_parameters(self) -> int:
        return sum(
            layer.adapter_num_parameters()
            for layer in (self.mlp1, self.mlp2, self.mlp3)
        )


# ---------------------------------------------------------------------- #
# The graph-free forward, shared by serving and both fused training steps
# ---------------------------------------------------------------------- #
# Both functions mirror DACEModel.forward operation for operation, on the
# same shapes in the same order, so their outputs are bit-identical (==,
# not allclose) to the autograd graph's.  Every matmul keeps the
# per-layer operand shapes: flattening (B, n, d) into one (B*n, d) GEMM
# is not bit-safe, because BLAS picks its microkernel by matrix extent
# and a different blocking regroups the K-accumulation at the last ulp.
# Intermediates the graph materializes but never revisits are folded in
# place instead; a ufunc on identical operands gives identical bits in
# or out of place.
def attention_np(
    model: DACEModel,
    batch: EncodedBatch,
    blocked: Optional[np.ndarray] = None,
) -> tuple:
    """The tree-masked attention: ``(H, (q, k, v, weights))``.

    ``blocked`` is the complement of the model's attention mask for
    ``batch``; callers that reuse a batch pass it precomputed.  Scores
    are scaled, blocked, shifted, exponentiated and normalized in one
    array, which ends as the softmax weights the backward pass needs.
    """
    if blocked is None:
        blocked = ~np.asarray(model._attention_mask(batch), dtype=bool)
    x = batch.features
    q = x @ model.w_q.weight.data
    k = x @ model.w_k.weight.data
    v = x @ model.w_v.weight.data
    weights = q @ np.swapaxes(k, -1, -2)
    weights *= 1.0 / np.sqrt(q.shape[-1])
    weights[blocked] = _NEG_INF
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights @ v, (q, k, v, weights)


def head_np(
    model: DACEModel,
    hidden: np.ndarray,
    depth: int = 3,
    pre1: Optional[np.ndarray] = None,
    saved: Optional[tuple] = None,
) -> np.ndarray:
    """The MLP head from the attention output ``hidden``.

    Returns the (B, n) log-latencies, or with ``depth=2`` the (B, n,
    hidden2) activations ``h_2``.  A layer whose adapter is enabled adds
    ``((x @ lora_b) @ lora_a) * scaling`` to its base output; IEEE
    addition commutes, so folding the base term into the adapter array
    gives the autograd ``base + adapter`` bits.

    ``pre1``, if given, is layer 1's base pre-activation ``H @ W1 + b1``
    (the LoRA step's per-batch constant).  It is passed only with layer
    1's adapter enabled, so the adapter sum is a new array and ``pre1``
    is never written to.

    With ``saved`` — three lists — each layer appends its input, its
    adapter term ``x @ lora_b`` (or None) and, below layer 3, its ReLU
    mask, for the backward pass.  Without it the ReLU gates in place, so
    no activation outlives the next layer.
    """
    x = hidden
    layers = (model.mlp1, model.mlp2, model.mlp3)
    for index, layer in enumerate(layers[:depth]):
        if index == 0 and pre1 is not None:
            z = pre1
        else:
            z = x @ layer.base.weight.data
            z += layer.base.bias.data
        t = None
        if layer.adapter_enabled:
            t = x @ layer.lora_b.data
            delta = t @ layer.lora_a.data
            delta *= layer.scaling
            delta += z
            z = delta
        if saved is not None:
            saved[0].append(x)
            saved[1].append(t)
        if index == 2:
            return z.reshape(z.shape[0], z.shape[1])
        mask = z > 0
        if saved is None:
            z *= mask
            x = z
        else:
            saved[2].append(mask)
            x = z * mask
    return x
