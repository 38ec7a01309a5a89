"""Masked scaled dot-product self-attention.

This is the attention variant DACE uses (paper eq. 5): a single head whose
scores are masked by the plan's reflexive-transitive adjacency matrix so a
node attends only to itself and its descendants.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

_NEG_INF = -1e9


def masked_self_attention(
    q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray
) -> Tensor:
    """Compute ``softmax((Q K^T) ⊙ M / sqrt(d)) V`` with an additive mask.

    Args:
        q: queries, shape (..., n, d_k).
        k: keys, shape (..., n, d_k).
        v: values, shape (..., n, d_v).
        mask: boolean or {0,1} array of shape (..., n, n); positions with 0
            receive a large negative score before the softmax (paper's
            "set 0 to negative infinity, keep 1 unchanged").

    Returns:
        Attention output of shape (..., n, d_v).
    """
    d_k = q.shape[-1]
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(d_k))
    blocked = ~np.asarray(mask, dtype=bool)
    scores = scores.masked_fill(blocked, _NEG_INF)
    weights = scores.softmax(axis=-1)
    return weights @ v


def multi_head_self_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    num_heads: int,
    mask: np.ndarray,
    bias: Tensor = None,
) -> Tensor:
    """Multi-head attention over (B, n, d) inputs with a shared mask.

    ``d`` must divide evenly into ``num_heads``.  ``bias`` (if given) is a
    (B, n, n) additive score bias shared across heads — QueryFormer's
    tree-distance bias ``b_d``.
    """
    batch, n, d = q.shape
    if d % num_heads:
        raise ValueError(f"model dim {d} not divisible by {num_heads} heads")
    head_dim = d // num_heads

    def split(tensor: Tensor) -> Tensor:
        # (B, n, d) -> (B, heads, n, head_dim)
        return tensor.reshape(batch, n, num_heads, head_dim).transpose(
            0, 2, 1, 3
        )

    qh, kh, vh = split(q), split(k), split(v)
    scores = (qh @ kh.swapaxes(-1, -2)) * (1.0 / np.sqrt(head_dim))
    if bias is not None:
        scores = scores + bias.reshape(batch, 1, n, n)
    blocked = ~np.asarray(mask, dtype=bool)
    scores = scores.masked_fill(blocked[:, None, :, :], _NEG_INF)
    attended = scores.softmax(axis=-1) @ vh
    # (B, heads, n, head_dim) -> (B, n, d)
    return attended.transpose(0, 2, 1, 3).reshape(batch, n, d)
