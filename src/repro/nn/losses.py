"""Loss functions and the q-error metric.

The paper's training loss (eq. 7) is a per-node weighted q-error.  Training
directly on the q-error ratio is numerically unstable, so — as in the
authors' released code — models predict log-latency and minimize the
*log q-error* ``|pred_log - true_log| = log(qerror)``, which is a monotone
transform of eq. 1 and therefore optimizes the same objective.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor


def qerror(est: np.ndarray, actual: np.ndarray, floor: float = 1e-9) -> np.ndarray:
    """q-error (paper eq. 1): ``max(est, actual) / min(est, actual)``.

    Both inputs are clipped to ``floor`` so the ratio is always finite and
    at least 1.
    """
    est = np.maximum(np.asarray(est, dtype=np.float64), floor)
    actual = np.maximum(np.asarray(actual, dtype=np.float64), floor)
    return np.maximum(est, actual) / np.minimum(est, actual)


def log_qerror_loss(
    pred_log: Tensor,
    target_log: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Weighted mean absolute error in log space (= mean log q-error).

    Args:
        pred_log: predicted log-latencies, any shape.
        target_log: true log-latencies, same shape.
        weights: optional non-negative per-element loss weights (the loss
            adjuster's ``alpha ** height``); entries with weight 0 (e.g.
            padding) contribute nothing.
    """
    target = Tensor(target_log)
    diff = (pred_log - target).abs()
    if weights is None:
        return diff.mean()
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise ValueError("loss weights sum to zero")
    return (diff * Tensor(weights)).sum() * (1.0 / total)


def log_qerror_loss_np(
    pred_log: np.ndarray,
    target_log: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> float:
    """Graph-free mirror of :func:`log_qerror_loss` for evaluation.

    Runs the identical numpy operations in the identical order on plain
    arrays, so the returned value is bit-identical to
    ``log_qerror_loss(...).item()`` on the same inputs — which is what
    lets the trainer evaluate validation loss through the graph-free
    forward (``DACEModel.infer``, ``FusedLoRAStep.predict``) without
    perturbing early stopping by a single ulp.  On the forward output of
    a labelled batch it also equals, bit for bit, the loss the fused
    training steps return for that batch.
    """
    diff = np.abs(pred_log - target_log)
    if weights is None:
        return float(diff.mean())
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    if total <= 0:
        raise ValueError("loss weights sum to zero")
    return float((diff * weights).sum() * (1.0 / total))
