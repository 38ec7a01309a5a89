"""Fused graph-free training steps for DACE's q-error objective.

The autograd :class:`~repro.nn.tensor.Tensor` makes every model trainable,
but the graph bookkeeping (node allocation, closure capture, topological
sort, out-of-place gradient accumulation) is pure overhead once the
architecture is fixed.  This module hand-rolls the forward *and* backward
pass for the exact op sequence of ``DACEModel.forward`` +
:func:`~repro.nn.losses.log_qerror_loss` in both training phases:

- :class:`FusedQErrorStep` — pre-training (adapters disabled, every base
  weight trains), the hot path every figure benchmark re-runs across
  19-of-20 database splits;
- :class:`FusedLoRAStep` — LoRA fine-tuning (paper eq. 8).  Attention and
  every MLP base weight are frozen, so the attention output ``H`` and
  layer 1's base pre-activation ``H @ W1 + b1`` are constants of the
  batch: they are computed once per batch per fit, and each step runs
  only the adapter terms, base layers 2-3 and the ReLUs.  The backward
  pass stops at layer 1's adapter and sets weight gradients on the
  ``lora_a``/``lora_b`` factors alone.

The contract is the same one :meth:`repro.nn.module.Module.infer` pins for
serving: **every numpy operation mirrors the autograd path operation for
operation, in the same order on the same shapes, so gradients and loss
agree bit for bit.**  ``tests/core/test_fused_step.py`` enforces exact
(``==``, not allclose) agreement against the graph path.

Because the fused steps are only mirrors, they refuse anything they do
not replicate exactly: non-``DACEModel`` models (subclasses may override
``forward``), and partially enabled adapters or unfrozen base weights
under LoRA all fall back to the graph path in
:class:`~repro.core.trainer.Trainer`.

Per-batch constants (attention mask, its complement, the loss-weight
normalizer, and under LoRA the frozen prefix) are cached per
:class:`~repro.featurize.encoder.EncodedBatch` object: the encode-once
pipeline reuses the same batch objects every epoch, so these are
computed once per ``fit`` rather than once per step.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.featurize.encoder import EncodedBatch
from repro.nn.attention import _NEG_INF
from repro.nn.tensor import _unbroadcast


def _head(model) -> tuple:
    return (model.mlp1, model.mlp2, model.mlp3)


def _loss_total(batch: EncodedBatch) -> float:
    total = batch.loss_weights.sum()
    if total <= 0:
        raise ValueError("loss weights sum to zero")
    return total


class _PerBatch:
    """Values derived from a batch, built once per step object.

    Each entry holds the batch itself, so its ``id`` cannot be reused by
    another batch while the entry lives.  The builder is passed per call,
    not stored: a stored bound method would make a reference cycle that
    keeps the step (and every cached array) alive past its ``fit`` until
    the next garbage collection.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[EncodedBatch, tuple]] = {}

    def get(
        self, batch: EncodedBatch, build: Callable[[EncodedBatch], tuple]
    ) -> tuple:
        entry = self._entries.get(id(batch))
        if entry is None:
            entry = (batch, build(batch))
            self._entries[id(batch)] = entry
        return entry[1]


# ---------------------------------------------------------------------- #
# The MLP head and the loss, shared by both steps
# ---------------------------------------------------------------------- #
def _head_forward(model, hidden: np.ndarray, pre1: np.ndarray, lora: bool):
    """The 3-layer MLP head from layer 1's base pre-activation ``pre1``.

    Returns the (B, n, 1) output and what the backward pass needs.  With
    ``lora`` each layer adds ``((x @ lora_b) @ lora_a) * scaling`` to its
    base output; IEEE addition commutes, so folding the base term into
    the adapter array gives the autograd ``base + adapter`` bits.
    ``pre1`` is never written to (the LoRA step caches it).
    """
    inputs: List[np.ndarray] = []
    adapters: List[Optional[np.ndarray]] = []
    masks: List[np.ndarray] = []
    x = hidden
    for index, layer in enumerate(_head(model)):
        if index == 0:
            z = pre1
        else:
            z = x @ layer.base.weight.data
            z += layer.base.bias.data
        t = None
        if lora:
            t = x @ layer.lora_b.data
            delta = t @ layer.lora_a.data
            delta *= layer.scaling
            delta += z
            z = delta
        inputs.append(x)
        adapters.append(t)
        if index < 2:
            # relu output is kept separate from z: the backward pass
            # consumes it as the next layer's input.
            mask = z > 0
            masks.append(mask)
            x = z * mask
    return z, (inputs, adapters, masks)


def _head_backward(model, g: np.ndarray, saved, lora: bool):
    """The head's graph closures replayed in reverse.

    Sets ``.grad`` on the base weights and biases, or with ``lora`` on
    the adapter factors only, and returns the gradient of the head's
    input ``hidden`` — ``None`` under LoRA, where nothing below the head
    trains.  Under LoRA the inputs of layers 2 and 3 receive exactly two
    contributions (base path and adapter path); IEEE addition commutes,
    so accumulation order cannot differ from autograd.
    """
    inputs, adapters, masks = saved
    layers = _head(model)
    for index in (2, 1, 0):
        layer = layers[index]
        x = inputs[index]
        if lora:
            g_delta = g * layer.scaling
            layer.lora_a.grad = _unbroadcast(
                np.swapaxes(adapters[index], -1, -2) @ g_delta,
                layer.lora_a.shape,
            )
            g_t = g_delta @ np.swapaxes(layer.lora_a.data, -1, -2)
            layer.lora_b.grad = _unbroadcast(
                np.swapaxes(x, -1, -2) @ g_t, layer.lora_b.shape
            )
            if index == 0:
                return None
        else:
            base = layer.base
            base.bias.grad = _unbroadcast(g, base.bias.shape)
            base.weight.grad = _unbroadcast(
                np.swapaxes(x, -1, -2) @ g, base.weight.shape
            )
        g_x = g @ np.swapaxes(layer.base.weight.data, -1, -2)
        if lora:
            g_x += g_t @ np.swapaxes(layer.lora_b.data, -1, -2)
        if index == 0:
            return g_x
        g_x *= masks[index - 1]
        g = g_x


def _qerror_loss(out: np.ndarray, batch: EncodedBatch, total: float):
    """``log_qerror_loss`` on the (B, n, 1) head output: the loss value
    and its gradient with respect to ``out``."""
    lw = batch.loss_weights
    B, n = lw.shape
    diff = out.reshape(B, n) - batch.labels_log
    loss = (np.abs(diff) * lw).sum() * (1.0 / total)
    g_out = np.sign(diff) * (lw * (1.0 / total))
    return float(loss), g_out.reshape(B, n, 1)


def _require_labels(batch: EncodedBatch) -> None:
    if batch.labels_log is None:
        raise ValueError("fused step needs labelled batches")


# ---------------------------------------------------------------------- #
# Pre-training
# ---------------------------------------------------------------------- #
class FusedQErrorStep:
    """One fused forward/backward for ``DACEModel`` + ``log_qerror_loss``.

    Usage (exactly replaces the graph step)::

        optimizer.zero_grad()
        loss_value = fused.step(batch)   # sets .grad on the parameters
        optimizer.step()
    """

    def __init__(self, model) -> None:
        self.model = model
        self._constants = _PerBatch()

    # ------------------------------------------------------------------ #
    @staticmethod
    def supports(model) -> bool:
        """True when the fused mirror covers this exact configuration."""
        from repro.core.model import DACEModel

        return (
            type(model) is DACEModel
            and not any(layer.adapter_enabled for layer in _head(model))
        )

    def _batch_constants(
        self, batch: EncodedBatch
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        mask = np.asarray(self.model._attention_mask(batch), dtype=bool)
        blocked = ~mask
        return blocked, ~blocked, _loss_total(batch)

    def predict(self, batch: EncodedBatch) -> np.ndarray:
        """Graph-free prediction for evaluation: ``Module.infer``."""
        return self.model.infer(batch)

    # ------------------------------------------------------------------ #
    def step(self, batch: EncodedBatch) -> float:
        """Forward + backward; sets ``.grad`` and returns the loss value.

        Intermediates that autograd materializes but never revisits are
        folded in place here (masking, softmax normalization, relu
        gating); every fold is an elementwise op producing the same
        values as the out-of-place original, so the op *results* — and
        therefore the loss and every gradient — stay bit-identical to
        the graph path.
        """
        model = self.model
        _require_labels(batch)
        blocked, keep, total = self._constants.get(
            batch, self._batch_constants
        )

        w_q, w_k, w_v = model.w_q.weight, model.w_k.weight, model.w_v.weight
        lin1 = model.mlp1.base
        x = batch.features
        x_t = np.swapaxes(x, -1, -2)

        # ---- forward: mirrors DACEModel.forward + log_qerror_loss ---- #
        q = x @ w_q.data
        k = x @ w_k.data
        v = x @ w_v.data
        k_t = np.swapaxes(k, -1, -2)
        scale = 1.0 / np.sqrt(q.shape[-1])
        # scores -> masked -> shifted -> exp -> softmax weights, folded
        # into one array; the backward pass only needs the weights.
        weights = q @ k_t
        weights *= scale
        weights[blocked] = _NEG_INF
        weights -= weights.max(axis=-1, keepdims=True)
        np.exp(weights, out=weights)
        weights /= weights.sum(axis=-1, keepdims=True)
        hidden = weights @ v

        pre1 = hidden @ lin1.weight.data
        pre1 += lin1.bias.data
        out, saved = _head_forward(model, hidden, pre1, lora=False)
        loss, g_out = _qerror_loss(out, batch, total)

        # ---- backward: the graph closures replayed in reverse -------- #
        # Each intermediate receives exactly one gradient contribution
        # (the graph is a tree below the shared input x, which carries no
        # gradient), so accumulation order cannot differ from autograd.
        g_hidden = _head_backward(model, g_out, saved, lora=False)

        # attention: hidden = softmax(masked) @ v
        g_weights = g_hidden @ np.swapaxes(v, -1, -2)
        g_v = np.swapaxes(weights, -1, -2) @ g_hidden
        dot = (g_weights * weights).sum(axis=-1, keepdims=True)
        g_weights -= dot
        g_weights *= weights
        g_weights *= keep
        g_weights *= scale
        g_q = g_weights @ np.swapaxes(k_t, -1, -2)
        # autograd stores view-based grads as C-contiguous copies before
        # the next matmul consumes them; mirror the layout exactly.
        g_k = np.swapaxes(
            np.swapaxes(q, -1, -2) @ g_weights, -1, -2
        ).copy()

        w_q.grad = _unbroadcast(x_t @ g_q, w_q.shape)
        w_k.grad = _unbroadcast(x_t @ g_k, w_k.shape)
        w_v.grad = _unbroadcast(x_t @ g_v, w_v.shape)
        return loss


# ---------------------------------------------------------------------- #
# LoRA fine-tuning
# ---------------------------------------------------------------------- #
class FusedLoRAStep:
    """One fused forward/backward for LoRA fine-tuning of ``DACEModel``.

    Same usage as :class:`FusedQErrorStep`; only the six adapter factors
    receive ``.grad``, frozen parameters are never touched.
    """

    def __init__(self, model) -> None:
        self.model = model
        self._prefix = _PerBatch()

    # ------------------------------------------------------------------ #
    @staticmethod
    def supports(model) -> bool:
        """True for an exact ``DACEModel`` with all three adapters
        enabled and training, and every other parameter frozen."""
        from repro.core.model import DACEModel

        if type(model) is not DACEModel:
            return False
        if not all(layer.adapter_enabled for layer in _head(model)):
            return False
        return all(
            parameter.trainable == parameter.requires_grad == (
                name.rsplit(".", 1)[-1] in ("lora_a", "lora_b")
            )
            for name, parameter in model.named_parameters()
        )

    def _batch_prefix(
        self, batch: EncodedBatch
    ) -> Tuple[np.ndarray, np.ndarray, float]:
        """The frozen prefix: attention output ``H`` (bit-identical to
        the graph's, as ``Module.infer`` guarantees) and ``H @ W1 + b1``."""
        hidden = self.model._hidden_infer(batch)
        lin1 = self.model.mlp1.base
        pre1 = hidden @ lin1.weight.data
        pre1 += lin1.bias.data
        return hidden, pre1, _loss_total(batch)

    def predict(self, batch: EncodedBatch) -> np.ndarray:
        """Graph-free prediction for evaluation, reusing the prefix."""
        hidden, pre1, _ = self._prefix.get(batch, self._batch_prefix)
        out, _ = _head_forward(self.model, hidden, pre1, lora=True)
        return out.reshape(out.shape[0], out.shape[1])

    def step(self, batch: EncodedBatch) -> float:
        """Forward + backward; sets adapter ``.grad``, returns the loss."""
        _require_labels(batch)
        hidden, pre1, total = self._prefix.get(batch, self._batch_prefix)
        out, saved = _head_forward(self.model, hidden, pre1, lora=True)
        loss, g_out = _qerror_loss(out, batch, total)
        _head_backward(self.model, g_out, saved, lora=True)
        return loss


FusedStep = Union[FusedQErrorStep, FusedLoRAStep]


def maybe_fused_step(model) -> Optional[FusedStep]:
    """The fused step covering this configuration, else ``None``."""
    for step in (FusedQErrorStep, FusedLoRAStep):
        if step.supports(model):
            return step(model)
    return None
