"""The serving entry point of the graph-free DACE forward.

:class:`FusedInferStep` runs the one graph-free forward that
``DACEModel.infer`` and both fused training steps run too
(:func:`~repro.core.model.attention_np` and
:func:`~repro.core.model.head_np`), so its output is **bit-identical**
(``==``, not allclose) to the autograd ``DACEModel.forward``;
``tests/serve/test_fused.py`` enforces this.

It holds no forward of its own.  It stays as a separate class because the
benchmark harness (``perfbench/tracing.py``) imports it and times its
``forward``, and because its dispatch counters ``serve.fused.forwards`` /
``serve.fused.fallbacks`` are what the harness's ``fused_share_is_1`` and
``fused_share_is_0`` checks read.  Once the harness reads the shared
forward instead, this class and its counters can go.

Dispatch keeps its two guards.  :meth:`FusedInferStep.supports` accepts
only the exact ``DACEModel`` class (a subclass may override ``forward``);
:meth:`FusedInferStep.engaged` is re-checked on every forward and is False
while any LoRA adapter is enabled, so a LoRA-delta configuration
(``enable_lora``, a registry hot-swap) is served by ``model.infer`` and
counted as a fallback.  Both paths give the same bits.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.model import DACEModel, attention_np, head_np
from repro.featurize.encoder import EncodedBatch

__all__ = ["FusedInferStep", "maybe_fused_infer"]


class FusedInferStep:
    """The shared graph-free forward, as a serving step for a stock
    ``DACEModel``.

    Usage (replaces ``model.infer(batch)`` / ``model.embed_infer(batch)``
    one for one)::

        step = maybe_fused_infer(model)
        if step is not None and step.engaged():
            logs = step.forward(batch)      # == model.infer(batch)
            vecs = step.embed(batch)        # == model.embed_infer(batch)
    """

    def __init__(self, model) -> None:
        if not self.supports(model):
            raise ValueError(
                "FusedInferStep serves the stock DACEModel only; "
                f"got {type(model).__name__}"
            )
        self.model = model

    @staticmethod
    def supports(model) -> bool:
        """True when the model is exactly ``DACEModel``.

        Exact-type check, as in the training-side fused steps: a subclass
        may override ``forward``/``infer``, and the shared forward would
        silently diverge from it.
        """
        return type(model) is DACEModel

    def engaged(self) -> bool:
        """Call-time guard: False while any LoRA adapter is enabled."""
        model = self.model
        return not (
            model.mlp1.adapter_enabled
            or model.mlp2.adapter_enabled
            or model.mlp3.adapter_enabled
        )

    def forward(self, batch: EncodedBatch) -> np.ndarray:
        """Per-node log-latency, shape (B, n): ``== model.infer(batch)``."""
        hidden, _ = attention_np(self.model, batch)
        return head_np(self.model, hidden)

    def embed(self, batch: EncodedBatch) -> np.ndarray:
        """Root ``w_E`` vectors, (B, hidden2): ``== model.embed_infer``."""
        hidden, _ = attention_np(self.model, batch)
        return head_np(self.model, hidden, depth=2)[:, 0, :].copy()


def maybe_fused_infer(model) -> Optional[FusedInferStep]:
    """A :class:`FusedInferStep` when the model class is supported, else None."""
    if FusedInferStep.supports(model):
        return FusedInferStep(model)
    return None
