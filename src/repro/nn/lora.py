"""Low-Rank Adaptation (LoRA) for Linear layers.

Implements paper eq. 8: ``h = x W + x (W_B W_A)`` where the base weight
``W`` is frozen during fine-tuning and only the rank-``r`` factors are
trained.  During pre-training the adapter is disabled (``W`` trains, the
factors stay untrainable), matching the paper's two-phase protocol.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class LoRALinear(Module):
    """A Linear layer with an optional low-rank additive adapter."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rank: int,
        rng: Optional[np.random.Generator] = None,
        scaling: float = 1.0,
    ) -> None:
        super().__init__()
        if rank <= 0:
            raise ValueError(f"LoRA rank must be positive, got {rank}")
        # Note: the paper sets r_3 = 8 on the 64 -> 1 output layer, so the
        # rank is allowed to exceed min(in, out); it is simply not a
        # compression there.
        rng = rng if rng is not None else np.random.default_rng(0)
        self.base = Linear(in_features, out_features, rng=rng)
        self.rank = rank
        self.scaling = scaling
        # W_B starts random, W_A starts zero, so ΔW = W_B @ W_A is zero at
        # the beginning of fine-tuning (standard LoRA init).
        self.lora_b = Parameter(rng.normal(0.0, 0.02, (in_features, rank)))
        self.lora_a = Parameter(np.zeros((rank, out_features)))
        self._adapter_enabled = False
        # Pre-training phase: adapter factors are untrainable.
        self.lora_a.freeze()
        self.lora_b.freeze()

    @property
    def adapter_enabled(self) -> bool:
        return self._adapter_enabled

    def enable_adapter(self) -> None:
        """Switch to fine-tuning: freeze W, train only the LoRA factors."""
        self._adapter_enabled = True
        self.base.weight.freeze()
        if self.base.bias is not None:
            self.base.bias.freeze()
        self.lora_a.unfreeze()
        self.lora_b.unfreeze()

    def disable_adapter(self) -> None:
        """Switch back to pre-training: train W, freeze the LoRA factors."""
        self._adapter_enabled = False
        self.base.weight.unfreeze()
        if self.base.bias is not None:
            self.base.bias.unfreeze()
        self.lora_a.freeze()
        self.lora_b.freeze()

    def merge(self) -> None:
        """Fold ΔW into the base weight and reset the adapter to zero."""
        delta = self.lora_b.data @ self.lora_a.data * self.scaling
        self.base.weight.data = self.base.weight.data + delta
        self.lora_a.data = np.zeros_like(self.lora_a.data)

    def adapter_num_parameters(self) -> int:
        return int(self.lora_a.size + self.lora_b.size)

    def forward(self, x: Tensor) -> Tensor:
        out = self.base(x)
        if self._adapter_enabled:
            out = out + (x @ self.lora_b @ self.lora_a) * self.scaling
        return out
