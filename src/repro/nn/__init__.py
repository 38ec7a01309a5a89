"""Minimal reverse-mode autodiff neural-network framework on numpy.

This package substitutes for PyTorch in the DACE reproduction.  It provides
exactly the pieces the paper's models need: a :class:`~repro.nn.tensor.Tensor`
with reverse-mode autodiff and broadcasting, linear/ReLU/LayerNorm layers,
masked attention, the Adam optimizer, LoRA adapters and the weighted
q-error loss.
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn.module import Module, Parameter
from repro.nn.layers import LayerNorm, Linear, ReLU, Sequential
from repro.nn.attention import masked_self_attention
from repro.nn.optim import Adam, Optimizer
from repro.nn.losses import log_qerror_loss, qerror
from repro.nn.lora import LoRALinear
from repro.nn.init import kaiming_uniform

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Parameter",
    "Linear",
    "Sequential",
    "ReLU",
    "LayerNorm",
    "masked_self_attention",
    "Optimizer",
    "Adam",
    "qerror",
    "log_qerror_loss",
    "LoRALinear",
    "kaiming_uniform",
]
