"""Standard neural-network layers built on the autodiff tensor."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.init import kaiming_uniform
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with shapes (in_features, out_features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        bias: bool = True,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(kaiming_uniform(rng, in_features, out_features))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def infer(self, x: np.ndarray) -> np.ndarray:
        # `x * (x > 0)`, not np.maximum: bit-identical to Tensor.relu.
        return x * (x > 0)


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(features))
        self.beta = Parameter(np.zeros(features))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normalized = centered * (variance + self.eps) ** -0.5
        return normalized * self.gamma + self.beta

    def infer(self, x: np.ndarray) -> np.ndarray:
        # Bit-identity with forward: Tensor.mean is sum * (1/n), whose
        # rounding differs from np.mean at the last ulp.
        scale = 1.0 / x.shape[-1]
        mean = x.sum(axis=-1, keepdims=True) * scale
        centered = x - mean
        variance = (centered * centered).sum(axis=-1, keepdims=True) * scale
        normalized = centered * (variance + self.eps) ** -0.5
        return normalized * self.gamma.data + self.beta.data


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.children_list = list(modules)

    def append(self, module: Module) -> None:
        self.children_list.append(module)

    def __getitem__(self, index: int) -> Module:
        return self.children_list[index]

    def __len__(self) -> int:
        return len(self.children_list)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.children_list:
            x = module(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        for module in self.children_list:
            x = module.infer(x)
        return x


def mlp(
    sizes: Sequence[int],
    rng: Optional[np.random.Generator] = None,
    activation: type = ReLU,
    final_activation: bool = False,
) -> Sequential:
    """Build an MLP from layer sizes, e.g. ``mlp([128, 64, 1])``."""
    if len(sizes) < 2:
        raise ValueError("mlp needs at least an input and an output size")
    rng = rng if rng is not None else np.random.default_rng(0)
    layers: list[Module] = []
    for index, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        layers.append(Linear(fan_in, fan_out, rng=rng))
        last = index == len(sizes) - 2
        if not last or final_activation:
            layers.append(activation())
    return Sequential(*layers)
