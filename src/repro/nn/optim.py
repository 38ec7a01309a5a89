"""Gradient-descent optimizers (Adam)."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base optimizer over a fixed list of parameters."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam with bias correction.

    ``step`` is fully in-place: the moment estimates, the update, and the
    parameter itself are mutated through two preallocated per-parameter
    scratch buffers, so a training step allocates no fresh arrays.  Every
    expression is the same elementwise IEEE operation the textbook
    out-of-place form computes (``m/b1 / (sqrt(v/b2) + eps)`` etc.), so
    the optimizer trajectory is bit-identical to the allocating version —
    only the garbage-collector pressure changes.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        # Scratch buffers reused every step (one pair per parameter).
        self._s1 = [np.empty_like(p.data) for p in self.parameters]
        self._s2 = [np.empty_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for parameter, m, v, s1, s2 in zip(
            self.parameters, self._m, self._v, self._s1, self._s2
        ):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            # m = beta1*m + (1-beta1)*grad
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=s1)
            m += s1
            # v = beta2*v + (1-beta2)*grad^2   (x**2 lowers to square)
            v *= self.beta2
            np.square(grad, out=s1)
            s1 *= 1.0 - self.beta2
            v += s1
            # update = (m/bias1) / (sqrt(v/bias2) + eps), built in s2
            np.divide(v, bias2, out=s1)
            np.sqrt(s1, out=s1)
            s1 += self.eps
            np.divide(m, bias1, out=s2)
            s2 /= s1
            # parameter = parameter - lr*update
            s2 *= self.lr
            parameter.data -= s2
