"""Module base class: parameter registry, gradient management, state dicts."""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from repro.nn.tensor import Tensor, no_grad


class Parameter(Tensor):
    """A tensor that is registered as a trainable model parameter."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)
        self.trainable = True

    def freeze(self) -> None:
        """Exclude this parameter from optimization (keeps its value)."""
        self.trainable = False
        self.requires_grad = False

    def unfreeze(self) -> None:
        self.trainable = True
        self.requires_grad = True


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically for optimization and
    serialization, mirroring the PyTorch convention.
    """

    # ------------------------------------------------------------------ #
    # Discovery
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{index}.")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{index}", item

    def parameters(self) -> Iterator[Parameter]:
        for _, parameter in self.named_parameters():
            yield parameter

    def trainable_parameters(self) -> Iterator[Parameter]:
        for parameter in self.parameters():
            if parameter.trainable:
                yield parameter

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------ #
    # Gradient management
    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self, trainable_only: bool = False) -> int:
        params = self.trainable_parameters() if trainable_only else self.parameters()
        return int(sum(p.size for p in params))

    def size_bytes(self, trainable_only: bool = False) -> int:
        """Model size in bytes assuming float32 storage (as the paper reports)."""
        return 4 * self.num_parameters(trainable_only=trainable_only)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{value.shape} vs {parameter.data.shape}"
                )
            parameter.data = value.copy()

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # Inference-only forward
    # ------------------------------------------------------------------ #
    def infer(self, *args, **kwargs):
        """Graph-free forward pass on raw numpy arrays.

        The serving hot path: no :class:`~repro.nn.tensor.Tensor` nodes are
        allocated and no backward closures recorded.  Layers with a pure
        numpy implementation override this; the fallback runs ``forward``
        under ``no_grad`` and unwraps the result, so every module stays
        servable even before it grows a hand-written inference kernel.

        Overrides must mirror ``forward`` operation-for-operation so the
        two paths agree bit-for-bit.
        """
        with no_grad():
            out = self.forward(*args, **kwargs)
        return out.data if isinstance(out, Tensor) else out
