"""ModelRegistry: hot-swap LoRA-fine-tuned variants on one shared base.

The across-more story (paper Sec. IV-D) produces one LoRA adapter set per
deployment target — a database, a machine, a tenant.  Adapters are tiny
(a few KB) next to the base model, so a serving process should keep *one*
base DACE resident and swap adapter sets in and out per request tag
instead of loading whole models.

``ModelRegistry`` implements exactly that: it snapshots the pristine
adapter state at construction under the ``"base"`` tag, fine-tunes new
variants from that pristine state, and ``activate(tag)`` loads a stored
adapter set into the shared model (invalidating the estimator's serving
cache, whose entries are keyed by plan content only).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

_ADAPTER_MARKER = ".lora_"


class ModelRegistry:
    """Keyed adapter sets (e.g. ``"imdb/M2"``) over one shared estimator.

    ``estimator`` is a DACE-like object: it must expose ``model`` (with
    ``named_parameters``/``enable_lora``/``disable_lora``),
    ``fine_tune_lora(datasets, epochs, lr)``, and a ``service`` whose
    cache is invalidated on swap.
    """

    BASE_TAG = "base"

    def __init__(self, estimator) -> None:
        self.estimator = estimator
        self._adapters: Dict[str, Dict[str, np.ndarray]] = {}
        self._lora_enabled: Dict[str, bool] = {}
        self._adapters[self.BASE_TAG] = self._snapshot()
        self._lora_enabled[self.BASE_TAG] = estimator.model.lora_enabled
        self.active_tag = self.BASE_TAG

    # ------------------------------------------------------------------ #
    def _adapter_parameters(self):
        for name, parameter in self.estimator.model.named_parameters():
            if _ADAPTER_MARKER in name:
                yield name, parameter

    def _snapshot(self) -> Dict[str, np.ndarray]:
        return {
            name: parameter.data.copy()
            for name, parameter in self._adapter_parameters()
        }

    # ------------------------------------------------------------------ #
    def tags(self) -> List[str]:
        return sorted(self._adapters)

    def __contains__(self, tag: str) -> bool:
        return tag in self._adapters

    def adapter_state(self, tag: str) -> Dict[str, np.ndarray]:
        """A copy of the stored adapter arrays for ``tag``."""
        if tag not in self._adapters:
            raise KeyError(f"unknown tag {tag!r}; have {self.tags()}")
        return {name: array.copy()
                for name, array in self._adapters[tag].items()}

    def register(self, tag: str, adapter_state: Dict[str, np.ndarray]) -> None:
        """Store an externally produced adapter set under ``tag``."""
        base = self._adapters[self.BASE_TAG]
        expected = set(base)
        provided = set(adapter_state)
        if provided != expected:
            raise KeyError(
                f"adapter state mismatch: missing={sorted(expected - provided)} "
                f"unexpected={sorted(provided - expected)}"
            )
        arrays = {
            name: np.asarray(array, dtype=np.float64).copy()
            for name, array in adapter_state.items()
        }
        # A wrong-shaped array would register fine and then fail every
        # forward of this tag with a matmul core-dimension error.
        for name, array in arrays.items():
            if array.shape != base[name].shape:
                raise ValueError(
                    f"adapter {name!r} has shape {array.shape}, "
                    f"expected {base[name].shape}"
                )
        self._adapters[tag] = arrays
        self._lora_enabled[tag] = True
        if tag == self.active_tag:
            # Re-registration replaced the live adapter set: load the new
            # arrays now, or the model keeps serving the stale weights
            # (callers that skip redundant activations would never swap).
            self.activate(tag)

    def remove(self, tag: str) -> None:
        """Forget a stored adapter set (tenant eviction).

        The base snapshot can never be removed, and neither can the
        active tag — activate another tag first, so the model is never
        left running adapters the registry no longer knows about.
        """
        if tag == self.BASE_TAG:
            raise ValueError(f"{self.BASE_TAG!r} is reserved for the base")
        if tag not in self._adapters:
            raise KeyError(f"unknown tag {tag!r}; have {self.tags()}")
        if tag == self.active_tag:
            raise ValueError(
                f"cannot remove the active tag {tag!r}; "
                "activate another tag first"
            )
        del self._adapters[tag]
        del self._lora_enabled[tag]

    # ------------------------------------------------------------------ #
    def fine_tune(self, tag: str, datasets, epochs=None, lr=None):
        """LoRA-fine-tune a fresh variant from the pristine base adapters.

        Leaves ``tag`` active and returns the shared estimator.
        """
        if tag == self.BASE_TAG:
            raise ValueError(f"{self.BASE_TAG!r} is reserved for the base")
        self.activate(self.BASE_TAG)  # start from zero-delta adapters
        self.estimator.fine_tune_lora(datasets, epochs=epochs, lr=lr)
        self._adapters[tag] = self._snapshot()
        self._lora_enabled[tag] = True
        self.active_tag = tag
        return self.estimator

    def activate(self, tag: str):
        """Load ``tag``'s adapters into the shared model; returns it.

        Hot-swap: only the adapter arrays are written, the base weights
        and the encoder never move, and the serving cache is invalidated
        so stale predictions cannot leak across variants.
        """
        if tag not in self._adapters:
            raise KeyError(f"unknown tag {tag!r}; have {self.tags()}")
        stored = self._adapters[tag]
        for name, parameter in self._adapter_parameters():
            parameter.data = stored[name].copy()
        if self._lora_enabled[tag]:
            self.estimator.model.enable_lora()
        else:
            self.estimator.model.disable_lora()
        service = getattr(self.estimator, "service", None)
        if service is not None:
            # An adapter swap moves weights only — encodings depend on
            # the encoder alone, so keep that memo when the service
            # distinguishes the two invalidation scopes.
            invalidate = getattr(
                service, "invalidate_predictions", service.invalidate
            )
            invalidate()
        self.active_tag = tag
        return self.estimator
