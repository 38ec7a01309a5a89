"""DACE — the paper's primary contribution.

- :mod:`repro.core.model` — the lightweight tree-attention transformer with
  a 3-layer MLP head predicting all sub-plan costs in parallel (Sec. IV-C).
- :mod:`repro.core.trainer` — mini-batch training with the loss adjuster's
  weighted q-error objective (eq. 7).
- :mod:`repro.core.estimator` — the high-level pre-trained-estimator API:
  fit / predict / save / load / LoRA fine-tuning / encoder embeddings.
"""

from repro.core.model import DACEConfig, DACEModel
from repro.core.trainer import Trainer, TrainingConfig
from repro.core.estimator import DACE
from repro.core.ensemble import DACEEnsemble

__all__ = [
    "DACEConfig",
    "DACEModel",
    "Trainer",
    "TrainingConfig",
    "DACE",
    "DACEEnsemble",
]
