"""Knowledge integration: DACE as a pre-trained encoder for WDMs (eq. 9).

:class:`DACEIntegration` wraps any WDM built with a ``context_dim`` (MSCN
and QueryFormer in the paper) and a *frozen*, pre-trained DACE.  At train
and inference time the DACE embedding ``w_E`` (the 64-dim MLP hidden state
of the plan's root) is computed for every plan and concatenated into the
WDM's final layer input.  The WDM trains normally; DACE's weights never
change.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import CostEstimatorBase, LearnedBaseline
from repro.core.estimator import DACE
from repro.workloads.dataset import PlanDataset


class DACEIntegration(CostEstimatorBase):
    """A WDM + frozen DACE plan embeddings, named ``"DACE-" + wdm.name``."""

    def __init__(self, wdm: LearnedBaseline, dace: DACE) -> None:
        if wdm.context_dim != dace.embedding_dim:
            raise ValueError(
                f"{wdm.name} takes a {wdm.context_dim}-dim context; DACE "
                f"embeds plans in {dace.embedding_dim} dims"
            )
        self.wdm = wdm
        self.dace = dace
        self.name = "DACE-" + wdm.name

    def fit(self, train: PlanDataset) -> "DACEIntegration":
        self.wdm.fit(train, context=self.dace.embed_dataset(train))
        return self

    def predict_ms(self, test: PlanDataset) -> np.ndarray:
        return self.wdm.predict_ms(test, context=self.dace.embed_dataset(test))

    def num_parameters(self) -> int:
        # The WDM's own parameters plus the frozen encoder it must ship with.
        return self.wdm.num_parameters() + self.dace.num_parameters()
