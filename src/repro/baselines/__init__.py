"""Baseline cost-estimation models (paper Sec. V, "Baselines").

Within-database models (WDMs):

- :class:`~repro.baselines.mscn.MSCNModel` — query-driven set-convolution.
- :class:`~repro.baselines.qppnet.QPPNetModel` — per-node-type neural units
  evaluated bottom-up, trained on every sub-plan (information redundancy).
- :class:`~repro.baselines.tpool.TPoolModel` — tree pooling with multi-task
  (cost + cardinality) heads.
- :class:`~repro.baselines.queryformer.QueryFormerModel` — an 8-layer
  transformer with height embeddings, tree-bias attention, and a super node.

Across-database models (ADMs):

- :class:`~repro.baselines.zeroshot.ZeroShotModel` — node-type-specific
  MLPs with bottom-up message passing.

Non-learned:

- :class:`~repro.baselines.postgres.PostgresCostBaseline` — a linear
  correction of the optimizer's cost (the paper's "PostgreSQL" rows).

Knowledge integration (paper eq. 9):

- :class:`~repro.baselines.hybrid.DACEIntegration` — any WDM built with a
  ``context_dim`` (DACE-MSCN, DACE-QueryFormer) consuming a frozen
  pre-trained DACE's plan embeddings.

Every learned model is a :class:`~repro.baselines.base.LearnedBaseline`:
one shared training loop and one shared prediction loop, with the model
supplying only its network, its batches, its loss and its readout.
"""

from repro.baselines.base import CostEstimatorBase
from repro.baselines.postgres import PostgresCostBaseline
from repro.baselines.mscn import MSCNModel
from repro.baselines.zeroshot import ZeroShotModel
from repro.baselines.qppnet import QPPNetModel
from repro.baselines.tpool import TPoolModel
from repro.baselines.queryformer import QueryFormerModel
from repro.baselines.hybrid import DACEIntegration

__all__ = [
    "CostEstimatorBase",
    "PostgresCostBaseline",
    "MSCNModel",
    "ZeroShotModel",
    "QPPNetModel",
    "TPoolModel",
    "QueryFormerModel",
    "DACEIntegration",
]
