"""Common interface of every cost estimator, and the one training and one
prediction loop that all learned baselines share."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.common import build_tree_levels
from repro.featurize.catcher import catch_plan
from repro.featurize.encoder import LABEL_EPS_MS
from repro.metrics.qerror import QErrorSummary, qerror_summary
from repro.nn import Adam, Module, Tensor, no_grad
from repro.workloads.dataset import PlanDataset

BATCH_SIZE = 64
LR = 1e-3


class CostEstimatorBase:
    """fit / predict_ms / evaluate interface every model implements."""

    name = "base"

    def fit(self, train: PlanDataset) -> "CostEstimatorBase":
        raise NotImplementedError

    def predict_ms(self, test: PlanDataset) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, test: PlanDataset) -> QErrorSummary:
        return qerror_summary(self.predict_ms(test), test.latencies())

    def num_parameters(self) -> int:
        return 0

    def size_mb(self) -> float:
        """float32 size of the parameters, as the paper's Tab II reports."""
        return 4 * self.num_parameters() / 1e6


def log_labels(dataset: PlanDataset) -> np.ndarray:
    """Root log-latency labels for a dataset."""
    return np.log(np.maximum(dataset.latencies(), LABEL_EPS_MS))


class LearnedBaseline(CostEstimatorBase):
    """A learned baseline: its network plus the hooks that make it its own.

    ``fit`` is the one Adam training loop and ``predict_ms`` the one
    no-grad, chunked prediction loop.  A subclass builds ``net`` (and the
    ``encoder`` its inputs need) and supplies:

    - ``_inputs``: per-sample inputs of a dataset.  By default the caught
      plans, fitting ``encoder`` on the first training set;
    - ``_epoch``: one epoch's batches as row lists.  By default
      size-bucketed: plans sorted by node count and cut into batches
      (little padding, similar depths), in a freshly shuffled order;
    - ``_batch``: the network input for some rows.  By default the
      level-synchronous tree batch of :mod:`repro.baselines.common`;
    - ``_loss``: the training loss of one batch;
    - ``_readout``: the root log-latency prediction of one batch.

    A model built with ``context_dim`` takes a per-sample context array
    (the DACE plan embeddings of paper eq. 9) in ``fit`` and
    ``predict_ms``; the loops slice it with the batch rows.
    """

    batch_size = BATCH_SIZE
    lr = LR
    context_dim = 0
    net: Module

    def __init__(self, epochs: int, seed: int) -> None:
        self.epochs = epochs
        self.seed = seed

    # Hooks ------------------------------------------------------------- #
    def _inputs(self, dataset: PlanDataset, fit: bool) -> list:
        plans = [catch_plan(sample.plan) for sample in dataset]
        if fit and not self.encoder.is_fit:
            self.encoder.fit(plans)
        return plans

    def _epoch(self, inputs: list, rng: np.random.Generator):
        order = sorted(range(len(inputs)), key=lambda i: inputs[i].num_nodes)
        chunks = [order[s:s + self.batch_size]
                  for s in range(0, len(order), self.batch_size)]
        rng.shuffle(chunks)
        return chunks

    def _batch(self, inputs: list, rows, with_labels: bool):
        return build_tree_levels([inputs[i] for i in rows], self.encoder,
                                 with_labels=with_labels)

    def _loss(self, batch, context: Optional[np.ndarray]) -> Tensor:
        raise NotImplementedError

    def _readout(self, batch, context: Optional[np.ndarray]) -> Tensor:
        raise NotImplementedError

    # The loops --------------------------------------------------------- #
    def _check_context(self, context: Optional[np.ndarray]) -> None:
        if self.context_dim and context is None:
            raise ValueError("model was built with context_dim but none given")

    def fit(self, train: PlanDataset,
            context: Optional[np.ndarray] = None) -> "LearnedBaseline":
        if len(train) == 0:
            raise ValueError("empty training dataset")
        self._check_context(context)
        inputs = self._inputs(train, fit=True)
        rng = np.random.default_rng(self.seed)
        optimizer = Adam(self.net.trainable_parameters(), lr=self.lr)
        for _ in range(self.epochs):
            for rows in self._epoch(inputs, rng):
                batch = self._batch(inputs, rows, with_labels=True)
                ctx = context[rows] if context is not None else None
                optimizer.zero_grad()
                loss = self._loss(batch, ctx)
                loss.backward()
                optimizer.step()
        return self

    def predict_ms(self, test: PlanDataset,
                   context: Optional[np.ndarray] = None) -> np.ndarray:
        self._check_context(context)
        inputs = self._inputs(test, fit=False)
        out = np.empty(len(inputs))
        with no_grad():
            for start in range(0, len(inputs), self.batch_size):
                rows = np.arange(start, min(start + self.batch_size,
                                            len(inputs)))
                batch = self._batch(inputs, rows, with_labels=False)
                ctx = context[rows] if context is not None else None
                out[rows] = self._readout(batch, ctx).data
        return np.exp(out)

    def num_parameters(self) -> int:
        return self.net.num_parameters()
