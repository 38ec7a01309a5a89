"""Training loop for DACE.  (The learned baselines share their own loop,
:class:`repro.baselines.base.LearnedBaseline`.)

Implements the paper's objective (eq. 7): per-node weighted q-error, with
the loss adjuster's ``alpha ** height`` weights, minimized in log space.
Batches are grouped by plan size to keep padding small, and training is
fully deterministic given the seed.

The data path is encode-once: ``fit`` encodes the training and validation
plans a single time into an :class:`~repro.workloads.encoded.EncodedDataset`
and reuses the padded batches across every epoch.  Batch composition is
the same deterministic size-bucketing as before and only the batch order
is shuffled by the seeded RNG, so the loss trajectory and final weights
are bit-identical to re-encoding every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.fused import FusedStep, maybe_fused_step
from repro.core.model import DACEModel
from repro.featurize.catcher import CaughtPlan, catch_plan
from repro.featurize.encoder import EncodedBatch, PlanEncoder
from repro.nn import Adam, no_grad
from repro.nn.losses import log_qerror_loss, log_qerror_loss_np
from repro.obs import MetricsRegistry
from repro.workloads.dataset import PlanDataset
from repro.workloads.encoded import EncodedDataset


@dataclass
class TrainingConfig:
    """Optimization knobs."""

    epochs: int = 40
    batch_size: int = 64
    lr: float = 1e-3
    patience: int = 8           # early stopping on validation loss
    validation_fraction: float = 0.1
    seed: int = 0
    verbose: bool = False


def catch_dataset(dataset: PlanDataset) -> List[CaughtPlan]:
    return [catch_plan(sample.plan) for sample in dataset]


class Trainer:
    """Fits a DACE-style model on labelled plan datasets."""

    def __init__(
        self,
        model: DACEModel,
        encoder: PlanEncoder,
        config: Optional[TrainingConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.model = model
        self.encoder = encoder
        # Per-instance default: a def-time TrainingConfig() would be one
        # shared mutable object across every Trainer ever constructed.
        self.config = config if config is not None else TrainingConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.history: List[dict] = []

    # ------------------------------------------------------------------ #
    def _epoch_loss(
        self,
        batches: Sequence[EncodedBatch],
        fused: Optional[FusedStep] = None,
    ) -> float:
        """Mean per-plan loss over pre-encoded evaluation batches.

        With a ``fused`` training step active (stock ``DACEModel``,
        pre-training or LoRA) evaluation runs through its
        graph-free ``predict`` and the numpy loss mirror — same values
        bit for bit, no graph allocation.
        """
        if not batches:
            return float("nan")
        total, count = 0.0, 0
        if fused is not None:
            for batch in batches:
                pred = fused.predict(batch)
                value = log_qerror_loss_np(
                    pred, batch.labels_log, batch.loss_weights
                )
                total += value * batch.batch_size
                count += batch.batch_size
            return total / count
        with no_grad():
            for batch in batches:
                pred = self.model(batch)
                loss = log_qerror_loss(
                    pred, batch.labels_log, batch.loss_weights
                )
                total += loss.item() * batch.batch_size
                count += batch.batch_size
        return total / count

    # ------------------------------------------------------------------ #
    def fit(self, train: PlanDataset) -> "Trainer":
        """Train on ``train``; fits the encoder scaler if necessary."""
        if len(train) == 0:
            raise ValueError("empty training dataset")
        config = self.config
        rng = np.random.default_rng(config.seed)
        plans = catch_dataset(train)
        if not self.encoder.is_fit:
            self.encoder.fit(plans)

        n_val = int(len(plans) * config.validation_fraction)
        if n_val >= 4:
            perm = rng.permutation(len(plans))
            val_plans = [plans[i] for i in perm[:n_val]]
            train_plans = [plans[i] for i in perm[n_val:]]
        else:
            val_plans, train_plans = [], list(plans)

        # Encode once, train many: the padded batches are built here and
        # reused every epoch (validation included).
        with self.metrics.timer(
            "train.encode_seconds", help="one-time dataset encoding"
        ):
            train_batches = EncodedDataset.encode(
                self.encoder, train_plans
            ).bucketed_batches(config.batch_size)
            val_batches = (
                EncodedDataset.encode(self.encoder, val_plans)
                .sequential_batches(config.batch_size)
                if val_plans else []
            )

        optimizer = Adam(self.model.trainable_parameters(), lr=config.lr)
        # Graph-free fused step for stock DACE, in pre-training and in
        # LoRA fine-tuning; anything else (model subclasses, partially
        # enabled adapters) keeps the autograd path.  The fused mirrors
        # produce bit-identical losses and gradients, so the paths are
        # interchangeable mid-experiment.
        fused = maybe_fused_step(self.model)

        best_val = float("inf")
        best_state = None
        stale = 0
        epochs_run = self.metrics.counter(
            "train.epochs", help="optimization epochs completed"
        )
        for epoch in range(config.epochs):
            epoch_loss, seen = 0.0, 0
            with self.metrics.timer(
                "train.epoch_seconds", help="wall time per training epoch"
            ) as epoch_timer:
                # Same shuffle semantics as re-sorting every epoch: the
                # bucketed base order is deterministic, and rng.shuffle
                # over a same-length list consumes identical draws, so
                # the batch schedule matches the re-encode path bit for
                # bit.
                batches = list(train_batches)
                rng.shuffle(batches)
                for batch in batches:
                    optimizer.zero_grad()
                    if fused is not None:
                        loss_value = fused.step(batch)
                    else:
                        pred = self.model(batch)
                        loss = log_qerror_loss(
                            pred, batch.labels_log, batch.loss_weights
                        )
                        loss.backward()
                        loss_value = loss.item()
                    optimizer.step()
                    epoch_loss += loss_value * batch.batch_size
                    seen += batch.batch_size
            epochs_run.inc()
            val_loss = self._epoch_loss(val_batches, fused)
            self.history.append({
                "epoch": epoch,
                "train_loss": epoch_loss / max(seen, 1),
                "val_loss": val_loss,
                "seconds": epoch_timer.last,
            })
            if config.verbose:
                print(f"epoch {epoch}: train={epoch_loss / max(seen, 1):.4f} "
                      f"val={val_loss:.4f}")
            if val_plans:
                if val_loss < best_val - 1e-5:
                    best_val = val_loss
                    best_state = self.model.state_dict()
                    stale = 0
                else:
                    stale += 1
                    if stale >= config.patience:
                        break
        if best_state is not None:
            self.model.load_state_dict(best_state)
        return self

    # ------------------------------------------------------------------ #
    def predict_log(self, dataset: PlanDataset) -> np.ndarray:
        """Predicted root log-latency per plan.

        Runs on a throwaway (uncached — weights move between epochs)
        :class:`~repro.serve.service.EstimatorService`, i.e. the batched
        no-graph inference path.
        """
        from repro.serve.service import EstimatorService

        service = EstimatorService(
            self.model, self.encoder,
            batch_size=self.config.batch_size, cache_size=0,
            metrics=self.metrics,
        )
        return service.predict_log(dataset)

    def predict_ms(self, dataset: PlanDataset) -> np.ndarray:
        return np.exp(self.predict_log(dataset))
