"""End-to-end integration: the full paper pipeline on a reduced scale.

Covers the complete flow the benchmarks exercise: zoo -> workloads ->
pre-training -> zero-shot inference -> LoRA adaptation -> knowledge
integration, asserting the *relationships* the paper claims rather than
absolute numbers.
"""

import numpy as np
import pytest

from repro.baselines import DACEIntegration, MSCNModel, PostgresCostBaseline
from repro.catalog import load_database
from repro.core import DACE, TrainingConfig
from repro.metrics import qerror_summary
from repro.workloads import PlanDataset


@pytest.fixture(scope="module")
def pipeline(train_datasets, test_dataset):
    dace = DACE(
        training=TrainingConfig(epochs=15, batch_size=32, lr=2e-3), seed=0
    )
    dace.fit(train_datasets)
    return dace


class TestPaperClaims:
    def test_dace_beats_postgres_on_unseen_db(self, pipeline, train_datasets,
                                              test_dataset):
        """Insight II: correcting the EDQO beats the raw corrected cost."""
        postgres = PostgresCostBaseline().fit(
            PlanDataset.merge(train_datasets)
        )
        pg = qerror_summary(
            postgres.predict_ms(test_dataset), test_dataset.latencies()
        )
        dace = qerror_summary(
            pipeline.predict(test_dataset), test_dataset.latencies()
        )
        assert dace.median <= pg.median * 1.1

    def test_dace_smaller_than_every_baseline(self, pipeline):
        imdb = load_database("imdb")
        from repro.baselines import (
            QPPNetModel, QueryFormerModel, TPoolModel, ZeroShotModel,
        )
        baselines = [
            MSCNModel(imdb), QPPNetModel(), TPoolModel(),
            QueryFormerModel(), ZeroShotModel(),
        ]
        for baseline in baselines:
            assert pipeline.size_mb() < baseline.size_mb(), baseline.name

    def test_lora_adapts_cheaper_than_retraining(self, pipeline):
        """LoRA trains far fewer parameters than the full model."""
        trainable_before = sum(
            p.size for p in pipeline.model.trainable_parameters()
        )
        pipeline.model.enable_lora()
        trainable_lora = sum(
            p.size for p in pipeline.model.trainable_parameters()
        )
        pipeline.model.disable_lora()
        assert trainable_lora < trainable_before * 0.6

    def test_embedding_is_informative(self, pipeline, test_dataset):
        """Plans with very different latencies should embed differently."""
        embeddings = pipeline.embed_dataset(test_dataset)
        latencies = test_dataset.latencies()
        order = np.argsort(latencies)
        fast = embeddings[order[:10]].mean(axis=0)
        slow = embeddings[order[-10:]].mean(axis=0)
        assert np.linalg.norm(fast - slow) > 1e-3

    def test_knowledge_integration_runs_end_to_end(self, pipeline,
                                                   imdb_workload):
        imdb = load_database("imdb")
        train, test = imdb_workload.split(0.6, seed=0)
        hybrid = DACEIntegration(
            MSCNModel(imdb, context_dim=pipeline.embedding_dim, epochs=10,
                      seed=0),
            pipeline,
        ).fit(train)
        summary = hybrid.evaluate(test)
        assert summary.median < 10.0

    def test_full_save_reload_finetune_cycle(self, pipeline, test_dataset,
                                             tmp_path):
        path = str(tmp_path / "cycle")
        pipeline.save(path)
        loaded = DACE.load(path)
        train, holdout = test_dataset.split(0.5, seed=1)
        loaded.fine_tune_lora(train, epochs=5)
        predictions = loaded.predict(holdout)
        assert np.isfinite(predictions).all()


class TestSubPlanConsistency:
    def test_subplan_predictions_track_subplan_labels(self, pipeline,
                                                      test_dataset):
        """Eq. 6: per-node predictions must correlate with per-node actuals
        across the test set."""
        from repro.featurize import catch_plan
        predicted, actual = [], []
        for sample in test_dataset:
            caught = catch_plan(sample.plan)
            preds = pipeline.predict_subplans(sample.plan)
            predicted.extend(np.log(preds))
            actual.extend(np.log(np.maximum(caught.actual_times, 1e-3)))
        corr = np.corrcoef(predicted, actual)[0, 1]
        assert corr > 0.7
