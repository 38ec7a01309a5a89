"""The hot path reports itself: service and trainer metrics."""

import numpy as np
import pytest

from repro.core import DACEModel, Trainer, TrainingConfig
from repro.featurize import PlanEncoder, catch_plan
from repro.obs import MetricsRegistry
from repro.serve import EstimatorService


@pytest.fixture(scope="module")
def setup(train_datasets):
    dataset = train_datasets[0]
    all_plans = [s.plan for s in dataset]
    encoder = PlanEncoder().fit([catch_plan(p) for p in all_plans])
    model = DACEModel(rng=np.random.default_rng(41))
    # Keep one plan per fingerprint so batch/miss counts are exact.
    seen, plans = set(), []
    for plan in all_plans:
        key = catch_plan(plan).fingerprint()
        if key not in seen:
            seen.add(key)
            plans.append(plan)
    return model, encoder, dataset, plans


class TestServiceInstrumentation:
    def test_stage_timings_recorded(self, setup):
        model, encoder, _, plans = setup
        registry = MetricsRegistry()
        service = EstimatorService(model, encoder, batch_size=8,
                                   metrics=registry)
        service.predict_plans(plans[:20])
        encode = registry.get("serve.encode_seconds")
        forward = registry.get("serve.forward_seconds")
        assert encode.count >= 1
        assert forward.count >= 1
        assert encode.sum > 0
        assert forward.sum > 0
        request = registry.get("serve.request_seconds")
        assert request.count == 1
        assert request.sum >= encode.sum + forward.sum

    def test_batch_size_histogram(self, setup):
        model, encoder, _, plans = setup
        registry = MetricsRegistry()
        service = EstimatorService(model, encoder, batch_size=8,
                                   cache_size=0, metrics=registry)
        service.predict_plans(plans[:20])
        batch_sizes = registry.get("serve.batch_size")
        assert batch_sizes.count == 3          # 8 + 8 + 4
        assert batch_sizes.max == 8

    def test_cache_counters_on_shared_registry(self, setup):
        model, encoder, _, plans = setup
        registry = MetricsRegistry()
        service = EstimatorService(model, encoder, metrics=registry)
        service.predict_plans(plans[:10])
        service.predict_plans(plans[:10])
        assert registry.get("serve.cache.hits").value == \
            service.cache_stats.hits
        assert registry.get("serve.cache.misses").value == \
            service.cache_stats.misses
        assert service.cache_stats.hits >= 10

    def test_plan_and_request_counters(self, setup):
        model, encoder, _, plans = setup
        service = EstimatorService(model, encoder)
        service.predict_plans(plans[:7])
        service.predict_plan(plans[0])
        assert service.metrics.get("serve.requests").value == 2
        assert service.metrics.get("serve.plans").value == 8

    def test_warm_path_emits_spans(self, setup):
        model, encoder, _, plans = setup
        service = EstimatorService(model, encoder)
        service.predict_plans(plans[:5])
        service.reset_stats()
        service.predict_plans(plans[:5])
        names = {span.name for span in service.metrics.trace}
        assert "serve.request_seconds" in names
        # Warm pass: no encode/forward spans, the cache served everything.
        assert "serve.encode_seconds" not in names


class TestTrainerInstrumentation:
    def test_epoch_timings(self, train_datasets):
        registry = MetricsRegistry()
        encoder = PlanEncoder()
        model = DACEModel(rng=np.random.default_rng(3))
        trainer = Trainer(
            model, encoder,
            TrainingConfig(epochs=3, batch_size=32, patience=100),
            metrics=registry,
        )
        trainer.fit(train_datasets[0])
        epoch_seconds = registry.get("train.epoch_seconds")
        assert epoch_seconds.count == registry.get("train.epochs").value
        assert epoch_seconds.count >= 1
        assert epoch_seconds.sum > 0
        assert all("seconds" in entry for entry in trainer.history)

    def test_dace_shares_one_registry(self, train_datasets):
        from repro.core import DACE

        dace = DACE(training=TrainingConfig(epochs=2, batch_size=32),
                    seed=9)
        assert dace.trainer.metrics is dace.metrics
        assert dace.service.metrics is dace.metrics
        dace.fit(train_datasets[0])
        dace.predict(train_datasets[0])
        names = {metric.name for metric in dace.metrics}
        assert "train.epoch_seconds" in names
        assert "serve.forward_seconds" in names
        assert "serve.cache.hits" in names
