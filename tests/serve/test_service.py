"""EstimatorService: correctness vs the direct forward, cache semantics."""

import numpy as np
import pytest

from repro.core import DACEModel
from repro.featurize import PlanEncoder, catch_plan
from repro.nn import no_grad
from repro.serve import ConcurrentEstimatorService, EstimatorService


@pytest.fixture(scope="module")
def setup(train_datasets):
    dataset = train_datasets[0]
    plans = [s.plan for s in dataset]
    caught = [catch_plan(p) for p in plans]
    encoder = PlanEncoder().fit(caught)
    model = DACEModel(rng=np.random.default_rng(21))
    return model, encoder, dataset, plans


def _reference_logs(model, encoder, plan) -> np.ndarray:
    """Per-node log predictions via the naive single-plan autograd path."""
    caught = catch_plan(plan)
    batch = encoder.encode_batch([caught], with_labels=False)
    with no_grad():
        out = model(batch)
    return out.data[0, :caught.num_nodes]


class TestCorrectness:
    def test_satisfies_protocol(self, setup):
        # The caught-plan contract: the pool accepts the service, and
        # predict_plans is predict_caught over the caught plans.
        model, encoder, _, plans = setup
        service = EstimatorService(model, encoder)
        ConcurrentEstimatorService(service, workers=1).close()
        np.testing.assert_array_equal(
            service.predict_plans(plans[:4]),
            service.predict_caught([catch_plan(p) for p in plans[:4]]))

    def test_predict_plan_matches_reference(self, setup):
        model, encoder, _, plans = setup
        service = EstimatorService(model, encoder, batch_size=16)
        for plan in plans[:5]:
            expected = float(np.exp(_reference_logs(model, encoder, plan)[0]))
            assert service.predict_plan(plan) == pytest.approx(
                expected, rel=1e-9
            )

    def test_predict_plans_matches_loop(self, setup):
        model, encoder, _, plans = setup
        service = EstimatorService(model, encoder, batch_size=7)
        batched = service.predict_plans(plans[:20])
        singles = np.array([
            np.exp(_reference_logs(model, encoder, plan)[0])
            for plan in plans[:20]
        ])
        np.testing.assert_allclose(batched, singles, rtol=1e-9)

    def test_predict_subplans(self, setup):
        model, encoder, _, plans = setup
        service = EstimatorService(model, encoder)
        plan = plans[0]
        subplans = service.predict_subplans(plan)
        expected = np.exp(_reference_logs(model, encoder, plan))
        assert subplans.shape == expected.shape
        np.testing.assert_allclose(subplans, expected, rtol=1e-9)

    def test_dataset_predictions(self, setup):
        model, encoder, dataset, plans = setup
        service = EstimatorService(model, encoder)
        predictions = service.predict(dataset)
        assert predictions.shape == (len(dataset),)
        np.testing.assert_allclose(
            predictions, service.predict_plans(plans), rtol=1e-12
        )
        np.testing.assert_allclose(
            np.log(predictions), service.predict_log(dataset), rtol=1e-12
        )

    def test_embeddings(self, setup):
        model, encoder, dataset, plans = setup
        service = EstimatorService(model, encoder)
        one = service.embed_plan(plans[0])
        assert one.shape == (model.config.hidden2,)
        all_of_them = service.embed_dataset(dataset)
        assert all_of_them.shape == (len(dataset), model.config.hidden2)
        np.testing.assert_allclose(all_of_them[0], one, rtol=1e-9)


class TestCacheSemantics:
    def test_second_pass_all_hits(self, setup):
        model, encoder, _, plans = setup
        service = EstimatorService(model, encoder)
        unique = len(set(catch_plan(p).fingerprint() for p in plans))
        cold = service.predict_plans(plans)
        # In-call duplicates resolve from the first computation and count
        # as hits even on the cold pass; only unique plans miss.
        assert service.cache_stats.hits == len(plans) - unique
        assert service.cache_stats.misses == unique
        warm = service.predict_plans(plans)
        assert service.cache_stats.hits == 2 * len(plans) - unique
        assert service.cache_size == unique
        np.testing.assert_array_equal(cold, warm)

    def test_cached_values_identical_across_batsizes(self, setup):
        """A cache hit must return exactly what a fresh batch would."""
        model, encoder, _, plans = setup
        service = EstimatorService(model, encoder, batch_size=3)
        first = service.predict_plans(plans[:10])
        again = np.array([service.predict_plan(p) for p in plans[:10]])
        np.testing.assert_array_equal(first, again)

    def test_invalidate_forces_misses(self, setup):
        model, encoder, _, plans = setup
        service = EstimatorService(model, encoder)
        service.predict_plans(plans[:4])
        service.invalidate()
        assert service.cache_size == 0
        service.reset_stats()
        service.predict_plans(plans[:4])
        assert service.cache_stats.hits == 0
        assert service.cache_stats.misses == 4

    def test_cache_disabled(self, setup):
        model, encoder, _, plans = setup
        service = EstimatorService(model, encoder, cache_size=0)
        service.predict_plans(plans[:4])
        service.predict_plans(plans[:4])
        assert service.cache_size == 0
        assert service.cache_stats.hits == 0

    def test_extra_features_encoder_disables_cache(self, setup):
        """Predicate-literal features are not fingerprinted, so caching
        them would alias distinct plans: the service must refuse."""
        from repro.core import DACEConfig

        _, _, _, plans = setup
        caught = [catch_plan(p) for p in plans]
        rich = PlanEncoder(extra_features=True).fit(caught)
        wide = DACEModel(
            DACEConfig(input_dim=rich.dim),
            rng=np.random.default_rng(22),
        )
        service = EstimatorService(wide, rich)
        service.predict_plans(plans[:4])
        service.predict_plans(plans[:4])
        assert service.cache_size == 0
        assert service.cache_stats.hits == 0

    def test_batch_size_validated(self, setup):
        model, encoder, _, _ = setup
        with pytest.raises(ValueError):
            EstimatorService(model, encoder, batch_size=0)


class TestWeightChangeInvalidation:
    def test_dace_finetune_invalidates(self, train_datasets):
        from repro.core import DACE, TrainingConfig

        dace = DACE(
            training=TrainingConfig(epochs=2, batch_size=32), seed=5
        )
        dace.fit(train_datasets[0])
        before = dace.predict(train_datasets[0])
        assert dace.service.cache_size > 0
        dace.fine_tune_lora(train_datasets[0], epochs=2)
        after = dace.predict(train_datasets[0])
        # Stale cache entries would make these bit-identical.
        assert not np.array_equal(before, after)


class TestCachePoisoning:
    """Regression: hits used to hand out the cached array object itself,
    so a caller mutating a result silently corrupted every later hit."""

    def test_results_are_read_only(self, setup):
        model, encoder, _, plans = setup
        service = EstimatorService(model, encoder)
        subplans = service.predict_subplans(plans[0])  # fresh array: fine
        assert subplans.flags.writeable
        embedding = service.embed_plan(plans[0])       # cached object
        with pytest.raises(ValueError):
            embedding[0] = 123.0

    def test_mutation_cannot_poison_next_lookup(self, setup):
        model, encoder, _, plans = setup
        service = EstimatorService(model, encoder)
        first = service.embed_plan(plans[0])
        try:
            first[:] = 1e9
        except ValueError:
            pass                                   # read-only, as required
        again = service.embed_plan(plans[0])
        clean = EstimatorService(model, encoder).embed_plan(plans[0])
        np.testing.assert_array_equal(again, clean)

    def test_node_log_cache_unpoisoned_across_kinds(self, setup):
        model, encoder, _, plans = setup
        service = EstimatorService(model, encoder)
        before = service.predict_plan(plans[0])
        vector = service.predict_subplans(plans[0])
        vector[:] = 0.0                            # caller-owned copy only
        assert service.predict_plan(plans[0]) == pytest.approx(before)


class TestInCallDeduplication:
    """Regression: duplicate plans inside one call each missed and were
    each encoded + forwarded."""

    def test_duplicates_forward_once(self, setup):
        model, encoder, _, plans = setup
        service = EstimatorService(model, encoder, batch_size=64)
        repeated = [plans[0]] * 10 + [plans[1]] * 5
        values = service.predict_plans(repeated)
        forwards = service.metrics.counter("serve.fused.forwards").value
        rows = service.metrics.histogram("serve.batch_size").sum
        assert forwards == 1
        assert rows == 2                           # one row per unique plan
        assert service.cache_stats.misses == 2
        assert service.cache_stats.hits == 13
        np.testing.assert_allclose(values[:10], values[0], rtol=0)
        np.testing.assert_allclose(
            values, service.predict_plans(repeated), rtol=1e-12
        )

    def test_duplicates_match_singleton_prediction(self, setup):
        model, encoder, _, plans = setup
        service = EstimatorService(model, encoder, cache_size=0)
        values = service.predict_plans([plans[0], plans[1], plans[0]])
        assert values[0] == pytest.approx(values[2], rel=1e-12)
        assert values[0] == pytest.approx(
            service.predict_plan(plans[0]), rel=1e-12
        )

    def test_extra_features_encoder_skips_dedup(self, setup):
        """Aliased fingerprints must not merge distinct rich-feature
        plans, mirroring the cache shutdown."""
        from repro.core import DACEConfig

        _, _, _, plans = setup
        caught = [catch_plan(p) for p in plans]
        rich = PlanEncoder(extra_features=True).fit(caught)
        wide = DACEModel(
            DACEConfig(input_dim=rich.dim), rng=np.random.default_rng(8)
        )
        service = EstimatorService(wide, rich)
        service.predict_plans([plans[0], plans[0]])
        assert service.cache_stats.hits == 0


class TestEmptyDataset:
    """Regression: embed_dataset returned shape (0, 0) for an empty
    dataset, breaking downstream np.hstack consumers."""

    def test_empty_embed_keeps_width(self, setup):
        from repro.workloads.dataset import PlanDataset

        model, encoder, _, _ = setup
        service = EstimatorService(model, encoder)
        empty = service.embed_dataset(PlanDataset(samples=[]))
        assert empty.shape == (0, model.config.hidden2)
        stacked = np.hstack([empty, np.empty((0, 3))])
        assert stacked.shape == (0, model.config.hidden2 + 3)


class _NaNOnceModel:
    """model.infer poisons its first forward with NaN, then recovers."""

    def __init__(self, value: float = 2.0) -> None:
        self.value = value
        self.forwards = 0

    def infer(self, batch) -> np.ndarray:
        self.forwards += 1
        out = np.full(
            (batch.features.shape[0], batch.features.shape[1]), self.value
        )
        if self.forwards == 1:
            out[:] = np.nan
        return out


class TestNaNCacheRejection:
    """Regression: a transiently-NaN model output used to be cached by
    fingerprint, so the poisoned value kept answering from the cache long
    after the model had recovered."""

    def test_nan_is_never_cached(self, setup):
        _, encoder, _, plans = setup
        model = _NaNOnceModel()
        service = EstimatorService(model, encoder)
        first = service.predict_plan(plans[0])
        assert np.isnan(first)                    # fault surfaced, not hidden
        assert service.cache_size == 0            # ...but never stored
        assert service.cache_stats.rejected == 1

    def test_recovery_is_not_masked_by_poisoned_entry(self, setup):
        _, encoder, _, plans = setup
        model = _NaNOnceModel(value=3.0)
        service = EstimatorService(model, encoder)
        assert np.isnan(service.predict_plan(plans[0]))
        second = service.predict_plan(plans[0])   # model has recovered
        assert second == pytest.approx(np.exp(3.0))
        assert model.forwards == 2                # re-ran: no sticky entry
        assert service.cache_size == 1            # finite value now cached

    def test_partial_batch_rejects_only_nan_rows(self, setup):
        _, encoder, _, plans = setup

        class RowNaNModel:
            def infer(self, batch):
                out = np.ones((batch.features.shape[0],
                               batch.features.shape[1]))
                out[0] = np.nan                    # poison one plan per batch
                return out

        service = EstimatorService(RowNaNModel(), encoder, batch_size=64)
        values = service.predict_plans(plans[:4])
        assert np.isnan(values).sum() == 1
        assert service.cache_size == 3             # finite rows cached
        assert service.cache_stats.rejected == 1

    def test_rejected_counter_in_registry(self, setup):
        _, encoder, _, plans = setup
        service = EstimatorService(_NaNOnceModel(), encoder)
        service.predict_plan(plans[0])
        assert service.metrics.counter("serve.cache.rejected").value == 1
        assert "rejected=1" in str(service.cache_stats)
