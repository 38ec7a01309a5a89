"""All baseline models: fitting, prediction, and structural behaviour."""

import numpy as np
import pytest

from repro.baselines import (
    DACEIntegration,
    MSCNModel,
    PostgresCostBaseline,
    QPPNetModel,
    QueryFormerModel,
    TPoolModel,
    ZeroShotModel,
)
from repro.baselines.common import build_tree_levels
from repro.catalog import load_database
from repro.core import DACE, TrainingConfig
from repro.featurize import PlanEncoder, catch_plan
from repro.metrics import qerror_summary
from repro.workloads.dataset import PlanDataset


@pytest.fixture(scope="module")
def imdb_db():
    return load_database("imdb")


@pytest.fixture(scope="module")
def train_test(imdb_workload):
    return imdb_workload.split(0.7, seed=0)


def _check_predictions(model, test):
    pred = model.predict_ms(test)
    assert pred.shape == (len(test),)
    assert np.isfinite(pred).all()
    assert (pred > 0).all()
    return pred


class TestPostgresBaseline:
    def test_fit_predict(self, train_test):
        train, test = train_test
        model = PostgresCostBaseline().fit(train)
        pred = _check_predictions(model, test)
        summary = qerror_summary(pred, test.latencies())
        # The linear correction must beat predicting a constant.
        constant = qerror_summary(np.ones(len(test)), test.latencies())
        assert summary.median < constant.median

    def test_predict_before_fit_raises(self, train_test):
        with pytest.raises(RuntimeError):
            PostgresCostBaseline().predict_ms(train_test[1])

    def test_too_small_training_raises(self, train_test):
        with pytest.raises(ValueError):
            PostgresCostBaseline().fit(train_test[0][:1])

    def test_monotone_in_cost(self, train_test):
        model = PostgresCostBaseline().fit(train_test[0])
        assert model.coefficients[0] > 0  # more cost -> more time


class TestTreeLevelBatching:
    def test_levels_cover_all_nodes(self, imdb_workload):
        plans = [catch_plan(s.plan) for s in imdb_workload[:16]]
        encoder = PlanEncoder().fit(plans)
        batch = build_tree_levels(plans, encoder)
        total = sum(level.num_nodes for level in batch.levels)
        assert total == sum(p.num_nodes for p in plans)

    def test_root_level_matches_plans(self, imdb_workload):
        plans = [catch_plan(s.plan) for s in imdb_workload[:16]]
        encoder = PlanEncoder().fit(plans)
        batch = build_tree_levels(plans, encoder)
        assert batch.levels[-1].num_nodes == len(plans)
        assert sorted(batch.root_order.tolist()) == list(range(len(plans)))

    def test_child_sum_rows(self, imdb_workload):
        plans = [catch_plan(s.plan) for s in imdb_workload[:16]]
        encoder = PlanEncoder().fit(plans)
        batch = build_tree_levels(plans, encoder)
        for shallower, deeper in zip(batch.levels[1:], batch.levels[:-1]):
            assert shallower.child_sum.shape == (
                shallower.num_nodes, deeper.num_nodes
            )
            # Every deeper node has exactly one parent.
            np.testing.assert_allclose(
                shallower.child_sum.sum(axis=0), 1.0
            )

    def test_labels_match_plan_roots(self, imdb_workload):
        plans = [catch_plan(s.plan) for s in imdb_workload[:8]]
        encoder = PlanEncoder().fit(plans)
        batch = build_tree_levels(plans, encoder)
        roots = batch.levels[-1]
        for plan_index, plan in enumerate(plans):
            row = batch.root_order[plan_index]
            assert roots.labels_log[row] == pytest.approx(
                np.log(max(plan.actual_times[0], 1e-3))
            )


LEARNED_IDS = ["zeroshot", "qppnet", "tpool", "queryformer", "mscn"]


def _learned(epochs, seed):
    """Factories of the five learned baselines, in ``LEARNED_IDS`` order."""
    return [
        lambda db: ZeroShotModel(epochs=epochs, seed=seed),
        lambda db: QPPNetModel(epochs=epochs, seed=seed),
        lambda db: TPoolModel(epochs=epochs, seed=seed),
        lambda db: QueryFormerModel(epochs=epochs, n_layers=2, seed=seed),
        lambda db: MSCNModel(db, epochs=epochs, seed=seed),
    ]


class TestNeuralBaselines:
    @pytest.mark.parametrize("factory", [
        lambda db: ZeroShotModel(epochs=5, seed=0),
        lambda db: QPPNetModel(epochs=5, seed=0),
        lambda db: TPoolModel(epochs=5, seed=0),
        lambda db: QueryFormerModel(epochs=3, n_layers=2, seed=0),
        lambda db: MSCNModel(db, epochs=8, seed=0),
    ], ids=LEARNED_IDS)
    def test_fit_predict_learns(self, factory, imdb_db, train_test):
        train, test = train_test
        model = factory(imdb_db)
        model.fit(train)
        pred = _check_predictions(model, test)
        summary = qerror_summary(pred, test.latencies())
        constant = qerror_summary(np.ones(len(test)), test.latencies())
        assert summary.median < constant.median

    @pytest.mark.parametrize("factory", _learned(epochs=3, seed=7),
                             ids=LEARNED_IDS)
    def test_zeroshot_deterministic(self, factory, imdb_db, train_test):
        """Two seeded fits of any learned baseline agree bit for bit."""
        train, test = train_test
        a = factory(imdb_db).fit(train).predict_ms(test)
        b = factory(imdb_db).fit(train).predict_ms(test)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("factory", _learned(epochs=1, seed=0),
                             ids=LEARNED_IDS)
    def test_empty_training_dataset_raises(self, factory, imdb_db):
        model = factory(imdb_db)
        with pytest.raises(ValueError, match="empty training dataset"):
            model.fit(PlanDataset(samples=[]))

    def test_model_sizes_exceed_dace(self, imdb_db):
        dace_params = DACE().num_parameters()
        for model in [ZeroShotModel(), QPPNetModel(), TPoolModel(),
                      QueryFormerModel(), MSCNModel(imdb_db)]:
            assert model.num_parameters() > dace_params, model.name

    def test_mscn_context_dim_mismatch(self, imdb_db, train_test):
        model = MSCNModel(imdb_db, context_dim=8, epochs=1)
        with pytest.raises(ValueError):
            model.fit(train_test[0])


class TestKnowledgeIntegration:
    @pytest.fixture(scope="class")
    def pretrained_dace(self, train_datasets):
        dace = DACE(
            training=TrainingConfig(epochs=10, batch_size=32, lr=2e-3),
            seed=0,
        )
        dace.fit(train_datasets)
        return dace

    @staticmethod
    def _dace_mscn(imdb_db, dace, epochs):
        return DACEIntegration(
            MSCNModel(imdb_db, context_dim=dace.embedding_dim,
                      epochs=epochs, seed=0),
            dace,
        )

    def test_dace_mscn(self, imdb_db, pretrained_dace, train_test):
        train, test = train_test
        hybrid = self._dace_mscn(imdb_db, pretrained_dace, epochs=8)
        hybrid.fit(train)
        _check_predictions(hybrid, test)
        assert hybrid.name == "DACE-MSCN"
        assert hybrid.num_parameters() == (
            hybrid.wdm.num_parameters() + pretrained_dace.num_parameters()
        )

    def test_dace_queryformer(self, pretrained_dace, train_test):
        train, test = train_test
        hybrid = DACEIntegration(
            QueryFormerModel(n_layers=2, epochs=3, seed=0,
                             context_dim=pretrained_dace.embedding_dim),
            pretrained_dace,
        )
        hybrid.fit(train)
        _check_predictions(hybrid, test)
        assert hybrid.name == "DACE-QueryFormer"

    def test_context_width_must_match_dace(self, imdb_db, pretrained_dace):
        with pytest.raises(ValueError):
            DACEIntegration(MSCNModel(imdb_db, context_dim=8),
                            pretrained_dace)

    def test_empty_training_dataset_raises(self, imdb_db, pretrained_dace):
        hybrid = self._dace_mscn(imdb_db, pretrained_dace, epochs=1)
        with pytest.raises(ValueError, match="empty training dataset"):
            hybrid.fit(PlanDataset(samples=[]))

    def test_dace_frozen_during_integration(self, imdb_db, pretrained_dace,
                                            train_test):
        before = pretrained_dace.model.state_dict()
        hybrid = self._dace_mscn(imdb_db, pretrained_dace, epochs=2)
        hybrid.fit(train_test[0])
        after = pretrained_dace.model.state_dict()
        for name in before:
            np.testing.assert_allclose(before[name], after[name])

    def test_hybrid_cold_start_beats_plain_mscn(self, imdb_db,
                                                pretrained_dace, train_test):
        """With very few training queries, the DACE context should help."""
        train, test = train_test
        tiny = train[:20]
        plain = MSCNModel(imdb_db, epochs=20, seed=0).fit(tiny)
        hybrid = self._dace_mscn(imdb_db, pretrained_dace, epochs=20)
        hybrid.fit(tiny)
        plain_summary = qerror_summary(
            plain.predict_ms(test), test.latencies()
        )
        hybrid_summary = qerror_summary(
            hybrid.predict_ms(test), test.latencies()
        )
        # The hybrid should be at least competitive in the cold-start regime.
        assert hybrid_summary.median <= plain_summary.median * 1.25
