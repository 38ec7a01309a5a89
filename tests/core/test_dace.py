"""DACE model, trainer, estimator API, LoRA fine-tuning, persistence."""

import numpy as np
import pytest

from repro.core import DACE, DACEConfig, DACEModel, Trainer, TrainingConfig
from repro.featurize import PlanEncoder, catch_plan
from repro.metrics import qerror_summary
from repro.nn import no_grad


@pytest.fixture(scope="module")
def quick_training():
    return TrainingConfig(epochs=12, batch_size=32, lr=2e-3, patience=6)


@pytest.fixture(scope="module")
def fitted_dace(train_datasets, quick_training):
    dace = DACE(training=quick_training, seed=0)
    dace.fit(train_datasets)
    return dace


class TestModelShapes:
    def test_forward_shape(self, train_datasets):
        plans = [catch_plan(s.plan) for s in train_datasets[0][:8]]
        encoder = PlanEncoder().fit(plans)
        batch = encoder.encode_batch(plans)
        model = DACEModel()
        with no_grad():
            out = model(batch)
        assert out.shape == (8, batch.max_nodes)
        assert np.isfinite(out.data).all()

    def test_embed_shape(self, train_datasets):
        plans = [catch_plan(s.plan) for s in train_datasets[0][:4]]
        encoder = PlanEncoder().fit(plans)
        batch = encoder.encode_batch(plans)
        model = DACEModel()
        embedding = model.embed(batch)
        assert embedding.shape == (4, 64)

    def test_tree_attention_isolation(self, train_datasets):
        """A node's prediction must not depend on nodes outside its subtree."""
        plans = [catch_plan(s.plan) for s in train_datasets[0]]
        plan = next(p for p in plans if p.num_nodes >= 5)
        encoder = PlanEncoder().fit(plans)
        model = DACEModel()
        batch = encoder.encode_batch([plan])
        with no_grad():
            base = model(batch).data[0]
        # Perturb the root's features: descendants' predictions fixed.
        perturbed = encoder.encode_batch([plan])
        perturbed.features[0, 0, -1] += 10.0
        with no_grad():
            changed = model(perturbed).data[0]
        n = plan.num_nodes
        assert abs(changed[0] - base[0]) > 1e-9  # root itself changes
        np.testing.assert_allclose(changed[1:n], base[1:n], atol=1e-12)

    def test_no_tree_attention_breaks_isolation(self, train_datasets):
        plans = [catch_plan(s.plan) for s in train_datasets[0]]
        plan = next(p for p in plans if p.num_nodes >= 5)
        encoder = PlanEncoder().fit(plans)
        model = DACEModel(DACEConfig(use_tree_attention=False))
        batch = encoder.encode_batch([plan])
        with no_grad():
            base = model(batch).data[0]
        perturbed = encoder.encode_batch([plan])
        perturbed.features[0, 0, -1] += 10.0
        with no_grad():
            changed = model(perturbed).data[0]
        n = plan.num_nodes
        # Without the mask, information leaks to every node.
        assert np.abs(changed[1:n] - base[1:n]).max() > 1e-9

    def test_padding_invariance(self, train_datasets):
        """Batching a plan with a larger plan must not change its output."""
        plans = [catch_plan(s.plan) for s in train_datasets[0]]
        encoder = PlanEncoder().fit(plans)
        model = DACEModel()
        small = min(plans, key=lambda p: p.num_nodes)
        large = max(plans, key=lambda p: p.num_nodes)
        with no_grad():
            alone = model(encoder.encode_batch([small])).data[0]
            padded = model(encoder.encode_batch([small, large])).data[0]
        n = small.num_nodes
        np.testing.assert_allclose(alone[:n], padded[:n], atol=1e-9)


class TestTraining:
    def test_training_reduces_loss(self, train_datasets, quick_training):
        dace = DACE(training=quick_training, seed=1)
        dace.fit(train_datasets)
        history = dace.trainer.history
        assert history[-1]["train_loss"] < history[0]["train_loss"]

    def test_deterministic_given_seed(self, train_datasets, test_dataset,
                                      quick_training):
        a = DACE(training=quick_training, seed=5).fit(train_datasets)
        b = DACE(training=quick_training, seed=5).fit(train_datasets)
        np.testing.assert_allclose(
            a.predict(test_dataset), b.predict(test_dataset)
        )

    def test_beats_wild_guess_on_unseen_db(self, fitted_dace, test_dataset):
        pred = fitted_dace.predict(test_dataset)
        summary = qerror_summary(pred, test_dataset.latencies())
        # Predicting the constant 1ms would give a much larger median.
        constant = qerror_summary(
            np.ones(len(test_dataset)), test_dataset.latencies()
        )
        assert summary.median < constant.median

    def test_predictions_positive(self, fitted_dace, test_dataset):
        assert (fitted_dace.predict(test_dataset) > 0).all()

    def test_empty_training_raises(self, quick_training):
        from repro.workloads.dataset import PlanDataset
        dace = DACE(training=quick_training)
        with pytest.raises(ValueError):
            dace.fit(PlanDataset())

    def test_predict_single_plan(self, fitted_dace, test_dataset):
        sample = test_dataset[0]
        value = fitted_dace.predict_plan(sample.plan)
        assert value > 0
        batch_value = fitted_dace.predict(test_dataset[:1])[0]
        assert value == pytest.approx(batch_value)

    def test_predict_subplans_ordering(self, fitted_dace, test_dataset):
        sample = max(test_dataset, key=lambda s: s.num_nodes)
        preds = fitted_dace.predict_subplans(sample.plan)
        assert preds.shape == (sample.num_nodes,)
        assert (preds > 0).all()


class TestLoRA:
    def test_finetune_improves_on_new_machine(
        self, fitted_dace, test_dataset_m2, quick_training
    ):
        before = qerror_summary(
            fitted_dace.predict(test_dataset_m2), test_dataset_m2.latencies()
        )
        train_m2, eval_m2 = test_dataset_m2.split(0.6, seed=0)
        fitted_dace.fine_tune_lora(train_m2, epochs=15)
        after = qerror_summary(
            fitted_dace.predict(eval_m2), eval_m2.latencies()
        )
        # Fine-tuning on M2 labels should not make things worse overall.
        assert after.median <= before.median * 1.5

    def test_finetune_touches_only_adapters(self, train_datasets,
                                            quick_training):
        dace = DACE(training=quick_training, seed=2).fit(train_datasets)
        base_before = {
            name: p.data.copy()
            for name, p in dace.model.named_parameters()
            if "lora" not in name
        }
        dace.fine_tune_lora(train_datasets[0], epochs=3)
        for name, parameter in dace.model.named_parameters():
            if "lora" not in name:
                np.testing.assert_allclose(
                    parameter.data, base_before[name],
                    err_msg=f"{name} changed during LoRA fine-tuning",
                )

    def test_lora_param_count_much_smaller(self):
        dace = DACE()
        assert dace.model.lora_num_parameters() < dace.num_parameters()


class TestPersistence:
    def test_save_load_roundtrip(self, fitted_dace, test_dataset, tmp_path):
        path = str(tmp_path / "dace_model")
        fitted_dace.save(path)
        loaded = DACE.load(path)
        np.testing.assert_allclose(
            fitted_dace.predict(test_dataset), loaded.predict(test_dataset)
        )

    def test_lora_state_preserved(self, train_datasets, quick_training,
                                  tmp_path):
        dace = DACE(training=quick_training, seed=3).fit(train_datasets)
        dace.fine_tune_lora(train_datasets[0], epochs=2)
        path = str(tmp_path / "dace_lora")
        dace.save(path)
        loaded = DACE.load(path)
        assert loaded.model.lora_enabled
        # Identical weights through the identical inference path must give
        # bit-for-bit identical predictions, not merely close ones.
        np.testing.assert_array_equal(
            dace.predict(train_datasets[0]), loaded.predict(train_datasets[0])
        )
        for name, value in dace.model.state_dict().items():
            np.testing.assert_array_equal(
                value, loaded.model.state_dict()[name], err_msg=name
            )

    def test_training_config_preserved(self, fitted_dace, tmp_path):
        # The serving batch size derives from the training config; losing
        # it on load changes inference chunking and bit-level numerics.
        path = str(tmp_path / "dace_cfg")
        fitted_dace.save(path)
        loaded = DACE.load(path)
        assert loaded.training == fitted_dace.training
        assert loaded.service.batch_size == fitted_dace.service.batch_size

    @staticmethod
    def _write_older_meta(path, **retired):
        """Rewrite ``meta.json``'s training block as models saved before
        the quantile objective, LR schedules, gradient clipping, weight
        decay and the on-disk encoding cache were retired wrote it: all
        fourteen keys."""
        import json
        import os

        meta_path = os.path.join(path, "meta.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["training"] = {
            "epochs": 12, "batch_size": 32, "lr": 0.002,
            "weight_decay": 0.0, "patience": 6,
            "validation_fraction": 0.1, "lr_schedule": "constant",
            "grad_clip": 0.0, "objective": "qerror",
            "quantile_tau": 0.5, "seed": 0, "verbose": False,
            "encode_cache": False, "encode_cache_dir": None,
            **retired,
        }
        with open(meta_path, "w") as handle:
            json.dump(meta, handle, indent=2)

    def test_older_meta_with_retired_defaults_loads(self, fitted_dace,
                                                    test_dataset, tmp_path):
        path = str(tmp_path / "older")
        fitted_dace.save(path)
        self._write_older_meta(path)
        loaded = DACE.load(path)
        assert loaded.training == fitted_dace.training
        np.testing.assert_array_equal(
            fitted_dace.predict(test_dataset), loaded.predict(test_dataset)
        )

    def test_older_meta_with_encode_cache_on_loads(self, fitted_dace,
                                                   test_dataset, tmp_path):
        # The retired on-disk encoding cache never changed a weight, so
        # a model saved with it switched on loads whatever it was set to.
        before = fitted_dace.predict(test_dataset)
        path = str(tmp_path / "cached")
        fitted_dace.save(path)
        self._write_older_meta(path, encode_cache=True,
                               encode_cache_dir="/somewhere")
        loaded = DACE.load(path)
        assert loaded.training == fitted_dace.training
        np.testing.assert_array_equal(before, loaded.predict(test_dataset))

    @pytest.mark.parametrize("key,value", [
        ("objective", "quantile"), ("quantile_tau", 0.9),
        ("lr_schedule", "cosine"), ("grad_clip", 1.0),
        ("weight_decay", 1e-4),
    ])
    def test_older_meta_with_retired_setting_refused(self, fitted_dace,
                                                     tmp_path, key, value):
        path = str(tmp_path / "older")
        fitted_dace.save(path)
        self._write_older_meta(path, **{key: value})
        with pytest.raises(ValueError, match=key):
            DACE.load(path)


class TestHistoryAndDefaults:
    def test_fine_tune_history_preserved(self, train_datasets,
                                         quick_training):
        dace = DACE(training=quick_training, seed=4).fit(train_datasets[0])
        pretrain_epochs = len(dace.trainer.history)
        assert pretrain_epochs > 0
        dace.fine_tune_lora(train_datasets[0], epochs=3)
        tuning = dace.trainer.history[pretrain_epochs:]
        assert tuning, "fine-tuning epochs missing from history"
        assert all(e.get("phase") == "fine_tune_lora" for e in tuning)
        assert all("phase" not in e
                   for e in dace.trainer.history[:pretrain_epochs])

    def test_training_config_not_shared_across_instances(self):
        first, second = DACE(seed=0), DACE(seed=1)
        assert first.training is not second.training
        assert first.config is not second.config

    def test_trainer_default_config_not_shared(self):
        from repro.featurize import PlanEncoder

        model = DACEModel()
        encoder = PlanEncoder()
        one = Trainer(model, encoder)
        two = Trainer(model, encoder)
        assert one.config is not two.config
        one.config.epochs = 1
        assert two.config.epochs != 1

    def test_ensemble_default_configs_not_shared(self):
        from repro.core.ensemble import DACEEnsemble

        first = DACEEnsemble(n_members=2)
        second = DACEEnsemble(n_members=2)
        first.members[0].training.epochs = 1
        assert second.members[0].training.epochs != 1
        assert (first.members[0].training
                is not first.members[1].training)


class TestCardSource:
    def test_actual_card_variant_trains(self, train_datasets, test_dataset,
                                        quick_training):
        dace_a = DACE(training=quick_training, card_source="actual", seed=0)
        dace_a.fit(train_datasets)
        pred = dace_a.predict(test_dataset)
        assert np.isfinite(pred).all()

    def test_invalid_card_source(self):
        with pytest.raises(ValueError):
            DACE(card_source="bogus")
