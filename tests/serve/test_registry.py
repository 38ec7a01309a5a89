"""ModelRegistry: LoRA adapter hot-swapping over one shared base model."""

import numpy as np
import pytest

from repro.core import DACE, TrainingConfig
from repro.serve import ModelRegistry


@pytest.fixture(scope="module")
def fitted(train_datasets):
    dace = DACE(
        training=TrainingConfig(epochs=3, batch_size=32), seed=9
    )
    dace.fit(train_datasets[0])
    return dace


@pytest.fixture()
def registry(fitted):
    registry = ModelRegistry(fitted)
    yield registry
    registry.activate(ModelRegistry.BASE_TAG)


class TestRegistry:
    def test_base_tag_registered_at_init(self, registry):
        assert registry.tags() == ["base"]
        assert registry.active_tag == "base"
        assert "base" in registry

    def test_fine_tune_registers_and_activates(self, registry, fitted,
                                               train_datasets):
        base_preds = fitted.predict(train_datasets[1])
        registry.fine_tune("m2", train_datasets[1], epochs=2)
        assert registry.active_tag == "m2"
        assert set(registry.tags()) == {"base", "m2"}
        tuned_preds = fitted.predict(train_datasets[1])
        assert not np.array_equal(base_preds, tuned_preds)
        # Swapping back restores the base predictions bit-for-bit.
        registry.activate("base")
        np.testing.assert_array_equal(
            fitted.predict(train_datasets[1]), base_preds
        )
        # And forward again.
        registry.activate("m2")
        np.testing.assert_array_equal(
            fitted.predict(train_datasets[1]), tuned_preds
        )

    def test_activate_invalidates_cache(self, registry, fitted,
                                        train_datasets):
        fitted.predict(train_datasets[0])
        assert fitted.service.cache_size > 0
        registry.activate("base")
        assert fitted.service.cache_size == 0

    def test_fine_tune_base_tag_rejected(self, registry, train_datasets):
        with pytest.raises(ValueError):
            registry.fine_tune("base", train_datasets[0])

    def test_unknown_tag_rejected(self, registry):
        with pytest.raises(KeyError):
            registry.activate("nope")
        with pytest.raises(KeyError):
            registry.adapter_state("nope")

    def test_register_validates_keys(self, registry):
        with pytest.raises(KeyError):
            registry.register("external", {"bogus": np.zeros(2)})

    @pytest.mark.parametrize("part", ["lora_a", "lora_b"])
    def test_register_validates_shapes(self, registry, part):
        """A wrong-shaped adapter is refused at register, naming the
        parameter and both shapes, instead of failing every later
        forward of the tag with a matmul core-dimension error."""
        state = registry.adapter_state(ModelRegistry.BASE_TAG)
        name = next(n for n in sorted(state) if n.endswith(part))
        expected = state[name].shape
        state[name] = np.zeros((expected[0] + 1,) + expected[1:])
        with pytest.raises(ValueError) as error:
            registry.register("bent", state)
        message = str(error.value)
        assert name in message
        assert str(expected) in message
        assert str(state[name].shape) in message
        assert "bent" not in registry

    def test_fleet_register_tenant_validates_shapes(self, fitted):
        from repro.obs import MetricsRegistry
        from repro.serve import FleetGateway

        with FleetGateway(fitted.model, fitted.encoder, shards=2,
                          metrics=MetricsRegistry()) as fleet:
            state = fleet.shards[0].registry.adapter_state(
                ModelRegistry.BASE_TAG
            )
            name = next(n for n in sorted(state) if n.endswith("lora_b"))
            state[name] = state[name].T
            with pytest.raises(ValueError, match=name.replace(".", r"\.")):
                fleet.register_tenant("bent", state)
            assert not fleet.has_tenant("bent")
            assert not any(shard.has_tenant("bent")
                           for shard in fleet.shards)

    def test_register_roundtrip(self, registry, fitted, train_datasets):
        registry.fine_tune("m2", train_datasets[1], epochs=2)
        exported = registry.adapter_state("m2")
        registry.register("copy-of-m2", exported)
        registry.activate("m2")
        tuned = fitted.predict(train_datasets[1])
        registry.activate("copy-of-m2")
        np.testing.assert_array_equal(
            fitted.predict(train_datasets[1]), tuned
        )

    def test_reregister_active_tag_swaps_live_weights(self, registry,
                                                      fitted):
        """Replacing the *active* tag's adapters must take effect
        immediately — the model may not keep serving the old set."""
        base = registry.adapter_state(ModelRegistry.BASE_TAG)
        rng = np.random.default_rng(3)
        noisy = {name: array + rng.normal(0.0, 0.05, array.shape)
                 for name, array in base.items()}
        registry.register("v", noisy)
        registry.activate("v")
        for name, parameter in fitted.model.named_parameters():
            if name in noisy:
                np.testing.assert_array_equal(parameter.data, noisy[name])
        noisier = {name: array + rng.normal(0.0, 0.05, array.shape)
                   for name, array in base.items()}
        registry.register("v", noisier)
        assert registry.active_tag == "v"
        for name, parameter in fitted.model.named_parameters():
            if name in noisier:
                np.testing.assert_array_equal(
                    parameter.data, noisier[name]
                )


class TestRegistryRemove:
    def test_remove_forgets_tag(self, registry, fitted, train_datasets):
        registry.fine_tune("gone", train_datasets[1], epochs=1)
        registry.activate(ModelRegistry.BASE_TAG)
        registry.remove("gone")
        assert "gone" not in registry
        with pytest.raises(KeyError):
            registry.activate("gone")
        with pytest.raises(KeyError):
            registry.adapter_state("gone")

    def test_remove_base_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.remove(ModelRegistry.BASE_TAG)

    def test_remove_active_tag_rejected(self, registry, train_datasets):
        registry.fine_tune("live", train_datasets[1], epochs=1)
        assert registry.active_tag == "live"
        with pytest.raises(ValueError):
            registry.remove("live")
        # Deactivate first, then removal goes through.
        registry.activate(ModelRegistry.BASE_TAG)
        registry.remove("live")
        assert "live" not in registry

    def test_remove_unknown_rejected(self, registry):
        with pytest.raises(KeyError):
            registry.remove("never-registered")
