"""The no-graph inference path must match the autograd forward exactly."""

import numpy as np
import pytest

from repro.core import DACEModel
from repro.featurize import PlanEncoder, catch_plan
from repro.nn import no_grad
from repro.nn.layers import LayerNorm, Linear, ReLU, Sequential
from repro.nn.lora import LoRALinear
from repro.nn.tensor import Tensor


@pytest.fixture(scope="module")
def encoded(train_datasets):
    plans = [catch_plan(s.plan) for s in train_datasets[0][:16]]
    encoder = PlanEncoder().fit(plans)
    return encoder.encode_batch(plans, with_labels=False), plans


@pytest.fixture(scope="module")
def model():
    return DACEModel(rng=np.random.default_rng(7))


def _randomize_adapters(model, seed=0):
    rng = np.random.default_rng(seed)
    for name, parameter in model.named_parameters():
        if ".lora_" in name:
            parameter.data = rng.normal(
                scale=0.1, size=parameter.data.shape
            )


class TestLayerInfer:
    """Each layer's ``infer`` mirrors its Tensor forward bit-for-bit."""

    @pytest.mark.parametrize("module", [
        Linear(6, 4, rng=np.random.default_rng(0)),
        ReLU(),
        LayerNorm(6),
        Sequential(Linear(6, 6, rng=np.random.default_rng(1)), ReLU()),
    ], ids=["linear", "relu", "layernorm", "sequential"])
    def test_matches_forward(self, module):
        x = np.random.default_rng(3).normal(size=(5, 6))
        with no_grad():
            expected = module(Tensor(x)).data
        np.testing.assert_array_equal(module.infer(x), expected)

    def test_lora_linear(self):
        layer = LoRALinear(6, 4, rank=2, rng=np.random.default_rng(6))
        layer.enable_adapter()
        rng = np.random.default_rng(7)
        layer.lora_a.data = rng.normal(size=layer.lora_a.data.shape)
        layer.lora_b.data = rng.normal(size=layer.lora_b.data.shape)
        x = rng.normal(size=(5, 6))
        with no_grad():
            expected = layer(Tensor(x)).data
        np.testing.assert_array_equal(layer.infer(x), expected)


class TestModelInfer:
    def test_matches_autograd_forward(self, model, encoded):
        """Acceptance: infer == autograd forward within 1e-9."""
        batch, _ = encoded
        with no_grad():
            expected = model(batch).data
        out = model.infer(batch)
        assert isinstance(out, np.ndarray)
        assert out.shape == expected.shape
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9)

    def test_matches_with_lora_enabled(self, encoded):
        batch, _ = encoded
        model = DACEModel(rng=np.random.default_rng(11))
        model.enable_lora()
        _randomize_adapters(model, seed=12)
        with no_grad():
            expected = model(batch).data
        np.testing.assert_allclose(
            model.infer(batch), expected, rtol=0, atol=1e-9
        )

    def test_embed_matches(self, model, encoded):
        batch, _ = encoded
        with no_grad():
            expected = model.embed(batch)
        np.testing.assert_allclose(
            model.embed_infer(batch), expected, rtol=0, atol=1e-9
        )

    def test_infer_builds_no_graph(self, model, encoded):
        batch, _ = encoded
        out = model.infer(batch)
        assert not isinstance(out, Tensor)
