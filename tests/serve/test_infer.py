"""The no-graph inference path must match the autograd forward exactly."""

import numpy as np
import pytest

from repro.core import DACEModel
from repro.featurize import PlanEncoder, catch_plan
from repro.nn import no_grad
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


class TestModelInfer:
    def test_matches_autograd_forward(self, model, encoded):
        """Acceptance: infer == autograd forward, bit for bit."""
        batch, _ = encoded
        with no_grad():
            expected = model(batch).data
        out = model.infer(batch)
        assert isinstance(out, np.ndarray)
        assert out.shape == expected.shape
        np.testing.assert_array_equal(out, expected)

    def test_matches_with_lora_enabled(self, encoded):
        batch, _ = encoded
        model = DACEModel(rng=np.random.default_rng(11))
        model.enable_lora()
        _randomize_adapters(model, seed=12)
        with no_grad():
            expected = model(batch).data
        np.testing.assert_array_equal(model.infer(batch), expected)

    def test_embed_matches(self, model, encoded):
        batch, _ = encoded
        with no_grad():
            expected = model.embed(batch)
        np.testing.assert_array_equal(model.embed_infer(batch), expected)

    def test_infer_builds_no_graph(self, model, encoded):
        batch, _ = encoded
        out = model.infer(batch)
        assert not isinstance(out, Tensor)
