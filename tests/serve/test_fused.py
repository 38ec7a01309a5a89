"""Differential battery: the graph-free serving forward vs autograd.

:class:`~repro.serve.fused.FusedInferStep` and ``DACEModel.infer`` /
``embed_infer`` claim to be **byte-identical** (``==``, not allclose) to
the autograd reference ``DACEModel.forward`` / ``embed``.  This battery
attacks that claim from every angle the serving path can reach:

- hypothesis-generated random plan trees, both TA-ablation modes, every
  padding mode (tight, pad_base, oversized);
- batch sizes from 1 through past ``pad_base``, so chunking and padding
  buckets both engage;
- chain plans pinned exactly on and around the deterministic bucket
  boundaries (16 -> 24 -> 36);
- the LoRA fallback: with any adapter enabled ``FusedInferStep`` must
  step aside *at call time* and ``model.infer`` must serve, observable
  only through the ``serve.fused.*`` counters;
- the ``supports()`` guard: subclasses and foreign models never fuse.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DACEModel
from repro.core.model import DACEConfig
from repro.engine.plan import NODE_TYPES, PlanNode
from repro.featurize import PlanEncoder, catch_plan
from repro.nn import no_grad
from repro.serve import EstimatorService, FusedInferStep, maybe_fused_infer

_LEAF_TYPES = [t for t in NODE_TYPES if "Scan" in t] + ["Result"]
_INNER_TYPES = [t for t in NODE_TYPES if "Scan" not in t and t != "Result"]

FUSED_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.function_scoped_fixture],
)


@st.composite
def random_plan_trees(draw, max_depth=4):
    """A structurally-valid plan tree with random shapes and estimates."""

    def build(depth):
        cost = draw(st.floats(min_value=0.0, max_value=1e9,
                              allow_nan=False, allow_infinity=False))
        rows = draw(st.floats(min_value=0.0, max_value=1e8,
                              allow_nan=False, allow_infinity=False))
        if depth >= max_depth or draw(st.booleans()):
            return PlanNode(draw(st.sampled_from(_LEAF_TYPES)),
                            est_rows=rows, est_cost=cost)
        children = [build(depth + 1)
                    for _ in range(draw(st.integers(1, 2)))]
        return PlanNode(draw(st.sampled_from(_INNER_TYPES)),
                        est_rows=rows, est_cost=cost, children=children)

    return build(0)


def _chain_plan(num_nodes):
    """A linear chain with exactly ``num_nodes`` nodes."""
    node = PlanNode("Seq Scan", est_rows=100.0, est_cost=10.0)
    for depth in range(num_nodes - 1):
        node = PlanNode("Materialize", est_rows=50.0 + depth,
                        est_cost=20.0 + depth, children=[node])
    return node


@pytest.fixture(scope="module")
def encoder():
    """One scaler fit on a deterministic spread of chain plans.

    The battery encodes *arbitrary* random trees with it afterwards —
    the scaler only has to be finite and fixed, not representative.
    """
    caught = [catch_plan(_chain_plan(n)) for n in range(1, 24)]
    return PlanEncoder().fit(caught)


@pytest.fixture(scope="module", params=[True, False],
                ids=["tree-attention", "wo-ta"])
def model(request):
    config = DACEConfig(use_tree_attention=request.param)
    return DACEModel(config, rng=np.random.default_rng(7))


def _assert_matches_autograd(model, batch):
    """Both graph-free entry points == the autograd forward and embed."""
    with no_grad():
        expected = model(batch).data
        expected_embed = model.embed(batch)
    step = FusedInferStep(model)
    for forward, embed in ((step.forward, step.embed),
                           (model.infer, model.embed_infer)):
        np.testing.assert_array_equal(forward(batch), expected)
        np.testing.assert_array_equal(embed(batch), expected_embed)


class TestFusedDifferential:
    """FusedInferStep and DACEModel.infer/embed_infer == autograd."""

    @given(plans=st.lists(random_plan_trees(), min_size=1, max_size=20),
           pad=st.sampled_from([None, 16, 24, 36]))
    @FUSED_SETTINGS
    def test_random_trees_bit_identical(self, model, encoder, plans, pad):
        caught = [catch_plan(p) for p in plans]
        if pad is not None and max(c.num_nodes for c in caught) > pad:
            pad = None  # tree outgrew the requested bucket: tight-pad
        batch = encoder.encode_batch(caught, with_labels=False, pad_to=pad)
        _assert_matches_autograd(model, batch)

    @pytest.mark.parametrize("num_nodes", [15, 16, 17, 24, 25, 36, 37])
    def test_bucket_boundaries_bit_identical(self, model, encoder,
                                             num_nodes):
        """Chains pinned on/around the 16 -> 24 -> 36 bucket edges."""
        service = EstimatorService(model, encoder)
        caught = [catch_plan(_chain_plan(num_nodes))]
        pad = service._pad_width(num_nodes)
        assert pad >= num_nodes
        batch = encoder.encode_batch(caught, with_labels=False, pad_to=pad)
        _assert_matches_autograd(model, batch)

    @pytest.mark.parametrize("batch_size", [1, 3, 16, 17, 33])
    def test_service_batched_vs_serial(self, model, encoder, batch_size):
        """Fused chunked serving == plan-at-a-time serving.

        Mixed node counts straddle bucket boundaries, so the fused side
        exercises multiple buckets per call; byte equality must survive
        every chunking the batch size induces.
        """
        counts = [1, 2, 3, 5, 8, 13, 15, 16, 17, 21, 24, 25, 30, 36, 37]
        caught = [catch_plan(_chain_plan(n))
                  for n in (counts * 3)[:max(batch_size, len(counts))]]
        fused = EstimatorService(model, encoder, batch_size=batch_size)
        serial = EstimatorService(model, encoder, batch_size=1)
        np.testing.assert_array_equal(fused.predict_caught(caught),
                                      serial.predict_caught(caught))
        np.testing.assert_array_equal(
            np.stack(fused._embeddings(caught)),
            np.stack(serial._embeddings(caught)),
        )
        assert fused.metrics.counter("serve.fused.forwards").value > 0
        assert serial.metrics.counter("serve.fused.forwards").value > 0


class TestLoRAFallback:
    """Any enabled adapter disengages FusedInferStep at call time."""

    def _fresh_model(self):
        return DACEModel(DACEConfig(), rng=np.random.default_rng(11))

    def _randomize_adapters(self, model):
        rng = np.random.default_rng(5)
        for name, parameter in model.named_parameters():
            if ".lora_" in name:
                parameter.data = rng.normal(scale=0.1,
                                            size=parameter.data.shape)

    def test_lora_disengages_and_reengages(self, encoder):
        model = self._fresh_model()
        self._randomize_adapters(model)
        service = EstimatorService(model, encoder)
        caught = [catch_plan(_chain_plan(n)) for n in (2, 5, 9)]
        forwards = service.metrics.counter("serve.fused.forwards")
        fallbacks = service.metrics.counter("serve.fused.fallbacks")

        base = service.predict_caught(caught)
        assert forwards.value == 1 and fallbacks.value == 0

        # Flip adapters on the LIVE service: no rebuild, no invalidation
        # beyond the weight-change contract.
        model.enable_lora()
        service.invalidate()
        adapted = service.predict_caught(caught)
        assert fallbacks.value == 1            # guard re-checked per call
        assert forwards.value == 1
        # The adapter delta is real, so predictions must actually move —
        # proving the fallback exercised the LoRA math.
        assert not np.array_equal(base, adapted)
        batch = encoder.encode_batch(caught, with_labels=False, pad_to=16)
        with no_grad():
            expected = model(batch).data
        np.testing.assert_array_equal(
            adapted, np.exp(expected[:, 0])
        )

        model.disable_lora()
        service.invalidate()
        back = service.predict_caught(caught)
        assert forwards.value == 2
        np.testing.assert_array_equal(back, base)

    def test_engaged_tracks_each_adapter(self):
        model = self._fresh_model()
        step = FusedInferStep(model)
        assert step.engaged()
        for layer in (model.mlp1, model.mlp2, model.mlp3):
            layer._adapter_enabled = True
            assert not step.engaged()
            layer._adapter_enabled = False
        assert step.engaged()


class TestSupportsGuard:
    """Only the stock DACEModel class is served by FusedInferStep."""

    def test_supports_stock_model(self):
        model = DACEModel(rng=np.random.default_rng(0))
        assert FusedInferStep.supports(model)
        assert maybe_fused_infer(model) is not None

    def test_rejects_subclass(self):
        class TweakedDACE(DACEModel):
            def infer(self, batch):          # pretend override
                return super().infer(batch) + 1.0

        model = TweakedDACE(rng=np.random.default_rng(0))
        assert not FusedInferStep.supports(model)
        assert maybe_fused_infer(model) is None
        with pytest.raises(ValueError, match="stock DACEModel"):
            FusedInferStep(model)

    def test_rejects_foreign_model(self):
        class NotDACE:
            def infer(self, batch):
                return np.zeros((1, 1))

        assert not FusedInferStep.supports(NotDACE())
        assert maybe_fused_infer(NotDACE()) is None

    def test_service_auto_falls_back_for_subclass(self, encoder):
        class TweakedDACE(DACEModel):
            pass

        model = TweakedDACE(rng=np.random.default_rng(0))
        service = EstimatorService(model, encoder)
        caught = [catch_plan(_chain_plan(3))]
        service.predict_caught(caught)
        assert service.metrics.counter("serve.fused.forwards").value == 0
        assert service.metrics.counter("serve.fused.fallbacks").value == 0
