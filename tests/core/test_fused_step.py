"""Fused graph-free training steps: exact agreement with autograd.

The fused steps' whole contract is that they are *mirrors*: the same
numpy operations in the same order as ``DACEModel.forward`` +
``log_qerror_loss`` + ``.backward()``, in pre-training
(:class:`FusedQErrorStep`) and in LoRA fine-tuning
(:class:`FusedLoRAStep`).  Every assertion here is exact (``==`` via
array_equal, never allclose) — one reordered reduction and the
encode-once pipeline would silently stop being bit-reproducible.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.trainer as trainer_module
from repro.core import DACE, TrainingConfig
from repro.core.fused import FusedLoRAStep, FusedQErrorStep, maybe_fused_step
from repro.core.model import DACEConfig, DACEModel
from repro.core.trainer import catch_dataset
from repro.featurize import PlanEncoder
from repro.nn.losses import log_qerror_loss, log_qerror_loss_np
from repro.workloads.encoded import EncodedDataset

@pytest.fixture(scope="module")
def batches(train_datasets):
    plans = catch_dataset(train_datasets[0])
    encoder = PlanEncoder().fit(plans)
    return EncodedDataset.encode(encoder, plans).bucketed_batches(32)


def _graph_grads(model, batch):
    for parameter in model.trainable_parameters():
        parameter.zero_grad()
    pred = model(batch)
    loss = log_qerror_loss(pred, batch.labels_log, batch.loss_weights)
    loss.backward()
    return loss.item(), {
        name: parameter.grad.copy()
        for name, parameter in model.named_parameters()
        if parameter.grad is not None
    }


@pytest.mark.parametrize("use_tree_attention", [True, False])
def test_fused_matches_graph_exactly(batches, use_tree_attention):
    dim = batches[0].features.shape[-1]
    model = DACEModel(
        DACEConfig(input_dim=dim, use_tree_attention=use_tree_attention),
        rng=np.random.default_rng(7),
    )
    fused = FusedQErrorStep(model)
    # Two passes over every batch: the second exercises the warmed
    # per-batch constant cache.
    for _ in range(2):
        for batch in batches:
            graph_loss, graph_grads = _graph_grads(model, batch)
            for parameter in model.trainable_parameters():
                parameter.zero_grad()
            fused_loss = fused.step(batch)
            assert fused_loss == graph_loss
            fused_grads = {
                name: parameter.grad
                for name, parameter in model.named_parameters()
                if parameter.grad is not None
            }
            assert set(fused_grads) == set(graph_grads)
            for name, grad in graph_grads.items():
                assert np.array_equal(fused_grads[name], grad), name


def test_supports_stock_configuration():
    model = DACEModel(rng=np.random.default_rng(0))
    assert FusedQErrorStep.supports(model)
    assert maybe_fused_step(model) is not None


def _lora_model(**config) -> DACEModel:
    model = DACEModel(DACEConfig(**config), rng=np.random.default_rng(0))
    model.enable_lora()
    return model


def _subclass_lora_model() -> DACEModel:
    class Custom(DACEModel):
        pass

    model = Custom(rng=np.random.default_rng(0))
    model.enable_lora()
    return model


def _partial_adapter_model() -> DACEModel:
    model = DACEModel(rng=np.random.default_rng(0))
    model.mlp1.enable_adapter()
    model.mlp2.enable_adapter()
    for projection in (model.w_q, model.w_k, model.w_v):
        projection.weight.freeze()
    return model


def _unfrozen_base_model() -> DACEModel:
    model = _lora_model()
    model.mlp2.base.weight.unfreeze()
    return model


def _unfrozen_attention_model() -> DACEModel:
    model = _lora_model()
    model.w_k.weight.unfreeze()
    return model


def _frozen_adapter_model() -> DACEModel:
    model = _lora_model()
    model.mlp3.lora_a.freeze()
    return model


def test_refuses_lora_fine_tuning():
    """Every LoRA configuration the fused mirror does not replicate
    falls back to autograd."""
    assert not FusedQErrorStep.supports(_lora_model())
    cases = {
        "subclass": _subclass_lora_model(),
        "partial adapters": _partial_adapter_model(),
        "unfrozen base": _unfrozen_base_model(),
        "unfrozen attention": _unfrozen_attention_model(),
        "frozen adapter factor": _frozen_adapter_model(),
    }
    for case, model in cases.items():
        assert not FusedLoRAStep.supports(model), case
        assert maybe_fused_step(model) is None, case


def test_supports_lora_fine_tuning():
    model = _lora_model()
    assert FusedLoRAStep.supports(model)
    assert isinstance(maybe_fused_step(model), FusedLoRAStep)
    model.disable_lora()
    assert not FusedLoRAStep.supports(model)
    assert isinstance(maybe_fused_step(model), FusedQErrorStep)


def test_refuses_model_subclasses():
    class Custom(DACEModel):
        pass

    assert not FusedQErrorStep.supports(Custom(rng=np.random.default_rng(0)))


def test_rejects_unlabelled_batches(batches):
    dim = batches[0].features.shape[-1]
    model = DACEModel(DACEConfig(input_dim=dim),
                      rng=np.random.default_rng(0))
    batch = batches[0]
    unlabelled = type(batch)(
        features=batch.features,
        attention_mask=batch.attention_mask,
        valid=batch.valid,
        heights=batch.heights,
        loss_weights=batch.loss_weights,
        labels_log=None,
    )
    with pytest.raises(ValueError):
        FusedQErrorStep(model).step(unlabelled)
    model.enable_lora()
    with pytest.raises(ValueError):
        FusedLoRAStep(model).step(unlabelled)


# ---------------------------------------------------------------------- #
# LoRA fine-tuning: FusedLoRAStep against the autograd graph
# ---------------------------------------------------------------------- #
_SCALINGS = (0.5, 1.75, 3.0)


def _tuned_lora_model(dim: int, use_tree_attention: bool) -> DACEModel:
    """A LoRA-enabled model with random non-zero adapters and non-unit
    scalings, so every adapter term carries real values."""
    rng = np.random.default_rng(11)
    model = DACEModel(
        DACEConfig(input_dim=dim, use_tree_attention=use_tree_attention),
        rng=rng,
    )
    model.enable_lora()
    for layer, scaling in zip((model.mlp1, model.mlp2, model.mlp3),
                              _SCALINGS):
        layer.lora_a.data = rng.normal(0.0, 0.1, layer.lora_a.shape)
        layer.scaling = scaling
    return model


def _assert_lora_step_matches(model, fused, batch):
    graph_loss, graph_grads = _graph_grads(model, batch)
    for parameter in model.trainable_parameters():
        parameter.zero_grad()
    fused_loss = fused.step(batch)
    assert fused_loss == graph_loss
    fused_grads = {
        name: parameter.grad
        for name, parameter in model.named_parameters()
        if parameter.grad is not None
    }
    # Only the six adapter factors get gradients; frozen ones stay None.
    assert set(fused_grads) == set(graph_grads) == {
        f"mlp{i}.lora_{f}" for i in (1, 2, 3) for f in "ab"
    }
    for name, grad in graph_grads.items():
        assert np.array_equal(fused_grads[name], grad), name


@pytest.mark.parametrize("use_tree_attention", [True, False])
def test_lora_step_matches_graph_exactly(batches, use_tree_attention):
    dim = batches[0].features.shape[-1]
    model = _tuned_lora_model(dim, use_tree_attention)
    fused = FusedLoRAStep(model)
    # Two passes over every batch: the second runs on the warm prefix
    # cache.
    for _ in range(2):
        for batch in batches:
            _assert_lora_step_matches(model, fused, batch)
            assert np.array_equal(fused.predict(batch), model.infer(batch))


@pytest.mark.parametrize("use_tree_attention", [True, False])
def test_step_losses_equal_serving_forward_loss(batches,
                                                use_tree_attention):
    """Serving and training run one forward: each fused step's loss is
    the numpy loss of ``model.infer`` on the same batch, bit for bit."""
    dim = batches[0].features.shape[-1]
    pretrain = DACEModel(
        DACEConfig(input_dim=dim, use_tree_attention=use_tree_attention),
        rng=np.random.default_rng(7),
    )
    lora = _tuned_lora_model(dim, use_tree_attention)
    for model, step in ((pretrain, FusedQErrorStep(pretrain)),
                        (lora, FusedLoRAStep(lora))):
        for batch in batches:
            served = log_qerror_loss_np(
                model.infer(batch), batch.labels_log, batch.loss_weights
            )
            assert step.step(batch) == served


@pytest.fixture(scope="module")
def caught_plans(train_datasets):
    plans = catch_dataset(train_datasets[1])
    return plans, PlanEncoder().fit(plans)


@pytest.fixture(scope="module", params=[True, False],
                ids=["tree-attention", "full-attention"])
def sweep_model(caught_plans, request):
    _, encoder = caught_plans
    model = _tuned_lora_model(encoder.dim, request.param)
    return model, FusedLoRAStep(model)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(start=st.integers(0, 100), size=st.integers(1, 40),
       pad=st.sampled_from([None, 16, 24, 36]))
def test_lora_step_sweep_batch_sizes_and_pads(caught_plans, sweep_model,
                                              start, size, pad):
    plans, encoder = caught_plans
    model, fused = sweep_model
    batch = encoder.encode_batch(plans[start:start + size], pad_to=pad)
    # Twice: cold, then warm prefix; one step object across examples.
    for _ in range(2):
        _assert_lora_step_matches(model, fused, batch)


def _pretrained(train_datasets) -> DACE:
    dace = DACE(training=TrainingConfig(epochs=3, batch_size=32, seed=5),
                seed=5)
    return dace.fit(train_datasets[0])


def _losses(dace: DACE) -> list:
    return [(epoch["train_loss"], epoch["val_loss"])
            for epoch in dace.trainer.history
            if epoch.get("phase") == "fine_tune_lora"]


def test_fine_tune_lora_matches_autograd(train_datasets, test_dataset_m2,
                                         monkeypatch):
    steps = []

    def recording(model):
        step = maybe_fused_step(model)
        steps.append(step)
        return step

    fused = _pretrained(train_datasets)
    graph = _pretrained(train_datasets)
    monkeypatch.setattr(trainer_module, "maybe_fused_step", recording)
    fused.fine_tune_lora(test_dataset_m2, epochs=6, lr=3e-3)
    assert [type(step) for step in steps] == [FusedLoRAStep]
    monkeypatch.setattr(trainer_module, "maybe_fused_step",
                        lambda model: None)
    graph.fine_tune_lora(test_dataset_m2, epochs=6, lr=3e-3)

    assert len(_losses(fused)) == 6
    assert _losses(fused) == _losses(graph)
    fused_state = fused.model.state_dict()
    graph_state = graph.model.state_dict()
    assert set(fused_state) == set(graph_state)
    for name, value in graph_state.items():
        assert np.array_equal(fused_state[name], value), name
    # The adapters really moved: the comparison is not between zeros.
    assert all(np.any(fused_state[f"mlp{i}.lora_a"] != 0) for i in (1, 2, 3))


def test_fine_tune_lora_releases_prefix(train_datasets, test_dataset_m2,
                                        monkeypatch):
    """No frozen-prefix array outlives the fit that built it."""
    refs = []
    build = FusedLoRAStep._batch_prefix

    def recording(self, batch):
        prefix = build(self, batch)
        refs.extend(weakref.ref(array) for array in prefix[:2])
        return prefix

    monkeypatch.setattr(FusedLoRAStep, "_batch_prefix", recording)
    dace = _pretrained(train_datasets)
    gc.collect()
    gc.disable()
    try:
        dace.fine_tune_lora(test_dataset_m2, epochs=2)
        # Reference counting alone frees the prefix: no cycle keeps the
        # step alive until the next collection.
        uncollected = [ref for ref in refs if ref() is not None]
    finally:
        gc.enable()
    gc.collect()
    assert refs
    assert not uncollected
    assert all(ref() is None for ref in refs)
