"""Layers, module discovery, state dicts, optimizers, LoRA, attention."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    LayerNorm,
    Linear,
    LoRALinear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Tensor,
    masked_self_attention,
)
from repro.nn.layers import mlp

RNG = np.random.default_rng(7)


class TestLinearAndSequential:
    def test_linear_shapes(self):
        layer = Linear(5, 3, rng=RNG)
        out = layer(Tensor(RNG.normal(size=(7, 5))))
        assert out.shape == (7, 3)

    def test_linear_batched_input(self):
        layer = Linear(5, 3, rng=RNG)
        out = layer(Tensor(RNG.normal(size=(2, 7, 5))))
        assert out.shape == (2, 7, 3)

    def test_linear_no_bias(self):
        layer = Linear(4, 2, rng=RNG, bias=False)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((1, 4))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_sequential_composes(self):
        net = Sequential(Linear(4, 8, rng=RNG), ReLU(), Linear(8, 1, rng=RNG))
        out = net(Tensor(RNG.normal(size=(3, 4))))
        assert out.shape == (3, 1)

    def test_mlp_builder(self):
        net = mlp([18, 128, 64, 1], rng=RNG)
        out = net(Tensor(RNG.normal(size=(5, 18))))
        assert out.shape == (5, 1)
        # 3 linear layers + 2 interior activations
        assert len(net) == 5

    def test_mlp_rejects_single_size(self):
        with pytest.raises(ValueError):
            mlp([10])


class TestModuleDiscovery:
    def test_named_parameters_nested(self):
        net = Sequential(Linear(3, 4, rng=RNG), ReLU(), Linear(4, 2, rng=RNG))
        names = dict(net.named_parameters())
        assert "children_list.0.weight" in names
        assert "children_list.2.bias" in names
        assert len(names) == 4

    def test_num_parameters(self):
        layer = Linear(3, 4, rng=RNG)
        assert layer.num_parameters() == 3 * 4 + 4

    def test_zero_grad(self):
        layer = Linear(2, 2, rng=RNG)
        out = layer(Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestStateDict:
    def test_roundtrip(self):
        a = Linear(4, 3, rng=np.random.default_rng(1))
        b = Linear(4, 3, rng=np.random.default_rng(2))
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_mismatched_keys_raise(self):
        a = Linear(4, 3, rng=RNG)
        state = a.state_dict()
        del state["bias"]
        with pytest.raises(KeyError):
            a.load_state_dict(state)

    def test_mismatched_shape_raises(self):
        a = Linear(4, 3, rng=RNG)
        state = a.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            a.load_state_dict(state)


class TestLayerBehaviour:
    def test_layernorm_normalizes(self):
        ln = LayerNorm(6)
        x = Tensor(RNG.normal(2.0, 5.0, size=(4, 6)))
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_grad_flows(self):
        ln = LayerNorm(4)
        x = Tensor(RNG.normal(size=(2, 4)), requires_grad=True)
        (ln(x) ** 2).sum().backward()
        assert x.grad is not None
        assert ln.gamma.grad is not None


class TestOptimizers:
    @staticmethod
    def _fit(optimizer_cls, **kwargs) -> float:
        rng = np.random.default_rng(0)
        x = rng.normal(size=(128, 3))
        true_w = np.array([[1.0], [-2.0], [0.5]])
        y = x @ true_w
        layer = Linear(3, 1, rng=np.random.default_rng(5))
        optimizer = optimizer_cls(layer.parameters(), **kwargs)
        for _ in range(300):
            optimizer.zero_grad()
            pred = layer(Tensor(x))
            loss = ((pred - Tensor(y)) ** 2).mean()
            loss.backward()
            optimizer.step()
        return loss.item()

    def test_adam_converges(self):
        assert self._fit(Adam, lr=0.05) < 1e-3

    def test_empty_parameters_raise(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_bad_lr_raises(self):
        layer = Linear(2, 2, rng=RNG)
        with pytest.raises(ValueError):
            Adam(layer.parameters(), lr=0.0)

    def test_step_skips_parameters_without_grad(self):
        layer = Linear(2, 2, rng=RNG)
        optimizer = Adam(layer.parameters(), lr=0.1)
        before = layer.weight.data.copy()
        optimizer.step()  # no backward happened
        np.testing.assert_allclose(layer.weight.data, before)


class TestLoRA:
    def test_adapter_disabled_matches_base(self):
        lora = LoRALinear(8, 4, rank=2, rng=np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(3, 8)))
        np.testing.assert_allclose(lora(x).data, lora.base(x).data)

    def test_adapter_initially_zero_delta(self):
        lora = LoRALinear(8, 4, rank=2, rng=np.random.default_rng(0))
        x = Tensor(RNG.normal(size=(3, 8)))
        base_out = lora(x).data.copy()
        lora.enable_adapter()
        np.testing.assert_allclose(lora(x).data, base_out)

    def test_finetune_trains_only_adapter(self):
        lora = LoRALinear(6, 2, rank=2, rng=np.random.default_rng(0))
        lora.enable_adapter()
        trainable = {name for name, p in lora.named_parameters() if p.trainable}
        assert trainable == {"lora_a", "lora_b"}

    def test_finetune_changes_output(self):
        lora = LoRALinear(6, 1, rank=2, rng=np.random.default_rng(0))
        lora.enable_adapter()
        x = RNG.normal(size=(64, 6))
        y = RNG.normal(size=(64, 1)) * 3.0
        optimizer = Adam(lora.trainable_parameters(), lr=0.05)
        base_weight_before = lora.base.weight.data.copy()
        first_loss = last_loss = None
        for _ in range(100):
            optimizer.zero_grad()
            loss = ((lora(Tensor(x)) - Tensor(y)) ** 2).mean()
            loss.backward()
            optimizer.step()
            if first_loss is None:
                first_loss = loss.item()
            last_loss = loss.item()
        assert last_loss < first_loss
        np.testing.assert_allclose(lora.base.weight.data, base_weight_before)

    def test_merge_folds_delta(self):
        lora = LoRALinear(4, 3, rank=2, rng=np.random.default_rng(0))
        lora.enable_adapter()
        lora.lora_a.data = RNG.normal(size=lora.lora_a.shape)
        x = Tensor(RNG.normal(size=(2, 4)))
        with_adapter = lora(x).data.copy()
        lora.merge()
        lora.disable_adapter()
        np.testing.assert_allclose(lora(x).data, with_adapter, atol=1e-10)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            LoRALinear(4, 4, rank=0)

    def test_rank_may_exceed_output_dim(self):
        # The paper's MLP output layer is 64 -> 1 with LoRA rank 8.
        lora = LoRALinear(64, 1, rank=8, rng=RNG)
        out = lora(Tensor(RNG.normal(size=(2, 64))))
        assert out.shape == (2, 1)

    def test_adapter_param_count(self):
        lora = LoRALinear(128, 64, rank=16, rng=RNG)
        assert lora.adapter_num_parameters() == 128 * 16 + 16 * 64


class TestAttention:
    def test_output_shape(self):
        q = Tensor(RNG.normal(size=(2, 5, 8)))
        mask = np.ones((5, 5), dtype=bool)
        out = masked_self_attention(q, q, q, mask)
        assert out.shape == (2, 5, 8)

    def test_mask_blocks_information(self):
        """A node masked to see only itself outputs exactly its own value."""
        n, d = 4, 3
        values = RNG.normal(size=(n, d))
        q = Tensor(RNG.normal(size=(n, d)))
        k = Tensor(RNG.normal(size=(n, d)))
        v = Tensor(values)
        mask = np.eye(n, dtype=bool)
        out = masked_self_attention(q, k, v, mask)
        np.testing.assert_allclose(out.data, values, atol=1e-6)

    def test_changing_masked_value_does_not_change_output(self):
        n, d = 3, 4
        mask = np.eye(n, dtype=bool)
        mask[0, 1] = True  # node 0 sees node 1; nobody sees node 2
        q = Tensor(RNG.normal(size=(n, d)))
        k = Tensor(RNG.normal(size=(n, d)))
        v1 = RNG.normal(size=(n, d))
        v2 = v1.copy()
        v2[2] += 100.0  # perturb an invisible node
        out1 = masked_self_attention(q, k, Tensor(v1), mask).data
        out2 = masked_self_attention(q, k, Tensor(v2), mask).data
        np.testing.assert_allclose(out1[:2], out2[:2], atol=1e-6)

    def test_gradient_flows_through_attention(self):
        q = Tensor(RNG.normal(size=(2, 4, 6)), requires_grad=True)
        mask = np.tril(np.ones((4, 4), dtype=bool))
        out = masked_self_attention(q, q, q, mask)
        out.sum().backward()
        assert q.grad is not None
        assert np.isfinite(q.grad).all()


class TestParameterFreezing:
    def test_freeze_excludes_from_trainable(self):
        layer = Linear(2, 2, rng=RNG)
        layer.weight.freeze()
        trainable = list(layer.trainable_parameters())
        assert len(trainable) == 1  # only the bias

    def test_frozen_parameter_gets_no_grad(self):
        p = Parameter(np.ones(3))
        p.freeze()
        out = (Tensor(np.ones(3), requires_grad=True) * p).sum()
        out.backward()
        assert p.grad is None
