"""Gradient correctness for every autodiff op (finite-difference checks)."""

import numpy as np
import pytest

from repro.nn import Tensor, no_grad

RNG = np.random.default_rng(42)


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar-valued fn of x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_grad(build, x: np.ndarray, atol: float = 1e-5) -> None:
    """Compare autodiff grad of build(Tensor) against finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    expected = numerical_grad(lambda arr: build(Tensor(arr)).item(), x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol, rtol=1e-4)


class TestElementwiseGrads:
    def test_add(self):
        check_grad(lambda t: (t + 3.0).sum(), RNG.normal(size=(3, 4)))

    def test_add_broadcast(self):
        other = Tensor(RNG.normal(size=(4,)))
        check_grad(lambda t: (t + other).sum(), RNG.normal(size=(3, 4)))

    def test_broadcast_grad_shape(self):
        a = Tensor(RNG.normal(size=(3, 1)), requires_grad=True)
        b = Tensor(RNG.normal(size=(1, 4)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 1)
        assert b.grad.shape == (1, 4)

    def test_mul(self):
        check_grad(lambda t: (t * t).sum(), RNG.normal(size=(5,)))

    def test_mul_broadcast_scalar(self):
        check_grad(lambda t: (t * 2.5).sum(), RNG.normal(size=(2, 3)))

    def test_sub_and_neg(self):
        check_grad(lambda t: (5.0 - t).sum(), RNG.normal(size=(4,)))

    def test_div(self):
        check_grad(
            lambda t: (t / 3.0 + 1.0 / t).sum(),
            RNG.uniform(1.0, 2.0, size=(4,)),
        )

    def test_pow(self):
        check_grad(lambda t: (t**3).sum(), RNG.uniform(0.5, 2.0, size=(3,)))

    def test_exp(self):
        check_grad(lambda t: t.exp().sum(), RNG.normal(size=(3, 2)))

    def test_log(self):
        check_grad(lambda t: t.log().sum(), RNG.uniform(0.5, 3.0, size=(4,)))

    def test_sqrt(self):
        check_grad(lambda t: t.sqrt().sum(), RNG.uniform(0.5, 3.0, size=(4,)))

    def test_abs(self):
        check_grad(lambda t: t.abs().sum(), RNG.uniform(0.2, 2.0, size=(4,)) * np.array([1, -1, 1, -1]))

    def test_relu(self):
        x = RNG.normal(size=(10,))
        x[np.abs(x) < 0.1] = 0.5  # keep away from the kink
        check_grad(lambda t: t.relu().sum(), x)


class TestMatmulGrads:
    def test_matmul_2d(self):
        w = Tensor(RNG.normal(size=(4, 2)))
        check_grad(lambda t: (t @ w).sum(), RNG.normal(size=(3, 4)))

    def test_matmul_2d_weight_grad(self):
        x = RNG.normal(size=(3, 4))
        check_grad(lambda t: (Tensor(x) @ t).sum(), RNG.normal(size=(4, 2)))

    def test_matmul_batched(self):
        w = Tensor(RNG.normal(size=(2, 5, 3)))
        check_grad(lambda t: (t @ w).sum(), RNG.normal(size=(2, 4, 5)))

    def test_matmul_batched_broadcast_weight(self):
        # (B, n, d) @ (d, k) — the shape DACE uses for shared projections.
        w = Tensor(RNG.normal(size=(5, 3)))
        check_grad(lambda t: (t @ w).sum(), RNG.normal(size=(2, 4, 5)))

    def test_matmul_shared_weight_batched_input(self):
        x = RNG.normal(size=(2, 4, 5))
        check_grad(lambda t: (Tensor(x) @ t).sum(), RNG.normal(size=(5, 3)))

    def test_matvec(self):
        v = Tensor(RNG.normal(size=(4,)))
        check_grad(lambda t: (t @ v).sum(), RNG.normal(size=(3, 4)))


class TestReductionsAndShapes:
    def test_sum_axis(self):
        check_grad(lambda t: (t.sum(axis=0) ** 2).sum(), RNG.normal(size=(3, 4)))

    def test_sum_keepdims(self):
        check_grad(
            lambda t: (t.sum(axis=1, keepdims=True) * t).sum(),
            RNG.normal(size=(3, 4)),
        )

    def test_mean(self):
        check_grad(lambda t: (t.mean(axis=1) ** 2).sum(), RNG.normal(size=(3, 4)))

    def test_max(self):
        x = np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 4.0]])
        check_grad(lambda t: t.max(axis=1).sum(), x)

    def test_reshape(self):
        check_grad(lambda t: (t.reshape(6) ** 2).sum(), RNG.normal(size=(2, 3)))

    def test_transpose(self):
        other = Tensor(RNG.normal(size=(2, 3)))
        check_grad(
            lambda t: (t.transpose() @ other).sum(),
            RNG.normal(size=(2, 4)),
        )

    def test_swapaxes(self):
        check_grad(
            lambda t: (t.swapaxes(-1, -2) ** 2).sum(), RNG.normal(size=(2, 3, 4))
        )

    def test_getitem(self):
        check_grad(lambda t: (t[1:3] ** 2).sum(), RNG.normal(size=(5, 2)))

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])
        check_grad(lambda t: (t[idx] ** 2).sum(), RNG.normal(size=(4, 3)))


class TestCombinators:
    def test_softmax_grad(self):
        check_grad(lambda t: (t.softmax(axis=-1) ** 2).sum(), RNG.normal(size=(3, 5)))

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(4, 7)))
        np.testing.assert_allclose(x.softmax(axis=-1).data.sum(axis=-1), 1.0)

    def test_masked_fill(self):
        mask = np.array([[True, False], [False, True]])
        check_grad(lambda t: t.masked_fill(mask, -9.0).sum(), RNG.normal(size=(2, 2)))

    def test_concat(self):
        b = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        a = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        out = Tensor.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((2, 3)))

    def test_stack(self):
        a = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        b = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        out = Tensor.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        (out * out).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a.data)


class TestGraphMechanics:
    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_diamond_graph(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        a = x * 2.0
        b = x + 1.0
        out = a * b
        out.backward()
        # d/dx (2x * (x+1)) = 4x + 2
        np.testing.assert_allclose(x.grad, [4 * 1.5 + 2])

    def test_backward_on_nonscalar_requires_grad_arg(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_without_requires_grad_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.sum().backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2).sum()
        assert not y.requires_grad

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])
