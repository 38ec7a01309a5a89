"""In-place Adam: bit-identical trajectory to the out-of-place form.

The optimizer rewrite reuses scratch buffers instead of allocating per
step; the arithmetic is the same elementwise IEEE expression, so every
parameter must track the textbook implementation exactly — including
with sparse (None) gradients, and across many steps.
"""

import numpy as np

from repro.nn import Adam
from repro.nn.module import Parameter


class _ReferenceAdam:
    """The textbook (seed commit) out-of-place Adam."""

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            parameter.data = parameter.data - self.lr * update


def _make_parameters(rng, shapes=((4, 3), (3,), (2, 2, 2))):
    return [Parameter(rng.standard_normal(shape)) for shape in shapes]


def test_inplace_matches_reference_exactly():
    rng = np.random.default_rng(3)
    params_a = _make_parameters(rng)
    params_b = [Parameter(p.data.copy()) for p in params_a]
    ours = Adam(params_a, lr=2e-3)
    reference = _ReferenceAdam(params_b, lr=2e-3)
    for step in range(50):
        for a, b in zip(params_a, params_b):
            grad = rng.standard_normal(a.data.shape)
            a.grad = grad
            b.grad = grad.copy()
        ours.step()
        reference.step()
        for a, b in zip(params_a, params_b):
            assert np.array_equal(a.data, b.data), f"diverged at step {step}"


def test_none_gradients_skip_parameter():
    rng = np.random.default_rng(5)
    params = _make_parameters(rng)
    frozen = params[1].data.copy()
    optimizer = Adam(params, lr=1e-2)
    params[0].grad = rng.standard_normal(params[0].data.shape)
    params[2].grad = rng.standard_normal(params[2].data.shape)
    params[1].grad = None
    optimizer.step()
    assert np.array_equal(params[1].data, frozen)
    assert not np.array_equal(
        params[0].data, _make_parameters(np.random.default_rng(5))[0].data
    )


def test_state_dict_snapshots_survive_further_steps():
    """``step`` updates parameters in place, so ``state_dict`` snapshots
    (which early stopping relies on) must be copies, not views."""
    from repro.nn import Linear

    layer = Linear(3, 3, rng=np.random.default_rng(7))
    optimizer = Adam(layer.parameters(), lr=1e-1)
    rng = np.random.default_rng(8)
    for parameter in layer.parameters():
        parameter.grad = rng.standard_normal(parameter.data.shape)
    optimizer.step()
    snapshot = layer.state_dict()
    frozen = {name: array.copy() for name, array in snapshot.items()}
    for parameter in layer.parameters():
        parameter.grad = rng.standard_normal(parameter.data.shape)
    optimizer.step()
    for name in snapshot:
        assert np.array_equal(snapshot[name], frozen[name]), name
