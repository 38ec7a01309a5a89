"""Loss functions and q-error metric, including hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, log_qerror_loss, qerror

positive_floats = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestQError:
    def test_perfect_prediction_is_one(self):
        np.testing.assert_allclose(qerror(np.array([3.0]), np.array([3.0])), 1.0)

    def test_symmetry(self):
        a, b = np.array([2.0]), np.array([8.0])
        np.testing.assert_allclose(qerror(a, b), qerror(b, a))

    def test_known_value(self):
        np.testing.assert_allclose(qerror(np.array([10.0]), np.array([2.0])), 5.0)

    def test_zero_actual_is_floored(self):
        result = qerror(np.array([1.0]), np.array([0.0]))
        assert np.isfinite(result).all()

    @given(
        est=st.lists(positive_floats, min_size=1, max_size=20),
        actual=st.lists(positive_floats, min_size=1, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_qerror_at_least_one(self, est, actual):
        n = min(len(est), len(actual))
        result = qerror(np.array(est[:n]), np.array(actual[:n]))
        assert (result >= 1.0 - 1e-12).all()

    @given(value=positive_floats, scale=st.floats(min_value=1.0, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_qerror_equals_scale(self, value, scale):
        result = qerror(np.array([value * scale]), np.array([value]))
        np.testing.assert_allclose(result, scale, rtol=1e-6)


class TestLogQErrorLoss:
    def test_zero_at_perfect_prediction(self):
        target = np.log(np.array([1.0, 2.0, 3.0]))
        pred = Tensor(target.copy(), requires_grad=True)
        loss = log_qerror_loss(pred, target)
        assert loss.item() == pytest.approx(0.0)

    def test_equals_mean_log_qerror(self):
        actual = np.array([1.0, 4.0, 10.0])
        est = np.array([2.0, 2.0, 30.0])
        pred = Tensor(np.log(est))
        loss = log_qerror_loss(pred, np.log(actual))
        expected = np.log(qerror(est, actual)).mean()
        assert loss.item() == pytest.approx(expected)

    def test_weights_zero_out_padding(self):
        target = np.zeros(4)
        pred = Tensor(np.array([0.0, 0.0, 100.0, -100.0]), requires_grad=True)
        weights = np.array([1.0, 1.0, 0.0, 0.0])
        loss = log_qerror_loss(pred, target, weights)
        assert loss.item() == pytest.approx(0.0)

    def test_weighting_matches_manual(self):
        target = np.zeros(3)
        pred = Tensor(np.array([1.0, 2.0, 4.0]))
        weights = np.array([1.0, 0.5, 0.25])
        loss = log_qerror_loss(pred, target, weights)
        expected = (1.0 * 1 + 0.5 * 2 + 0.25 * 4) / 1.75
        assert loss.item() == pytest.approx(expected)

    def test_all_zero_weights_raise(self):
        pred = Tensor(np.zeros(3))
        with pytest.raises(ValueError):
            log_qerror_loss(pred, np.zeros(3), np.zeros(3))

    def test_gradient_direction(self):
        """Gradient should push an overestimate down."""
        pred = Tensor(np.array([2.0]), requires_grad=True)
        loss = log_qerror_loss(pred, np.array([0.0]))
        loss.backward()
        assert pred.grad[0] > 0

