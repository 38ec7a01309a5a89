"""Information catcher, encoder, and loss-weight behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.plan import NODE_TYPES, PlanNode
from repro.featurize import PlanEncoder, RobustScaler, catch_plan, loss_weights
from repro.featurize.encoder import ENCODING_DIM, NUM_NODE_TYPES


def make_plan(with_labels: bool = True) -> PlanNode:
    """Aggregate -> Hash Join -> (Seq Scan, Hash -> Seq Scan)."""
    scan_a = PlanNode("Seq Scan", est_rows=100, est_cost=10, table="a")
    scan_b = PlanNode("Seq Scan", est_rows=200, est_cost=20, table="b")
    hash_node = PlanNode("Hash", est_rows=200, est_cost=25, children=[scan_b])
    join = PlanNode("Hash Join", est_rows=300, est_cost=60,
                    children=[scan_a, hash_node])
    root = PlanNode("Aggregate", est_rows=1, est_cost=63, children=[join])
    if with_labels:
        for node, t in zip(root.walk_dfs(), [50.0, 45.0, 12.0, 30.0, 25.0]):
            node.actual_time_ms = t
            node.actual_rows = node.est_rows
    return root


class TestCatcher:
    def test_dfs_order(self):
        caught = catch_plan(make_plan())
        types = [n.node_type for n in caught.nodes]
        assert types == ["Aggregate", "Hash Join", "Seq Scan", "Hash",
                         "Seq Scan"]

    def test_heights(self):
        caught = catch_plan(make_plan())
        np.testing.assert_array_equal(caught.heights, [0, 1, 2, 2, 3])

    def test_adjacency_reflexive(self):
        caught = catch_plan(make_plan())
        assert caught.adjacency.diagonal().all()

    def test_adjacency_transitive(self):
        caught = catch_plan(make_plan())
        a = caught.adjacency
        n = caught.num_nodes
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if a[i, j] and a[j, k]:
                        assert a[i, k], f"transitivity broken {i},{j},{k}"

    def test_adjacency_antisymmetric(self):
        caught = catch_plan(make_plan())
        a = caught.adjacency
        n = caught.num_nodes
        for i in range(n):
            for j in range(n):
                if i != j and a[i, j]:
                    assert not a[j, i]

    def test_root_ancestor_of_all(self):
        caught = catch_plan(make_plan())
        assert caught.adjacency[0].all()

    def test_sibling_not_related(self):
        caught = catch_plan(make_plan())
        # Node 2 (Seq Scan a) and node 3 (Hash) are siblings.
        assert not caught.adjacency[2, 3]
        assert not caught.adjacency[3, 2]

    def test_labels_extracted(self):
        caught = catch_plan(make_plan())
        np.testing.assert_allclose(caught.actual_times,
                                   [50.0, 45.0, 12.0, 30.0, 25.0])

    def test_unexecuted_plan_has_no_labels(self):
        caught = catch_plan(make_plan(with_labels=False))
        assert caught.actual_times is None

    def test_estimates_extracted(self):
        caught = catch_plan(make_plan())
        np.testing.assert_allclose(caught.est_rows, [1, 300, 100, 200, 200])
        np.testing.assert_allclose(caught.est_costs, [63, 60, 10, 25, 20])


class TestLossWeights:
    def test_alpha_half(self):
        weights = loss_weights(np.array([0, 1, 2, 3, 4]), alpha=0.5)
        np.testing.assert_allclose(weights, [1, 0.5, 0.25, 0.125, 0.0625])

    def test_alpha_zero_root_only(self):
        weights = loss_weights(np.array([0, 1, 2]), alpha=0.0)
        np.testing.assert_allclose(weights, [1, 0, 0])

    def test_alpha_one_uniform(self):
        weights = loss_weights(np.array([0, 1, 5]), alpha=1.0)
        np.testing.assert_allclose(weights, [1, 1, 1])

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            loss_weights(np.array([0]), alpha=1.5)

    @given(alpha=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_weights_decrease_with_height(self, alpha):
        heights = np.arange(6)
        weights = loss_weights(heights, alpha)
        assert (np.diff(weights) <= 1e-12).all()
        assert weights[0] == pytest.approx(1.0)


class TestRobustScaler:
    def test_fit_transform_centers(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(3, 2, size=(1000, 2))
        out = RobustScaler().fit(values).transform(values)
        assert abs(np.median(out, axis=0)).max() < 1e-9

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RobustScaler().transform(np.ones((2, 2)))

    def test_degenerate_column_safe(self):
        values = np.ones((10, 2))
        out = RobustScaler().fit(values).transform(values)
        assert np.isfinite(out).all()

    def test_state_roundtrip(self):
        values = np.random.default_rng(1).lognormal(0, 1, (50, 2))
        a = RobustScaler().fit(values)
        b = RobustScaler()
        b.load_state(a.state())
        probe = np.array([[5.0, 7.0]])
        np.testing.assert_allclose(a.transform(probe), b.transform(probe))


class TestPlanEncoder:
    @pytest.fixture()
    def encoder(self):
        encoder = PlanEncoder()
        encoder.fit([catch_plan(make_plan())])
        return encoder

    def test_encoding_dim(self, encoder):
        encoded = encoder.encode_plan(catch_plan(make_plan()))
        assert encoded.shape == (5, ENCODING_DIM)

    def test_one_hot_valid(self, encoder):
        encoded = encoder.encode_plan(catch_plan(make_plan()))
        one_hot = encoded[:, :NUM_NODE_TYPES]
        np.testing.assert_allclose(one_hot.sum(axis=1), 1.0)
        assert set(np.unique(one_hot)) <= {0.0, 1.0}

    def test_batch_padding(self, encoder):
        single = PlanNode("Seq Scan", est_rows=10, est_cost=5, table="t")
        single.actual_time_ms = 3.0
        batch = encoder.encode_batch(
            [catch_plan(make_plan()), catch_plan(single)]
        )
        assert batch.features.shape == (2, 5, ENCODING_DIM)
        assert batch.valid[0].all()
        np.testing.assert_array_equal(batch.valid[1], [True] + [False] * 4)
        # Padding loss weights are zero.
        assert (batch.loss_weights[1, 1:] == 0).all()
        # Padding rows attend to themselves only.
        for pad in range(1, 5):
            row = batch.attention_mask[1, pad]
            assert row[pad]
            assert row.sum() == 1

    def test_labels_are_log(self, encoder):
        batch = encoder.encode_batch([catch_plan(make_plan())])
        np.testing.assert_allclose(batch.labels_log[0, 0], np.log(50.0))

    def test_encode_unfit_raises(self):
        with pytest.raises(RuntimeError):
            PlanEncoder().encode_plan(catch_plan(make_plan()))

    def test_missing_labels_raise(self, encoder):
        with pytest.raises(ValueError):
            encoder.encode_batch([catch_plan(make_plan(with_labels=False))])

    def test_empty_batch_raises(self, encoder):
        with pytest.raises(ValueError):
            encoder.encode_batch([])

    def test_state_roundtrip(self, encoder):
        other = PlanEncoder()
        other.load_state(encoder.state())
        plan = catch_plan(make_plan())
        np.testing.assert_allclose(
            encoder.encode_plan(plan), other.encode_plan(plan)
        )

    def test_all_node_types_encodable(self, encoder):
        for index, node_type in enumerate(NODE_TYPES):
            node = PlanNode(node_type, est_rows=10, est_cost=5)
            encoded = encoder.encode_plan(catch_plan(node))
            assert encoded[0, index] == 1.0
