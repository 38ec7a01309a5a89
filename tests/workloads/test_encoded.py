"""Encode-once pipeline: EncodedDataset batches.

The load-bearing property everywhere: pre-encoded batches must be
*byte-identical* to what per-epoch ``encode_batch`` calls produce — that
is the entire justification for swapping the pipeline into the trainer.
"""

import numpy as np
import pytest

from repro.core.trainer import catch_dataset
from repro.featurize import PlanEncoder
from repro.workloads.encoded import EncodedDataset

BATCH_SIZE = 16


@pytest.fixture(scope="module")
def encoded(train_datasets):
    plans = catch_dataset(train_datasets[0])
    encoder = PlanEncoder().fit(plans)
    return encoder, plans, EncodedDataset.encode(encoder, plans)


def _assert_batches_equal(ours, reference):
    assert ours.features.dtype == reference.features.dtype
    np.testing.assert_array_equal(ours.features, reference.features)
    np.testing.assert_array_equal(ours.attention_mask,
                                  reference.attention_mask)
    np.testing.assert_array_equal(ours.valid, reference.valid)
    np.testing.assert_array_equal(ours.heights, reference.heights)
    np.testing.assert_array_equal(ours.loss_weights, reference.loss_weights)
    np.testing.assert_array_equal(ours.labels_log, reference.labels_log)


class TestEncodedDataset:
    def test_bucketed_batches_match_encode_batch(self, encoded):
        """Each bucketed batch equals encode_batch on the same sorted
        slice — field for field, byte for byte."""
        encoder, plans, data = encoded
        order = sorted(range(len(plans)), key=lambda i: plans[i].num_nodes)
        batches = data.bucketed_batches(BATCH_SIZE)
        expected = [
            encoder.encode_batch([plans[i] for i in order[s:s + BATCH_SIZE]])
            for s in range(0, len(order), BATCH_SIZE)
        ]
        assert len(batches) == len(expected)
        for ours, reference in zip(batches, expected):
            _assert_batches_equal(ours, reference)

    def test_sequential_batches_match_encode_batch(self, encoded):
        encoder, plans, data = encoded
        batches = data.sequential_batches(BATCH_SIZE)
        expected = [
            encoder.encode_batch(plans[s:s + BATCH_SIZE])
            for s in range(0, len(plans), BATCH_SIZE)
        ]
        assert len(batches) == len(expected)
        for ours, reference in zip(batches, expected):
            _assert_batches_equal(ours, reference)

    def test_batches_are_memoized(self, encoded):
        _, _, data = encoded
        first = data.bucketed_batches(BATCH_SIZE)
        assert data.bucketed_batches(BATCH_SIZE) is first

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            EncodedDataset(features=[], adjacency=[], heights=[],
                           weights=[], labels=None)

