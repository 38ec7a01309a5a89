"""Golden baseline regression: every learned model pinned to a checked-in file.

Each of the five learned baselines and both DACE integrations is fit for
two seeded epochs on a fixed labelled split.  Its held-out ``predict_ms``
and its ``num_parameters()`` live in ``tests/data/golden_baselines.npz``
and must match bit for bit, so a refactor of the shared fit/predict loop,
a batcher, a loss or a parameter initialization that moves a single draw
or a single operation shows up here.  Regenerate deliberately with::

    PYTHONPATH=src python tests/baselines/test_golden_baselines.py
"""

import os

import numpy as np
import pytest

from repro.baselines import (
    DACEIntegration,
    MSCNModel,
    QPPNetModel,
    QueryFormerModel,
    TPoolModel,
    ZeroShotModel,
)
from repro.catalog import load_database
from repro.core import DACE, TrainingConfig
from repro.sql.generator import QueryGenerator, WorkloadSpec
from repro.workloads.dataset import collect_workload

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "data",
    "golden_baselines.npz",
)
MODEL_NAMES = ["MSCN", "QPPNet", "TPool", "QueryFormer", "Zero-Shot",
               "DACE-MSCN", "DACE-QueryFormer"]
_SPEC = WorkloadSpec(max_joins=3, max_predicates=3, min_predicates=1)


def _collect(name, count, seed):
    database = load_database(name)
    queries = QueryGenerator(database, _SPEC, seed=seed).generate_many(count)
    return collect_workload(database, queries, seed=seed)


def _models(imdb, dace):
    """The seven models, each with two epochs and a fixed seed."""
    width = dace.embedding_dim
    return {
        "MSCN": MSCNModel(imdb, epochs=2, seed=5),
        "QPPNet": QPPNetModel(epochs=2, seed=5),
        "TPool": TPoolModel(epochs=2, seed=5),
        "QueryFormer": QueryFormerModel(n_layers=2, epochs=2, seed=5),
        "Zero-Shot": ZeroShotModel(epochs=2, seed=5),
        "DACE-MSCN": DACEIntegration(
            MSCNModel(imdb, context_dim=width, epochs=2, seed=5), dace
        ),
        "DACE-QueryFormer": DACEIntegration(
            QueryFormerModel(n_layers=2, context_dim=width, epochs=2,
                             seed=5),
            dace,
        ),
    }


def _build():
    """Fit every model on the fixed split; name -> (predictions, size)."""
    # More plans than one batch for every model, and a ragged last batch.
    train = _collect("imdb", 150, seed=21)
    test = _collect("imdb", 70, seed=22)
    dace = DACE(training=TrainingConfig(epochs=3, batch_size=32), seed=11)
    dace.fit(_collect("airline", 60, seed=3))
    out = {}
    for name, model in _models(load_database("imdb"), dace).items():
        model.fit(train)
        out[name] = (model.predict_ms(test), model.num_parameters())
    return out


@pytest.fixture(scope="module")
def golden_run():
    return _build()


class TestGoldenBaselines:
    def test_golden_file_exists(self):
        assert os.path.exists(GOLDEN_PATH), (
            "regenerate with: PYTHONPATH=src "
            "python tests/baselines/test_golden_baselines.py"
        )

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_predictions_bit_equal(self, golden_run, name):
        golden = np.load(GOLDEN_PATH)
        predictions, _ = golden_run[name]
        assert np.array_equal(predictions, golden[f"predict:{name}"])

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_parameter_count_equal(self, golden_run, name):
        golden = np.load(GOLDEN_PATH)
        _, size = golden_run[name]
        assert size == int(golden[f"params:{name}"])


if __name__ == "__main__":
    arrays = {}
    for name, (predictions, size) in _build().items():
        arrays[f"predict:{name}"] = predictions
        arrays[f"params:{name}"] = np.array(size)
    np.savez(GOLDEN_PATH, **arrays)
    print(f"wrote {GOLDEN_PATH}: {', '.join(sorted(arrays))}")
