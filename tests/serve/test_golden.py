"""Golden zero-shot regression: serving output pinned to a checked-in file.

A fixed-seed workload is trained and predicted with fixed seeds; the
predictions live in ``tests/data/golden_serve.npz``.  Any change to the
encoder, model, trainer, or serving path that shifts predictions shows up
here as a diff against the golden file — regenerate deliberately with::

    PYTHONPATH=src python tests/serve/test_golden.py
"""

import os

import numpy as np
import pytest

from repro.catalog import load_database
from repro.core import DACE, TrainingConfig
from repro.obs import MetricsRegistry
from repro.serve import ChaosEstimator, CostFallback, ResilientEstimator
from repro.sql.generator import QueryGenerator, WorkloadSpec
from repro.workloads.dataset import collect_workload

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "data", "golden_serve.npz"
)
_SPEC = WorkloadSpec(max_joins=2, max_predicates=3, min_predicates=1)


def _collect(name, count, seed):
    database = load_database(name)
    queries = QueryGenerator(database, _SPEC, seed=seed).generate_many(count)
    return collect_workload(database, queries, seed=seed)


def _build():
    """Train the fixed-seed model and predict the fixed-seed test plans."""
    train = _collect("airline", 40, seed=3)
    test = _collect("movielens", 20, seed=4)
    dace = DACE(training=TrainingConfig(epochs=3, batch_size=32), seed=11)
    dace.fit(train)
    plans = [sample.plan for sample in test]
    return dace, plans, dace.predict_plans(plans)


@pytest.fixture(scope="module")
def golden_setup():
    return _build()


class TestGoldenServe:
    def test_golden_file_exists(self):
        assert os.path.exists(GOLDEN_PATH), (
            "regenerate with: PYTHONPATH=src python tests/serve/test_golden.py"
        )

    def test_predictions_match_golden(self, golden_setup):
        _, _, predictions = golden_setup
        golden = np.load(GOLDEN_PATH)["predictions"]
        assert predictions.shape == golden.shape
        np.testing.assert_allclose(predictions, golden, rtol=1e-7)

    def test_resilient_wrapper_matches_golden(self, golden_setup):
        """Tier-1 healthy path through the full resilience stack is
        bit-identical to the bare model — the wrapper adds no noise."""
        dace, plans, predictions = golden_setup
        resilient = ResilientEstimator(
            ChaosEstimator.with_fault_rate(
                dace.service, 0.0, seed=0, sleep=lambda _s: None
            ),
            fallback=CostFallback(dace.encoder.scaler),
            metrics=MetricsRegistry(),
        )
        np.testing.assert_array_equal(
            resilient.predict_plans(plans), predictions
        )
        assert not resilient.last_degraded.any()

    def test_worker_pool_matches_golden(self, golden_setup):
        """Concurrent serving is anchored to the same golden file as the
        serial path: eight closed-loop clients on an 8-worker pool must
        reproduce the serial predictions bit-for-bit (and hence the
        golden values at the same tolerance)."""
        import threading

        from repro.serve import ConcurrentEstimatorService

        dace, plans, predictions = golden_setup
        golden = np.load(GOLDEN_PATH)["predictions"]
        out = np.empty(len(plans))
        clients = 8
        with ConcurrentEstimatorService(dace.service, workers=8) as pool:
            barrier = threading.Barrier(clients)

            def client(offset):
                barrier.wait()
                for i in range(offset, len(plans), clients):
                    out[i] = pool.predict_plan(plans[i])

            threads = [
                threading.Thread(target=client, args=(offset,))
                for offset in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        np.testing.assert_array_equal(out, predictions)
        np.testing.assert_allclose(out, golden, rtol=1e-7)

    def test_golden_values_are_sane(self):
        golden = np.load(GOLDEN_PATH)["predictions"]
        assert np.all(np.isfinite(golden))
        assert np.all(golden > 0)


class TestGoldenFused:
    """The fused serving kernel is anchored to the same golden file.

    The module fixture's DACE serves through the fused kernel by default,
    so ``test_predictions_match_golden`` above already pins fused output
    to the golden values; these tests make the dispatch explicit and pin
    fused == per-layer == golden in one place.
    """

    def test_fused_engaged_for_golden_predictions(self, golden_setup):
        dace, _, _ = golden_setup
        assert dace.service.fused_active
        assert dace.metrics.counter("serve.fused.forwards").value > 0

    def test_fused_vs_per_layer_vs_golden(self, golden_setup):
        """Same weights, fused on vs pinned off: byte-equal, both golden."""
        from repro.serve import EstimatorService

        dace, plans, predictions = golden_setup
        per_layer = EstimatorService(
            dace.model, dace.encoder,
            batch_size=dace.service.batch_size, fused=False,
        )
        unfused = per_layer.predict_plans(plans)
        np.testing.assert_array_equal(unfused, predictions)
        golden = np.load(GOLDEN_PATH)["predictions"]
        np.testing.assert_allclose(unfused, golden, rtol=1e-7)
        assert per_layer.metrics.counter("serve.fused.forwards").value == 0

    def test_workers_vs_serial_with_fused(self, golden_setup):
        """workers=8 == workers=1 == plain service, fused engaged."""
        from repro.serve import ConcurrentEstimatorService

        dace, plans, predictions = golden_setup
        before = dace.metrics.counter("serve.fused.forwards").value
        dace.service.invalidate()      # force cache-miss fused forwards
        with ConcurrentEstimatorService(dace.service, workers=1) as pool:
            one = pool.predict_plans(plans)
        dace.service.invalidate()
        with ConcurrentEstimatorService(dace.service, workers=8) as pool:
            eight = pool.predict_plans(plans)
        np.testing.assert_array_equal(one, predictions)
        np.testing.assert_array_equal(eight, predictions)
        assert dace.metrics.counter("serve.fused.forwards").value > before


class TestGoldenFleet:
    """The sharded fleet is anchored to the same golden file.

    Routing, per-shard caching, wave batching, and tenant grouping are
    all allowed to vary with shard count — the bits are not: any fleet
    must reproduce the serial golden predictions exactly for the base
    tenant, cold and warm.
    """

    @pytest.mark.parametrize("shards", [1, 3])
    def test_fleet_matches_golden(self, golden_setup, shards):
        from repro.serve import FleetGateway

        dace, plans, predictions = golden_setup
        golden = np.load(GOLDEN_PATH)["predictions"]
        with FleetGateway(
            dace.model, dace.encoder, shards=shards,
            metrics=MetricsRegistry(),
        ) as fleet:
            cold = fleet.predict_plans(plans)
            warm = fleet.predict_plans(plans)  # served from fleet cache
        np.testing.assert_array_equal(cold, predictions)
        np.testing.assert_array_equal(warm, predictions)
        np.testing.assert_allclose(cold, golden, rtol=1e-7)

    def test_fleet_with_tenant_adapters_golden_for_base(self, golden_setup):
        """Registered tenants must not perturb the base tenant's bits."""
        import numpy.random as npr

        from repro.serve import FleetGateway, ModelRegistry

        dace, plans, predictions = golden_setup
        with FleetGateway(
            dace.model, dace.encoder, shards=2, metrics=MetricsRegistry()
        ) as fleet:
            base = fleet.shards[0].registry.adapter_state(
                ModelRegistry.BASE_TAG
            )
            rng = npr.default_rng(9)
            fleet.register_tenant("other", {
                name: array + rng.normal(0.0, 0.05, array.shape)
                for name, array in base.items()
            })
            fleet.predict_plans(plans[:5], tenant="other")
            np.testing.assert_array_equal(
                fleet.predict_plans(plans), predictions
            )


def regenerate():
    _, _, predictions = _build()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    np.savez_compressed(GOLDEN_PATH, predictions=predictions)
    print(f"wrote {GOLDEN_PATH}: shape={predictions.shape}, "
          f"mean={predictions.mean():.6g}")


if __name__ == "__main__":
    regenerate()
