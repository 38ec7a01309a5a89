"""Fault-tolerance tiers over the fused serving kernel.

The fused kernel changes *dispatch* inside ``EstimatorService._forward``;
nothing above the service may notice — healthy resilience traffic must
stay byte-identical, and fault injection must still hit every tier.  The
sharpest risk is the PR-4 bug class: a delegating wrapper answering a
``hasattr`` probe through ``__getattr__`` and letting a fast path skip
its tiers.  These tests pin that the caught-plan fast path (probed via
``_defined_on_class``) keeps routing through chaos + resilience when the
bottom of the stack is the fused kernel.
"""

import numpy as np
import pytest

from repro.core import DACEModel
from repro.engine.plan import PlanNode
from repro.featurize import PlanEncoder, catch_plan
from repro.obs import MetricsRegistry
from repro.serve import (
    ChaosConfig,
    ChaosEstimator,
    ConcurrentEstimatorService,
    CostFallback,
    EstimatorService,
    ResilientEstimator,
)
from repro.serve.concurrent import _defined_on_class


def _chain_plan(num_nodes, cost=25.0):
    node = PlanNode("Seq Scan", est_rows=100.0, est_cost=cost)
    for depth in range(num_nodes - 1):
        node = PlanNode("Materialize", est_rows=50.0 + depth,
                        est_cost=cost + depth, children=[node])
    return node


PLANS = [_chain_plan(n, cost=10.0 * n) for n in (2, 4, 7, 11, 15, 17)]


@pytest.fixture()
def service():
    model = DACEModel(rng=np.random.default_rng(13))
    caught = [catch_plan(_chain_plan(n)) for n in range(1, 20)]
    encoder = PlanEncoder().fit(caught)
    service = EstimatorService(model, encoder)
    assert service.fused_active
    return service


def _resilient(inner):
    return ResilientEstimator(
        inner, fallback=CostFallback(), metrics=MetricsRegistry()
    )


class TestResilientOverFused:
    def test_healthy_path_bit_identical(self, service):
        """Zero faults: the whole stack answers exactly like the bare
        fused service, which answers exactly like the per-layer path."""
        chaos = ChaosEstimator.with_fault_rate(
            service, 0.0, seed=0, sleep=lambda _s: None
        )
        resilient = _resilient(chaos)
        stacked = resilient.predict_plans(PLANS)
        assert not resilient.last_degraded.any()

        service.invalidate()
        bare = service.predict_plans(PLANS)
        per_layer = EstimatorService(
            service.model, service.encoder, fused=False
        ).predict_plans(PLANS)
        np.testing.assert_array_equal(stacked, bare)
        np.testing.assert_array_equal(stacked, per_layer)
        assert service.metrics.counter("serve.fused.forwards").value > 0

    def test_error_faults_degrade_not_bypass(self, service):
        """error_rate=1.0 raises before the model: every answer must be
        a flagged fallback, and the fused kernel must never run."""
        chaos = ChaosEstimator(
            service, ChaosConfig(error_rate=1.0), sleep=lambda _s: None
        )
        resilient = _resilient(chaos)
        values = resilient.predict_plans(PLANS)
        assert np.all(np.isfinite(values))
        assert np.all(values > 0)
        assert resilient.last_degraded.all()
        assert resilient.metrics.counter("resilience.degraded").value > 0
        assert service.metrics.counter("serve.fused.forwards").value == 0

    def test_nan_faults_detected_after_fused_forward(self, service):
        """nan_rate=1.0 corrupts one entry of the fused output downstream:
        resilience must catch it, its batch-mates must keep their fused
        values, and the service cache must stay unpoisoned."""
        chaos = ChaosEstimator(
            service, ChaosConfig(nan_rate=1.0), sleep=lambda _s: None
        )
        resilient = _resilient(chaos)
        values = resilient.predict_plans(PLANS)
        assert np.all(np.isfinite(values))
        degraded = resilient.last_degraded
        assert degraded.sum() == 1
        np.testing.assert_array_equal(
            values[degraded], CostFallback().predict_plans(
                [plan for plan, bad in zip(PLANS, degraded) if bad]
            )
        )
        np.testing.assert_array_equal(
            values[~degraded],
            EstimatorService(service.model, service.encoder)
            .predict_plans(PLANS)[~degraded],
        )
        # The fused forward DID run (corruption happens on its output)...
        assert service.metrics.counter("serve.fused.forwards").value > 0
        # ...and the cache holds the pre-corruption values: a direct call
        # now answers healthily and byte-equal to an untouched service.
        clean = EstimatorService(service.model, service.encoder)
        np.testing.assert_array_equal(
            service.predict_plans(PLANS), clean.predict_plans(PLANS)
        )


class TestPoolTierGating:
    """The pool's caught-plan fast path must not skip wrapper tiers."""

    def test_probe_sees_wrapper_methods_on_class(self, service):
        chaos = ChaosEstimator.with_fault_rate(service, 1.0, seed=0)
        resilient = _resilient(chaos)
        assert _defined_on_class(chaos, "predict_caught")
        assert _defined_on_class(resilient, "predict_caught")

    def test_pure_delegator_denied_fast_path(self, service):
        """A wrapper exposing predict_caught only through __getattr__
        must be served via the slow path — the PR-4 regression."""

        class Delegator:
            def __init__(self, inner):
                self._inner = inner

            def predict_plan(self, plan):
                return self._inner.predict_plan(plan)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        delegator = Delegator(service)
        assert hasattr(delegator, "predict_caught")      # the trap
        assert not _defined_on_class(delegator, "predict_caught")
        with ConcurrentEstimatorService(delegator, workers=2) as pool:
            assert not pool._can_serve_caught
            values = pool.predict_plans(PLANS)
        service.invalidate()
        np.testing.assert_array_equal(values, service.predict_plans(PLANS))

    def test_pool_over_resilient_over_fused_healthy(self, service):
        chaos = ChaosEstimator.with_fault_rate(
            service, 0.0, seed=0, sleep=lambda _s: None
        )
        resilient = _resilient(chaos)
        with ConcurrentEstimatorService(resilient, workers=4) as pool:
            assert pool._can_serve_caught
            pooled = pool.predict_plans(PLANS)
        service.invalidate()
        np.testing.assert_array_equal(pooled, service.predict_plans(PLANS))
        assert not resilient.last_degraded.any()
        assert service.metrics.counter("serve.fused.forwards").value > 0

    def test_pool_over_resilient_faults_still_gated(self, service):
        """Injected errors under the pool: every answer is a finite
        fallback, the fused kernel never runs, and no InjectedFault
        escapes to a caller — tiers were not bypassed."""
        chaos = ChaosEstimator(
            service, ChaosConfig(error_rate=1.0), sleep=lambda _s: None
        )
        resilient = _resilient(chaos)
        with ConcurrentEstimatorService(resilient, workers=4) as pool:
            values = pool.predict_plans(PLANS)
        assert np.all(np.isfinite(values))
        assert np.all(values > 0)
        assert resilient.metrics.counter("resilience.degraded").value > 0
        assert service.metrics.counter("serve.fused.forwards").value == 0
        assert chaos.injected["error"] > 0
