"""ResilientEstimator: one fault boundary, then the optimizer-cost
fallback — and the chaos acceptance contract (30% faults, zero
exceptions, finite output)."""

import copy

import numpy as np
import pytest

from repro.core import DACEModel
from repro.engine.plan import PlanNode
from repro.featurize import PlanEncoder, catch_plan
from repro.bench.chaos import ChaosEstimator
from repro.obs import MetricsRegistry
from repro.serve import (
    ConcurrentEstimatorService,
    CostFallback,
    EstimatorService,
    ResilientEstimator,
)


class StubEstimator:
    """Deterministic inner estimator: latency = root est_cost + 1."""

    def __init__(self) -> None:
        self.calls = 0

    def predict_caught(self, caught):
        self.calls += 1
        return np.array([plan.est_costs[0] + 1.0 for plan in caught])


class FailingEstimator:
    """Raises for the first ``failures`` calls, then answers."""

    def __init__(self, failures: int, value: float = 7.0) -> None:
        self.failures = failures
        self.value = value
        self.calls = 0

    def predict_caught(self, caught):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("backend down")
        return np.full(len(caught), self.value)


def _plan(cost: float = 5.0) -> PlanNode:
    return PlanNode("Seq Scan", est_rows=10.0, est_cost=cost)


def _no_sleep(_seconds: float) -> None:
    pass


def _resilient(inner, **kwargs) -> ResilientEstimator:
    kwargs.setdefault("metrics", MetricsRegistry())
    return ResilientEstimator(inner, **kwargs)


# ---------------------------------------------------------------------- #
# Fallback tier
# ---------------------------------------------------------------------- #
class TestCostFallback:
    def test_unscaled_is_log1p_cost(self):
        fallback = CostFallback()
        plan = _plan(cost=100.0)
        assert fallback.predict_plan(plan) == pytest.approx(
            np.exp(np.log1p(100.0))
        )

    def test_scaled_uses_cost_column(self, train_datasets):
        plans = [s.plan for s in train_datasets[0]]
        encoder = PlanEncoder().fit([catch_plan(p) for p in plans])
        fallback = CostFallback(encoder.scaler)
        plan = plans[0]
        expected = np.exp(
            (np.log1p(plan.est_cost) - encoder.scaler.center_[-1])
            / encoder.scaler.scale_[-1]
        )
        assert fallback.predict_plan(plan) == pytest.approx(float(expected))

    def test_always_finite_and_positive(self, train_datasets):
        plans = [s.plan for s in train_datasets[0]]
        encoder = PlanEncoder().fit([catch_plan(p) for p in plans])
        costs = [0.0, 1.0, 1e12, 1e300, -5.0, np.nan, np.inf, -np.inf]
        plans = [_plan() for _ in costs]
        for plan, cost in zip(plans, costs):
            plan.est_cost = cost   # PlanNode rejects negatives at build
        for fallback in (CostFallback(), CostFallback(encoder.scaler)):
            for values in (
                fallback.predict_plans(plans),
                fallback.predict_caught([catch_plan(p) for p in plans]),
            ):
                assert np.all(np.isfinite(values))
                assert np.all(values > 0)
            # A negative or NaN cost carries no cost signal: it answers
            # like a zero cost.
            np.testing.assert_array_equal(
                fallback.predict_plans(plans[4:6]),
                fallback.predict_plans([plans[0], plans[0]]),
            )

    def test_dataset_protocol(self, train_datasets):
        fallback = CostFallback()
        values = fallback.predict(train_datasets[0])
        assert values.shape == (len(train_datasets[0]),)
        assert np.all(np.isfinite(values))

    def test_caught_path_matches_plan_path(self):
        fallback = CostFallback()
        plans = [_plan(c) for c in (0.0, 5.0, 1e6)]
        np.testing.assert_array_equal(
            fallback.predict_caught([catch_plan(p) for p in plans]),
            fallback.predict_plans(plans),
        )


# ---------------------------------------------------------------------- #
# ResilientEstimator tiers
# ---------------------------------------------------------------------- #
class TestResilientEstimator:
    def test_satisfies_protocol(self):
        # The caught-plan contract: the pool accepts the wrapper.
        with ConcurrentEstimatorService(_resilient(StubEstimator()),
                                        workers=1) as pool:
            assert pool.predict_plans([_plan(4.0)]).tolist() == [5.0]

    def test_healthy_path_is_transparent(self):
        stub = StubEstimator()
        resilient = _resilient(stub)
        plans = [_plan(c) for c in (1.0, 2.0, 3.0)]
        values = resilient.predict_plans(plans)
        np.testing.assert_array_equal(
            values, stub.predict_caught([catch_plan(p) for p in plans]))
        assert not resilient.last_degraded.any()
        assert resilient.degraded_fraction == 0.0

    def test_failure_is_not_retried(self):
        inner = FailingEstimator(failures=1)
        resilient = _resilient(inner)
        plan = _plan()
        value = resilient.predict_plan(plan)
        assert inner.calls == 1
        assert value == CostFallback().predict_plan(plan)
        assert resilient.last_degraded.all()
        assert resilient.metrics.counter("resilience.degraded").value == 1

    def test_raise_degrades_whole_batch(self):
        inner = FailingEstimator(failures=100)
        resilient = _resilient(inner)
        plans = [_plan(4.0), _plan(9.0)]
        values = resilient.predict_plans(plans)
        assert inner.calls == 1
        np.testing.assert_array_equal(
            values, CostFallback().predict_plans(plans)
        )
        assert resilient.last_degraded.all()
        assert resilient.metrics.counter("resilience.degraded").value == 2

    def test_nan_output_is_a_failure(self):
        class NaNFirst:
            calls = 0

            def predict_caught(self, caught):
                self.calls += 1
                values = np.full(len(caught), 2.5)
                values[0] = np.nan
                return values

        inner = NaNFirst()
        resilient = _resilient(inner)
        plans = [_plan(), _plan(2.0), _plan(3.0)]
        values, flags = resilient.predict_plans_detailed(plans)
        assert inner.calls == 1
        # Only the NaN entry degrades; its batch-mates keep their values.
        np.testing.assert_array_equal(flags, [True, False, False])
        np.testing.assert_array_equal(
            values, [CostFallback().predict_plan(plans[0]), 2.5, 2.5]
        )
        assert resilient.metrics.counter("resilience.degraded").value == 1
        assert resilient.metrics.counter("resilience.predictions").value == 3

    def test_bad_shape_is_a_failure(self):
        class WrongShape:
            def predict_caught(self, caught):
                return np.ones(len(caught) + 1)

        resilient = _resilient(WrongShape())
        values = resilient.predict_plans([_plan()])
        assert resilient.last_degraded.all()
        assert np.isfinite(values).all()

    def test_failure_does_not_latch(self):
        inner = FailingEstimator(failures=2, value=3.5)
        resilient = _resilient(inner)
        resilient.predict_plan(_plan())
        resilient.predict_plan(_plan())
        assert resilient.last_degraded.all()
        value = resilient.predict_plan(_plan())    # next request is learned
        assert value == 3.5
        assert not resilient.last_degraded.any()
        assert inner.calls == 3

    def test_empty_batch(self):
        resilient = _resilient(StubEstimator())
        values = resilient.predict_plans([])
        assert values.shape == (0,)
        assert resilient.last_degraded.shape == (0,)

    def test_uncatchable_plan_degrades_instead_of_raising(self):
        # Plans are caught inside the boundary: a plan the catcher
        # rejects is answered by the fallback, flagged, never raised.
        class Uncatchable:
            est_cost = 6.0

        stub = StubEstimator()
        resilient = _resilient(stub)
        values, flags = resilient.predict_plans_detailed([Uncatchable()])
        assert flags.all() and stub.calls == 0
        assert values[0] == CostFallback().predict_plans([Uncatchable()])[0]

    def test_predict_caught_healthy_path(self):
        resilient = _resilient(StubEstimator())
        caught = [catch_plan(_plan(c)) for c in (1.0, 4.0)]
        values = resilient.predict_caught(caught)
        np.testing.assert_array_equal(values, [2.0, 5.0])
        assert not resilient.last_degraded.any()

    def test_predict_caught_failure_degrades(self):
        class FailingCaught(StubEstimator):
            def predict_caught(self, caught):
                raise RuntimeError("backend down")

        resilient = _resilient(FailingCaught())
        plan = _plan(100.0)
        values = resilient.predict_caught([catch_plan(plan)])
        np.testing.assert_array_equal(
            values, CostFallback().predict_plans([plan])
        )
        assert resilient.last_degraded.all()
        assert resilient.metrics.counter("resilience.degraded").value == 1

    def test_predict_caught_missing_inner_method_degrades(self):
        # An inner object without predict_caught: the learned-path
        # attempt fails with AttributeError and the fallback answers.
        class PlansOnly:
            def predict_plans(self, plans):
                return np.ones(len(plans))

        resilient = _resilient(PlansOnly())
        plan = _plan(9.0)
        values = resilient.predict_caught([catch_plan(plan)])
        np.testing.assert_array_equal(
            values, CostFallback().predict_plans([plan])
        )
        assert resilient.last_degraded.all()


# ---------------------------------------------------------------------- #
# Integration with the real serving stack
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def service_setup(train_datasets):
    plans = [s.plan for s in train_datasets[0]]
    encoder = PlanEncoder().fit([catch_plan(p) for p in plans])
    model = DACEModel(rng=np.random.default_rng(77))
    return model, encoder, plans


class TestChaosAcceptance:
    """The ISSUE acceptance contract, verbatim."""

    def test_500_plan_replay_at_30_percent_faults(self, service_setup):
        model, encoder, base_plans = service_setup
        plans = [base_plans[i % len(base_plans)] for i in range(500)]
        service = EstimatorService(model, encoder, batch_size=32)
        clean = service.predict_plans(plans)

        metrics = MetricsRegistry()
        resilient = ResilientEstimator(
            ChaosEstimator.with_fault_rate(
                service, 0.3, seed=123, sleep=_no_sleep
            ),
            fallback=CostFallback(encoder.scaler),
            metrics=metrics,
        )
        values = np.empty(500)
        degraded = np.zeros(500, dtype=bool)
        for index, plan in enumerate(plans):       # zero raised exceptions
            batch, flags = resilient.predict_plans_detailed([plan])
            values[index] = batch[0]
            degraded[index] = flags[0]

        assert np.all(np.isfinite(values))
        reported = metrics.counter("resilience.degraded").value
        assert reported == int(degraded.sum())
        assert metrics.counter("resilience.predictions").value == 500
        assert 0.0 <= resilient.degraded_fraction <= 1.0
        # Faults fired at 30%: something was degraded.
        assert reported > 0
        # Non-degraded predictions are exactly the clean-path values.
        np.testing.assert_array_equal(values[~degraded], clean[~degraded])

    def test_zero_fault_rate_is_bit_identical(self, service_setup):
        model, encoder, base_plans = service_setup
        plans = [base_plans[i % len(base_plans)] for i in range(200)]
        service = EstimatorService(model, encoder, batch_size=32)
        clean = service.predict_plans(plans)
        resilient = ResilientEstimator(
            ChaosEstimator.with_fault_rate(
                service, 0.0, seed=123, sleep=_no_sleep
            ),
            fallback=CostFallback(encoder.scaler),
            metrics=MetricsRegistry(),
        )
        wrapped = resilient.predict_plans(plans)
        np.testing.assert_array_equal(wrapped, clean)
        assert not resilient.last_degraded.any()
        assert resilient.degraded_fraction == 0.0


class TestResilientUnderPool:
    def test_result_never_hangs_and_never_raises(self, service_setup):
        model, encoder, base_plans = service_setup
        service = EstimatorService(model, encoder, batch_size=32)
        resilient = ResilientEstimator(
            ChaosEstimator.with_fault_rate(
                service, 0.5, seed=7, sleep=_no_sleep
            ),
            fallback=CostFallback(encoder.scaler),
            metrics=MetricsRegistry(),
        )
        with ConcurrentEstimatorService(
            resilient, workers=2, max_batch=8
        ) as pool:
            handles = [pool.submit(plan) for plan in base_plans[:40]]
            values = np.array([handle.result(timeout=60)
                               for handle in handles])
        assert np.all(np.isfinite(values))


class TestDACEResilient:
    def test_dace_resilient_view_matches_service(self, train_datasets):
        from repro.core import DACE, TrainingConfig

        dace = DACE(training=TrainingConfig(epochs=1, batch_size=32), seed=3)
        dace.fit(train_datasets[0])
        plans = [s.plan for s in train_datasets[0]][:10]
        resilient = dace.resilient()
        np.testing.assert_array_equal(
            resilient.predict_plans(plans), dace.predict_plans(plans)
        )
        assert resilient.metrics is dace.metrics

    def test_dace_resilient_flag_survives_save_load(
        self, train_datasets, tmp_path
    ):
        from repro.core import DACE, TrainingConfig
        from repro.serve import ResilientEstimator as RE

        dace = DACE(
            training=TrainingConfig(epochs=1, batch_size=32),
            seed=3, resilient=True,
        )
        dace.fit(train_datasets[0])
        plans = [s.plan for s in train_datasets[0]][:5]
        before = dace.predict_plans(plans)
        assert isinstance(dace.estimator, RE)
        path = str(tmp_path / "model")
        dace.save(path)
        loaded = DACE.load(path)
        assert isinstance(loaded.estimator, RE)
        np.testing.assert_array_equal(loaded.predict_plans(plans), before)


class TestMalformedPlan:
    """One plan with a NaN or inf estimate in an otherwise healthy batch
    degrades that plan only: its batch-mates keep their learned values
    bit for bit, and the next all-healthy batch is fully learned."""

    @pytest.fixture(scope="class")
    def fitted(self, train_datasets):
        from repro.core import DACE, TrainingConfig

        dace = DACE(
            training=TrainingConfig(epochs=1, batch_size=32),
            seed=3, resilient=True,
        )
        dace.fit(train_datasets[0])
        return dace

    @pytest.mark.parametrize("field,value", [
        ("est_rows", np.nan), ("est_rows", np.inf),
        ("est_cost", np.nan), ("est_cost", np.inf),
    ])
    def test_only_the_bad_plan_degrades(self, fitted, train_datasets,
                                        field, value):
        healthy = [s.plan for s in train_datasets[0]][:7]
        malformed = copy.deepcopy(healthy[0])
        setattr(malformed, field, value)
        bad = 3
        batch = healthy[:bad] + [malformed] + healthy[bad:]
        bare = EstimatorService(fitted.model, fitted.encoder, batch_size=32)
        expected = bare.predict_plans(healthy)
        fallback = CostFallback(fitted.encoder.scaler)

        resilient = ResilientEstimator(
            EstimatorService(fitted.model, fitted.encoder, batch_size=32),
            fallback=fallback,
        )
        with ConcurrentEstimatorService(resilient, workers=2) as pool:
            pooled = pool.predict_plans(batch)
            pooled_after = pool.predict_plans(healthy)
        assert resilient.metrics.counter("resilience.degraded").value == 1
        assert not resilient.last_degraded.any()

        stack = fitted.estimator
        assert isinstance(stack, ResilientEstimator)
        values, flags = stack.predict_plans_detailed(batch)
        np.testing.assert_array_equal(flags, np.arange(8) == bad)
        values_after, flags_after = stack.predict_plans_detailed(healthy)
        assert not flags_after.any()

        for answer, after in ((values, values_after),
                              (pooled, pooled_after)):
            assert np.all(np.isfinite(answer))
            np.testing.assert_array_equal(
                np.delete(answer, bad), expected
            )
            assert answer[bad] == fallback.predict_plan(batch[bad])
            np.testing.assert_array_equal(after, expected)
