"""ResilientEstimator: retry, breaker, degradation tiers — and the
chaos acceptance contract (30% faults, zero exceptions, finite output)."""

import numpy as np
import pytest

from repro.core import DACEModel
from repro.engine.plan import PlanNode
from repro.featurize import PlanEncoder, catch_plan
from repro.obs import MetricsRegistry
from repro.serve import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    ChaosEstimator,
    CircuitBreaker,
    ConcurrentEstimatorService,
    CostFallback,
    Estimator,
    EstimatorService,
    ResilientEstimator,
)


class ManualClock:
    """Deterministic time source; ``sleep`` advances it."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps = []

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class StubEstimator:
    """Deterministic inner estimator: latency = est_cost + 1."""

    def __init__(self) -> None:
        self.calls = 0

    def predict_plans(self, plans):
        self.calls += 1
        return np.array([plan.est_cost + 1.0 for plan in plans])


class FailingEstimator:
    """Raises for the first ``failures`` calls, then answers."""

    def __init__(self, failures: int, value: float = 7.0) -> None:
        self.failures = failures
        self.value = value
        self.calls = 0

    def predict_plans(self, plans):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("backend down")
        return np.full(len(plans), self.value)


def _plan(cost: float = 5.0) -> PlanNode:
    return PlanNode("Seq Scan", est_rows=10.0, est_cost=cost)


def _resilient(inner, **kwargs) -> ResilientEstimator:
    clock = kwargs.pop("clock", ManualClock())
    kwargs.setdefault("metrics", MetricsRegistry())
    return ResilientEstimator(
        inner, clock=clock, sleep=clock.sleep, **kwargs
    )


# ---------------------------------------------------------------------- #
# Circuit breaker state machine
# ---------------------------------------------------------------------- #
class TestCircuitBreaker:
    def _breaker(self, **kwargs) -> CircuitBreaker:
        clock = kwargs.pop("clock", ManualClock())
        breaker = CircuitBreaker(clock=clock, **kwargs)
        breaker._test_clock = clock  # keep the handle for the test
        return breaker

    def test_opens_at_failure_threshold(self):
        breaker = self._breaker(
            failure_threshold=0.5, window=10, min_calls=4
        )
        assert breaker.state == STATE_CLOSED
        for _ in range(2):
            breaker.record_success()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED     # 1/3 < 0.5, under min_calls
        breaker.record_failure()                 # 2/4 = threshold at min_calls
        assert breaker.state == STATE_OPEN
        assert breaker.failure_rate == pytest.approx(0.5)

    def test_stays_closed_under_min_calls(self):
        breaker = self._breaker(failure_threshold=0.5, min_calls=5)
        for _ in range(4):
            breaker.record_failure()             # rate 1.0 but only 4 calls
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()

    def test_opens_and_blocks(self):
        breaker = self._breaker(min_calls=2, reset_timeout_s=10.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()

    def test_half_open_probe_after_timeout(self):
        breaker = self._breaker(min_calls=2, reset_timeout_s=10.0)
        breaker.record_failure()
        breaker.record_failure()
        clock = breaker._test_clock
        clock.advance(9.0)
        assert not breaker.allow()
        clock.advance(1.5)
        assert breaker.allow()                   # probe admitted
        assert breaker.state == STATE_HALF_OPEN

    def test_half_open_success_closes(self):
        breaker = self._breaker(min_calls=2, reset_timeout_s=1.0)
        breaker.record_failure()
        breaker.record_failure()
        breaker._test_clock.advance(2.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.failure_rate == 0.0       # history cleared

    def test_half_open_failure_reopens(self):
        breaker = self._breaker(min_calls=2, reset_timeout_s=1.0)
        breaker.record_failure()
        breaker.record_failure()
        breaker._test_clock.advance(2.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()               # timer re-armed

    def test_transition_metrics(self):
        metrics = MetricsRegistry()
        clock = ManualClock()
        breaker = CircuitBreaker(
            min_calls=2, reset_timeout_s=1.0, clock=clock, metrics=metrics
        )
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(2.0)
        breaker.allow()
        breaker.record_success()
        assert metrics.counter("resilience.breaker.opened").value == 1
        assert metrics.counter("resilience.breaker.half_opened").value == 1
        assert metrics.counter("resilience.breaker.closed").value == 1
        assert metrics.gauge("resilience.breaker.state").value == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(window=0)
        with pytest.raises(ValueError):
            CircuitBreaker(min_calls=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout_s=-1.0)


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

    def test_always_finite_and_positive(self):
        fallback = CostFallback()
        costs = [0.0, 1.0, 1e12, 1e300]
        values = fallback.predict_plans([_plan(c) for c in costs])
        assert np.all(np.isfinite(values))
        assert np.all(values > 0)

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
        assert isinstance(_resilient(StubEstimator()), Estimator)

    def test_healthy_path_is_transparent(self):
        stub = StubEstimator()
        resilient = _resilient(stub)
        plans = [_plan(c) for c in (1.0, 2.0, 3.0)]
        values = resilient.predict_plans(plans)
        np.testing.assert_array_equal(values, stub.predict_plans(plans))
        assert not resilient.last_degraded.any()
        assert resilient.degraded_fraction == 0.0

    def test_retry_recovers_transient_failure(self):
        inner = FailingEstimator(failures=1)
        resilient = _resilient(inner, max_retries=2)
        value = resilient.predict_plan(_plan())
        assert value == 7.0
        assert inner.calls == 2
        assert not resilient.last_degraded.any()
        assert resilient.metrics.counter("resilience.retries").value == 1
        assert resilient.metrics.counter("resilience.failures").value == 1
        assert (
            resilient.metrics.histogram(
                "resilience.retry_latency_seconds"
            ).count == 1
        )

    def test_exhausted_retries_degrade(self):
        inner = FailingEstimator(failures=100)
        resilient = _resilient(inner, max_retries=2)
        plans = [_plan(4.0), _plan(9.0)]
        values = resilient.predict_plans(plans)
        assert inner.calls == 3                    # 1 try + 2 retries
        np.testing.assert_allclose(
            values, CostFallback().predict_plans(plans)
        )
        assert resilient.last_degraded.all()
        assert resilient.metrics.counter("resilience.degraded").value == 2

    def test_backoff_is_exponential_with_deterministic_jitter(self):
        clock = ManualClock()
        inner = FailingEstimator(failures=100)
        resilient = _resilient(
            inner, clock=clock, max_retries=3,
            backoff_s=0.1, backoff_multiplier=2.0, jitter=0.5, seed=42,
        )
        resilient.predict_plan(_plan())
        expected_jitter = np.random.default_rng(42).random(3)
        expected = [
            0.1 * 2.0 ** i * (1.0 + 0.5 * expected_jitter[i])
            for i in range(3)
        ]
        np.testing.assert_allclose(clock.sleeps, expected)

    def test_same_seed_same_backoff_schedule(self):
        schedules = []
        for _ in range(2):
            clock = ManualClock()
            resilient = _resilient(
                FailingEstimator(failures=100), clock=clock,
                max_retries=3, jitter=0.3, seed=9,
            )
            resilient.predict_plan(_plan())
            schedules.append(list(clock.sleeps))
        assert schedules[0] == schedules[1]

    def test_deadline_cuts_retry_budget(self):
        clock = ManualClock()
        inner = FailingEstimator(failures=100)
        resilient = _resilient(
            inner, clock=clock, max_retries=10,
            backoff_s=1.0, jitter=0.0, deadline_s=2.5,
        )
        value = resilient.predict_plan(_plan())
        assert np.isfinite(value)
        # backoffs 1, 2 fit in the 2.5 s deadline; 4 would not.
        assert inner.calls < 4
        assert resilient.last_degraded.all()
        assert (
            resilient.metrics.counter("resilience.deadline_exceeded").value
            == 1
        )

    def test_nan_output_is_a_failure(self):
        class NaNOnce:
            calls = 0

            def predict_plans(self, plans):
                self.calls += 1
                values = np.ones(len(plans))
                if self.calls == 1:
                    values[0] = np.nan
                return values

        inner = NaNOnce()
        resilient = _resilient(inner, max_retries=1)
        values = resilient.predict_plans([_plan(), _plan(2.0)])
        assert inner.calls == 2                    # NaN triggered a retry
        np.testing.assert_array_equal(values, [1.0, 1.0])
        assert resilient.metrics.counter("resilience.failures").value == 1

    def test_bad_shape_is_a_failure(self):
        class WrongShape:
            def predict_plans(self, plans):
                return np.ones(len(plans) + 1)

        resilient = _resilient(WrongShape(), max_retries=0)
        values = resilient.predict_plans([_plan()])
        assert resilient.last_degraded.all()
        assert np.isfinite(values).all()

    def test_open_breaker_short_circuits(self):
        clock = ManualClock()
        breaker = CircuitBreaker(
            min_calls=2, reset_timeout_s=60.0, clock=clock
        )
        inner = FailingEstimator(failures=100)
        resilient = _resilient(
            inner, clock=clock, breaker=breaker, max_retries=0
        )
        resilient.predict_plan(_plan())
        resilient.predict_plan(_plan())            # opens the breaker
        assert breaker.state == STATE_OPEN
        calls_before = inner.calls
        value = resilient.predict_plan(_plan())    # short-circuited
        assert np.isfinite(value)
        assert inner.calls == calls_before
        assert (
            resilient.metrics.counter(
                "resilience.breaker.short_circuits"
            ).value == 1
        )

    def test_breaker_recovery_restores_learned_path(self):
        clock = ManualClock()
        breaker = CircuitBreaker(
            min_calls=2, reset_timeout_s=5.0, clock=clock
        )
        inner = FailingEstimator(failures=2, value=3.5)
        resilient = _resilient(
            inner, clock=clock, breaker=breaker, max_retries=0
        )
        resilient.predict_plan(_plan())
        resilient.predict_plan(_plan())
        assert breaker.state == STATE_OPEN
        clock.advance(6.0)                         # past reset timeout
        value = resilient.predict_plan(_plan())    # half-open probe wins
        assert value == 3.5
        assert breaker.state == STATE_CLOSED
        assert not resilient.last_degraded.any()

    def test_empty_batch(self):
        resilient = _resilient(StubEstimator())
        values = resilient.predict_plans([])
        assert values.shape == (0,)
        assert resilient.last_degraded.shape == (0,)

    def test_delegates_unknown_attributes(self):
        stub = StubEstimator()
        stub.custom_marker = "here"
        assert _resilient(stub).custom_marker == "here"

    def test_predict_caught_healthy_path(self):
        class CaughtStub(StubEstimator):
            def predict_caught(self, caught):
                return np.array(
                    [plan.est_costs[0] + 1.0 for plan in caught]
                )

        resilient = _resilient(CaughtStub())
        caught = [catch_plan(_plan(c)) for c in (1.0, 4.0)]
        values = resilient.predict_caught(caught)
        np.testing.assert_array_equal(values, [2.0, 5.0])
        assert not resilient.last_degraded.any()

    def test_predict_caught_exhausted_retries_degrade(self):
        class FailingCaught(StubEstimator):
            def predict_caught(self, caught):
                raise RuntimeError("backend down")

        resilient = _resilient(FailingCaught(), max_retries=1)
        plan = _plan(100.0)
        values = resilient.predict_caught([catch_plan(plan)])
        np.testing.assert_array_equal(
            values, CostFallback().predict_plans([plan])
        )
        assert resilient.last_degraded.all()
        assert resilient.metrics.counter("resilience.failures").value == 2

    def test_predict_caught_missing_inner_method_degrades(self):
        # StubEstimator has no predict_caught: the learned-path attempt
        # fails with AttributeError and the fallback answers — the tier
        # of last resort also covers estimators that predate the caught
        # path.
        resilient = _resilient(StubEstimator(), max_retries=0)
        plan = _plan(9.0)
        values = resilient.predict_caught([catch_plan(plan)])
        np.testing.assert_array_equal(
            values, CostFallback().predict_plans([plan])
        )
        assert resilient.last_degraded.all()

    def test_predict_caught_custom_fallback_without_caught_path(self):
        class PlanOnlyFallback:
            def predict_plans(self, plans):
                return np.array([plan.est_cost * 2.0 for plan in plans])

        class FailingCaught(StubEstimator):
            def predict_caught(self, caught):
                raise RuntimeError("backend down")

        resilient = _resilient(
            FailingCaught(), max_retries=0, fallback=PlanOnlyFallback()
        )
        values = resilient.predict_caught([catch_plan(_plan(3.0))])
        np.testing.assert_array_equal(values, [6.0])

    def test_parameter_validation(self):
        stub = StubEstimator()
        with pytest.raises(ValueError):
            ResilientEstimator(stub, max_retries=-1)
        with pytest.raises(ValueError):
            ResilientEstimator(stub, backoff_s=-0.1)
        with pytest.raises(ValueError):
            ResilientEstimator(stub, jitter=-0.5)
        with pytest.raises(ValueError):
            ResilientEstimator(stub, deadline_s=0.0)


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

        clock = ManualClock()
        metrics = MetricsRegistry()
        resilient = ResilientEstimator(
            ChaosEstimator.with_fault_rate(
                service, 0.3, seed=123, sleep=clock.sleep
            ),
            fallback=CostFallback(encoder.scaler),
            metrics=metrics,
            clock=clock,
            sleep=clock.sleep,
            seed=123,
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
        # Faults fired at 30%: something was retried or degraded.
        assert (metrics.counter("resilience.retries").value > 0
                or reported > 0)
        # Non-degraded predictions are exactly the clean-path values.
        np.testing.assert_array_equal(values[~degraded], clean[~degraded])

    def test_zero_fault_rate_is_bit_identical(self, service_setup):
        model, encoder, base_plans = service_setup
        plans = [base_plans[i % len(base_plans)] for i in range(200)]
        service = EstimatorService(model, encoder, batch_size=32)
        clean = service.predict_plans(plans)
        clock = ManualClock()
        resilient = ResilientEstimator(
            ChaosEstimator.with_fault_rate(
                service, 0.0, seed=123, sleep=clock.sleep
            ),
            fallback=CostFallback(encoder.scaler),
            metrics=MetricsRegistry(),
            clock=clock,
            sleep=clock.sleep,
        )
        wrapped = resilient.predict_plans(plans)
        np.testing.assert_array_equal(wrapped, clean)
        assert not resilient.last_degraded.any()
        assert resilient.degraded_fraction == 0.0


class TestResilientUnderPool:
    def test_result_never_hangs_and_never_raises(self, service_setup):
        model, encoder, base_plans = service_setup
        service = EstimatorService(model, encoder, batch_size=32)
        clock = ManualClock()
        resilient = ResilientEstimator(
            ChaosEstimator.with_fault_rate(
                service, 0.5, seed=7, sleep=clock.sleep
            ),
            fallback=CostFallback(encoder.scaler),
            metrics=MetricsRegistry(),
            clock=clock,
            sleep=clock.sleep,
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
        resilient = dace.resilient(sleep=lambda _s: None)
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
