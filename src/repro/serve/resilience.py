"""Fault-tolerant serving: retries, circuit breaking, graceful degradation.

DACE's job is correcting the optimizer's estimated cost, which hands the
serving path a natural graceful-degradation target: when the learned path
fails, the raw DBMS cost estimate is still a usable answer (FasCo shows
the plan-derived signal alone is a workable cheap estimator).
:class:`ResilientEstimator` wraps any :class:`~repro.serve.estimator.
Estimator` behind that insight as a three-tier request path:

1. **learned** — the wrapped estimator, with every output validated
   (shape + finiteness) so a NaN is a failure, not an answer;
2. **retry** — bounded retries with exponential backoff and
   *deterministic* jitter (a seeded RNG; clock and sleep are injectable,
   so tests never actually wait), all fenced by a per-request deadline;
3. **degraded** — the plan's own optimizer-estimated cost, robust-scaled
   back to log-latency space (:class:`CostFallback`), returned instead of
   raising.  Degraded predictions are flagged per-prediction
   (``last_degraded``) and counted (``resilience.degraded``).

A :class:`CircuitBreaker` (closed → open → half-open) sits across tier 1:
once the recent failure rate crosses the threshold the learned path is
skipped entirely for ``reset_timeout_s`` — the fallback answers at full
speed instead of every request eating the full retry budget.

Everything is observable through :mod:`repro.obs`: retry/failure/degraded
counters, breaker transition counters, a breaker-state gauge, and a
histogram of how long retried requests took to resolve.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.plan import PlanNode
from repro.obs import MetricsRegistry

__all__ = [
    "STATE_CLOSED",
    "STATE_OPEN",
    "STATE_HALF_OPEN",
    "PredictionError",
    "CircuitBreaker",
    "CostFallback",
    "ResilientEstimator",
]

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"

_STATE_GAUGE = {STATE_CLOSED: 0.0, STATE_HALF_OPEN: 1.0, STATE_OPEN: 2.0}

# exp() guard for the fallback tier: a pathological optimizer cost must
# still produce a finite latency.
_LOG_LATENCY_CLIP = 50.0


class PredictionError(RuntimeError):
    """An estimator answered with something unusable (shape, NaN, inf)."""


class CircuitBreaker:
    """Failure-rate circuit breaker over the last ``window`` outcomes.

    States (the classic machine):

    - **closed** — traffic flows; outcomes are recorded.  When at least
      ``min_calls`` of the last ``window`` outcomes are recorded and the
      failure rate reaches ``failure_threshold``, the breaker *opens*.
    - **open** — ``allow()`` is False (callers skip the protected path)
      until ``reset_timeout_s`` has elapsed, then the next ``allow()``
      moves to *half-open* and admits a probe.
    - **half-open** — probes flow; the first recorded success closes the
      breaker (history cleared), the first failure re-opens it and
      re-arms the timer.

    The clock is injectable so tests drive transitions without sleeping.

    Thread-safe: the outcome window and every state transition are
    guarded by one lock, so concurrent ``allow``/``record_*`` calls can
    never double-count an outcome or run the open→half-open edge twice.
    """

    def __init__(
        self,
        failure_threshold: float = 0.5,
        window: int = 20,
        min_calls: int = 5,
        reset_timeout_s: float = 30.0,
        clock=time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if min_calls < 1:
            raise ValueError(f"min_calls must be >= 1, got {min_calls}")
        if reset_timeout_s < 0:
            raise ValueError(
                f"reset_timeout_s must be >= 0, got {reset_timeout_s}"
            )
        self.failure_threshold = failure_threshold
        self.min_calls = min_calls
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._lock = threading.Lock()
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self._state = STATE_CLOSED
        self._opened_at = 0.0
        metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics = metrics
        self._opened = metrics.counter(
            "resilience.breaker.opened", help="transitions into open"
        )
        self._half_opened = metrics.counter(
            "resilience.breaker.half_opened", help="transitions into half-open"
        )
        self._closed = metrics.counter(
            "resilience.breaker.closed", help="transitions back to closed"
        )
        self._state_gauge = metrics.gauge(
            "resilience.breaker.state",
            help="0=closed 1=half-open 2=open",
        )
        self._state_gauge.set(_STATE_GAUGE[self._state])

    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        return self._state

    @property
    def failure_rate(self) -> float:
        """Failure fraction of the recorded window (0.0 when empty)."""
        outcomes = tuple(self._outcomes)
        if not outcomes:
            return 0.0
        return 1.0 - sum(outcomes) / len(outcomes)

    def _transition(self, state: str) -> None:
        # Caller holds self._lock.
        if state == self._state:
            return
        self._state = state
        self._state_gauge.set(_STATE_GAUGE[state])
        if state == STATE_OPEN:
            self._opened_at = self._clock()
            self._opened.inc()
        elif state == STATE_HALF_OPEN:
            self._half_opened.inc()
        else:
            self._outcomes.clear()
            self._closed.inc()

    def allow(self) -> bool:
        """May the protected path be attempted right now?"""
        with self._lock:
            if self._state == STATE_OPEN:
                if self._clock() - self._opened_at >= self.reset_timeout_s:
                    self._transition(STATE_HALF_OPEN)
                    return True
                return False
            return True

    def record_success(self) -> None:
        with self._lock:
            if self._state == STATE_HALF_OPEN:
                self._transition(STATE_CLOSED)
            elif self._state == STATE_CLOSED:
                self._outcomes.append(True)

    def record_failure(self) -> None:
        with self._lock:
            if self._state == STATE_HALF_OPEN:
                self._transition(STATE_OPEN)
            elif self._state == STATE_CLOSED:
                self._outcomes.append(False)
                if (len(self._outcomes) >= self.min_calls
                        and self.failure_rate >= self.failure_threshold):
                    self._transition(STATE_OPEN)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]  # process-local; recreated on restore
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


class CostFallback:
    """The degradation tier: the optimizer's own cost estimate as latency.

    Returns ``exp(z)`` milliseconds where ``z`` is the plan root's
    ``est_cost`` robust-scaled back into the log-latency space the model
    predicts in — ``(log1p(cost) - center) / scale`` using the cost column
    of the encoder's fitted :class:`~repro.featurize.encoder.RobustScaler`
    when one is available, raw ``log1p(cost)`` otherwise.  Always finite,
    always positive, needs nothing but the plan itself.
    """

    def __init__(self, scaler=None) -> None:
        self._scaler = scaler

    def _log_latency(self, costs: np.ndarray) -> np.ndarray:
        logged = np.log1p(np.maximum(costs, 0.0))
        scaler = self._scaler
        if scaler is not None and getattr(scaler, "center_", None) is not None:
            # Scaler columns are [cardinality, cost]: take the cost column.
            logged = (logged - scaler.center_[-1]) / scaler.scale_[-1]
        return np.clip(logged, -_LOG_LATENCY_CLIP, _LOG_LATENCY_CLIP)

    def predict_plans(self, plans: Sequence[PlanNode]) -> np.ndarray:
        costs = np.array([plan.est_cost for plan in plans], dtype=np.float64)
        return np.exp(self._log_latency(costs))

    def predict_caught(self, caught) -> np.ndarray:
        """``predict_plans`` for already-caught plans.

        ``est_costs`` is pre-order DFS, so index 0 is the plan root —
        the same cost ``predict_plans`` reads off ``plan.est_cost``.
        """
        costs = np.array(
            [plan.est_costs[0] for plan in caught], dtype=np.float64
        )
        return np.exp(self._log_latency(costs))

    def predict_plan(self, plan: PlanNode) -> float:
        return float(self.predict_plans([plan])[0])

    def predict(self, dataset) -> np.ndarray:
        return self.predict_plans([sample.plan for sample in dataset])


class ResilientEstimator:
    """Estimator-protocol wrapper that degrades instead of raising.

    Request flow for one batch of plans::

        breaker.allow()? ── no ──► fallback (degraded, flagged)
              │ yes
              ▼
        attempt inner.predict_plans  ── valid ──► return (breaker success)
              │ raise / NaN / bad shape
              ▼
        retries left and deadline allows?
              │ yes: backoff (exp + deterministic jitter), try again
              │ no
              ▼
        fallback (degraded, flagged)

    ``clock``/``sleep`` are injectable; with the defaults this really
    backs off, with fakes a test steps through every tier instantly.
    The wrapper never lets an inner exception escape — the worst case is
    an optimizer-cost answer flagged in ``last_degraded``.
    """

    def __init__(
        self,
        estimator,
        fallback=None,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        backoff_multiplier: float = 2.0,
        jitter: float = 0.1,
        deadline_s: Optional[float] = None,
        breaker: Optional[CircuitBreaker] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
        sleep=time.sleep,
        seed: int = 0,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        self.estimator = estimator
        self.fallback = fallback if fallback is not None else CostFallback()
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.backoff_multiplier = backoff_multiplier
        self.jitter = jitter
        self.deadline_s = deadline_s
        self._clock = clock
        self._sleep = sleep
        # numpy Generators are not thread-safe; the jitter draw is the
        # only mutable state on the retry path, so give it its own lock.
        self._rng = np.random.default_rng(seed)
        self._rng_lock = threading.Lock()
        # Share the wrapped estimator's registry when it has one: one
        # report covers the whole serving stack.
        if metrics is None:
            metrics = getattr(estimator, "metrics", None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            clock=clock, metrics=self.metrics
        )
        self._requests = self.metrics.counter(
            "resilience.requests", help="prediction requests handled"
        )
        self._attempts = self.metrics.counter(
            "resilience.attempts", help="learned-path attempts made"
        )
        self._retries = self.metrics.counter(
            "resilience.retries", help="learned-path retries taken"
        )
        self._failures = self.metrics.counter(
            "resilience.failures", help="failed learned-path attempts"
        )
        self._degraded = self.metrics.counter(
            "resilience.degraded", help="predictions served by the fallback"
        )
        self._predictions = self.metrics.counter(
            "resilience.predictions", help="predictions served in total"
        )
        self._short_circuits = self.metrics.counter(
            "resilience.breaker.short_circuits",
            help="requests sent straight to fallback by an open breaker",
        )
        self._deadline_exceeded = self.metrics.counter(
            "resilience.deadline_exceeded",
            help="requests whose retry budget was cut by the deadline",
        )
        self._retry_latency = self.metrics.histogram(
            "resilience.retry_latency_seconds",
            help="resolution time of requests that needed a retry",
        )
        self._last_degraded = np.zeros(0, dtype=bool)

    # ------------------------------------------------------------------ #
    @property
    def last_degraded(self) -> np.ndarray:
        """Per-prediction degradation flags from the most recent call."""
        return self._last_degraded.copy()

    @property
    def degraded_fraction(self) -> float:
        """Lifetime fraction of predictions served by the fallback tier."""
        total = self._predictions.value
        return self._degraded.value / total if total else 0.0

    def __getattr__(self, name):
        # Pass anything outside the resilience surface (cache_stats,
        # invalidate, ...) through to the wrapped estimator.  Guard the
        # delegate itself: during unpickling ``estimator`` is absent from
        # __dict__ and plain delegation would recurse forever.
        if name == "estimator":
            raise AttributeError(name)
        return getattr(self.estimator, name)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_rng_lock"]  # process-local; recreated on restore
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._rng_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _validated(self, values, count: int) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (count,):
            raise PredictionError(
                f"expected shape ({count},), got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            bad = int(np.count_nonzero(~np.isfinite(values)))
            raise PredictionError(f"{bad} non-finite prediction(s)")
        return values

    def _backoff_delay(self, retry_index: int) -> float:
        """Exponential backoff with deterministic (seeded-RNG) jitter."""
        base = self.backoff_s * self.backoff_multiplier ** retry_index
        with self._rng_lock:
            draw = float(self._rng.random())
        return base * (1.0 + self.jitter * draw)

    def _degrade(self, fallback_call, count: int) -> Tuple[np.ndarray, np.ndarray]:
        values = np.asarray(fallback_call(), dtype=np.float64)
        self._degraded.inc(count)
        self._predictions.inc(count)
        flags = np.ones(count, dtype=bool)
        self._last_degraded = flags
        return values, flags.copy()

    def _tiered(
        self, count: int, attempt_call, fallback_call
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The three-tier request path over abstract attempt/fallback calls.

        ``attempt_call`` runs the learned path (validated per attempt);
        ``fallback_call`` produces the degraded answer.  Both close over
        the same batch, so every entry point — plain plans or pre-caught
        plans — goes through the identical retry/breaker/degrade logic.
        """
        self._requests.inc()
        if not count:
            self._last_degraded = np.zeros(0, dtype=bool)
            return np.zeros(0, dtype=np.float64), self._last_degraded.copy()
        start = self._clock()
        retried = False
        for attempt in range(1 + self.max_retries):
            if attempt:
                delay = self._backoff_delay(attempt - 1)
                if (self.deadline_s is not None
                        and (self._clock() - start) + delay > self.deadline_s):
                    self._deadline_exceeded.inc()
                    break
                self._retries.inc()
                retried = True
                self._sleep(delay)
            if not self.breaker.allow():
                self._short_circuits.inc()
                break
            self._attempts.inc()
            try:
                values = self._validated(attempt_call(), count)
            except Exception:
                self._failures.inc()
                self.breaker.record_failure()
                continue
            self.breaker.record_success()
            if retried:
                self._retry_latency.observe(self._clock() - start)
            self._predictions.inc(count)
            self._last_degraded = np.zeros(count, dtype=bool)
            return values, self._last_degraded.copy()
        if retried:
            self._retry_latency.observe(self._clock() - start)
        return self._degrade(fallback_call, count)

    def predict_plans_detailed(
        self, plans: Sequence[PlanNode]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(latencies_ms, degraded_flags)`` for a batch of plans.

        Never raises on inner-estimator failure: after the retry budget,
        the deadline, or an open breaker, the whole batch resolves from
        the fallback tier with every flag set.
        """
        plans = list(plans)
        return self._tiered(
            len(plans),
            lambda: self.estimator.predict_plans(plans),
            lambda: self.fallback.predict_plans(plans),
        )

    def predict_caught(self, caught) -> np.ndarray:
        """``predict_plans`` for already-caught plans, same three tiers.

        Defined on the class (not via ``__getattr__`` delegation) so
        front-ends probing for the caught fast path — the concurrent
        pool checks the MRO — route it through retry, breaker, and
        fallback instead of reaching the wrapped estimator directly.
        An inner estimator without ``predict_caught`` surfaces as an
        ``AttributeError`` on the learned path and degrades like any
        other failure.
        """
        caught = list(caught)
        fallback_caught = getattr(self.fallback, "predict_caught", None)
        if fallback_caught is not None:
            def degrade():
                return fallback_caught(caught)
        else:
            # Custom fallback tiers predate the caught path: a caught
            # plan keeps its root PlanNode at nodes[0], so hand those
            # back rather than fail the tier of last resort.
            def degrade():
                return self.fallback.predict_plans(
                    [plan.nodes[0] for plan in caught]
                )
        values, _ = self._tiered(
            len(caught),
            lambda: self.estimator.predict_caught(caught),
            degrade,
        )
        return values

    # ------------------------------------------------------------------ #
    # Estimator protocol
    # ------------------------------------------------------------------ #
    def predict_plan(self, plan: PlanNode) -> float:
        values, _ = self.predict_plans_detailed([plan])
        return float(values[0])

    def predict_plans(self, plans: Sequence[PlanNode]) -> np.ndarray:
        values, _ = self.predict_plans_detailed(plans)
        return values

    def predict(self, dataset) -> np.ndarray:
        plans: List[PlanNode] = [sample.plan for sample in dataset]
        values, _ = self.predict_plans_detailed(plans)
        return values
