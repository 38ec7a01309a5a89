"""Fault-tolerant serving: one boundary, then the optimizer-cost fallback.

DACE's job is correcting the optimizer's estimated cost, which hands the
serving path a natural graceful-degradation target: when the learned path
fails, the raw DBMS cost estimate is still a usable answer (FasCo shows
the plan-derived signal alone is a workable cheap estimator).
:class:`ResilientEstimator` wraps any object whose class defines
``predict_caught`` behind that insight with one boundary per request:

- the wrapped estimator's ``predict_caught`` is called **once** (plans
  handed in uncaught are caught inside the boundary first);
- if it raises or answers with the wrong shape, the whole batch is
  answered by :class:`CostFallback` (the plan's own optimizer-estimated
  cost, robust-scaled back to log-latency space);
- otherwise only the entries that are not finite are answered by the
  fallback; healthy batch-mates keep their learned values bit for bit.

Nothing is retried: the forward is in-process numpy with no transient
failure source, so a plan that fails once fails the same way again.
Fallback answers are flagged per prediction (``last_degraded``) and
counted (``resilience.degraded``) through :mod:`repro.obs`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.engine.plan import PlanNode
from repro.featurize.catcher import catch_plan
from repro.obs import MetricsRegistry

__all__ = ["CostFallback", "ResilientEstimator"]

# exp() guard for the fallback tier: a pathological optimizer cost must
# still produce a finite latency.
_LOG_LATENCY_CLIP = 50.0


class CostFallback:
    """The degradation tier: the optimizer's own cost estimate as latency.

    Returns ``exp(z)`` milliseconds where ``z`` is the plan root's
    ``est_cost`` robust-scaled back into the log-latency space the model
    predicts in — ``(log1p(cost) - center) / scale`` using the cost column
    of the encoder's fitted :class:`~repro.featurize.encoder.RobustScaler`
    when one is available, raw ``log1p(cost)`` otherwise.  A negative or
    NaN cost counts as 0.  Always finite, always positive, needs nothing
    but the plan itself.
    """

    def __init__(self, scaler=None) -> None:
        self._scaler = scaler

    def _log_latency(self, costs: np.ndarray) -> np.ndarray:
        # fmax, not maximum: fmax(nan, 0) is 0, maximum(nan, 0) is nan.
        logged = np.log1p(np.fmax(costs, 0.0))
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
    """A serving tier that degrades instead of raising.

    ``fallback`` defaults to an unscaled :class:`CostFallback`; a custom
    one needs ``predict_plans`` and ``predict_caught``.  The wrapper
    never lets an inner exception escape — the worst case is an
    optimizer-cost answer flagged in ``last_degraded``.  The wrapped
    tier is ``.estimator``; nothing else is passed through to it.
    """

    def __init__(
        self,
        estimator,
        fallback=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.estimator = estimator
        self.fallback = fallback if fallback is not None else CostFallback()
        # Share the wrapped estimator's registry when it has one: one
        # report covers the whole serving stack.
        if metrics is None:
            metrics = getattr(estimator, "metrics", None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._requests = self.metrics.counter(
            "resilience.requests", help="prediction requests handled"
        )
        self._degraded = self.metrics.counter(
            "resilience.degraded", help="predictions served by the fallback"
        )
        self._predictions = self.metrics.counter(
            "resilience.predictions", help="predictions served in total"
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

    # ------------------------------------------------------------------ #
    def _answer(
        self, items: list, learned, fallback
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(values, degraded_flags)`` for one batch.

        ``learned`` and ``fallback`` each map a list of ``items`` to one
        value per item; ``fallback`` sees only the items it must answer.
        """
        self._requests.inc()
        count = len(items)
        if not count:
            self._last_degraded = np.zeros(0, dtype=bool)
            return np.zeros(0, dtype=np.float64), self._last_degraded.copy()
        try:
            values = np.asarray(learned(items), dtype=np.float64)
            if values.shape != (count,):
                raise ValueError(f"expected ({count},), got {values.shape}")
            flags = ~np.isfinite(values)
        except Exception:
            values = np.empty(count, dtype=np.float64)
            flags = np.ones(count, dtype=bool)
        if flags.any():
            # Copy before patching: the learned answer may be a cached,
            # read-only array.
            values = values.copy()
            bad = np.flatnonzero(flags)
            values[bad] = fallback([items[index] for index in bad])
            self._degraded.inc(len(bad))
        self._predictions.inc(count)
        self._last_degraded = flags
        return values, flags.copy()

    def predict_plans_detailed(
        self, plans: Sequence[PlanNode]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(latencies_ms, degraded_flags)`` for a batch of plans.

        The plans are caught inside the boundary, so a plan that cannot
        be caught degrades the batch like any other learned-path failure.
        Never raises on inner-estimator failure: a raise or a wrongly
        shaped answer degrades the whole batch, a non-finite entry
        degrades its own plan only.
        """
        return self._answer(
            list(plans),
            lambda items: self.estimator.predict_caught(
                [catch_plan(plan) for plan in items]),
            self.fallback.predict_plans,
        )

    def predict_caught(self, caught) -> np.ndarray:
        """``predict_plans`` for already-caught plans, same boundary."""
        values, _ = self._answer(
            list(caught),
            lambda items: self.estimator.predict_caught(items),
            self.fallback.predict_caught,
        )
        return values

    # ------------------------------------------------------------------ #
    def predict_plan(self, plan: PlanNode) -> float:
        return float(self.predict_plans([plan])[0])

    def predict_plans(self, plans: Sequence[PlanNode]) -> np.ndarray:
        values, _ = self.predict_plans_detailed(plans)
        return values

    def predict(self, dataset) -> np.ndarray:
        return self.predict_plans([sample.plan for sample in dataset])
