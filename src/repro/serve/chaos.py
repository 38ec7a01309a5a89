"""Fault injection for the serving stack: chaos testing as a first-class tool.

:class:`ChaosEstimator` wraps a real estimator and injects three fault
classes from a **seeded** RNG:

- **errors** — raise :class:`InjectedFault` instead of answering;
- **NaN outputs** — corrupt one entry of an otherwise-valid answer
  (the poison a validation tier must catch, not an exception);
- **latency spikes** — sleep ``latency_s`` before answering (``sleep``
  is injectable, so tests spike latency without wall-clock cost).

Determinism is the point: the same seed over the same call sequence
injects the same faults, so chaos runs are replayable and assertions
about them are exact.  With every rate at 0.0 the wrapper is a
bit-identical passthrough; with a rate at 1.0 it faults every call.

Used by ``tests/serve/test_resilience.py``, the ``python -m repro serve
--chaos RATE`` replay mode, and the ``bench chaos`` smoke job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.engine.plan import PlanNode

__all__ = ["ChaosConfig", "ChaosEstimator", "InjectedFault"]


class InjectedFault(RuntimeError):
    """The failure chaos wrappers raise; never produced by real code."""


@dataclass(frozen=True)
class ChaosConfig:
    """Per-call fault probabilities (one category drawn per call)."""

    error_rate: float = 0.0
    nan_rate: float = 0.0
    latency_rate: float = 0.0
    latency_s: float = 0.005
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("error_rate", "nan_rate", "latency_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.error_rate + self.nan_rate + self.latency_rate > 1.0 + 1e-12:
            raise ValueError("fault rates must sum to at most 1.0")
        if self.latency_s < 0:
            raise ValueError(f"latency_s must be >= 0, got {self.latency_s}")

    @property
    def fault_rate(self) -> float:
        return self.error_rate + self.nan_rate + self.latency_rate

    @classmethod
    def with_fault_rate(cls, rate: float, seed: int = 0,
                        latency_s: float = 0.005) -> "ChaosConfig":
        """Split one total fault rate into the canonical 50/25/25 mix."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        return cls(
            error_rate=rate / 2.0,
            nan_rate=rate / 4.0,
            latency_rate=rate / 4.0,
            latency_s=latency_s,
            seed=seed,
        )


class ChaosEstimator:
    """Estimator-protocol wrapper that injects faults from a seeded RNG.

    One fault category is drawn per *call* (not per plan): an injected
    error raises before the inner estimator runs, a latency spike sleeps
    first, and a NaN fault corrupts one random entry of the inner answer.
    """

    def __init__(self, inner, config: Optional[ChaosConfig] = None,
                 sleep=time.sleep) -> None:
        self._inner = inner
        self.config = config if config is not None else ChaosConfig()
        self._sleep = sleep
        self._rng = np.random.default_rng(self.config.seed)
        self.injected = {"error": 0, "nan": 0, "latency": 0}

    def _roll(self) -> Optional[str]:
        """Draw the fault category for one call (None = healthy)."""
        config = self.config
        if config.fault_rate == 0.0:
            # Still consume one draw so the fault schedule is a function
            # of the call sequence alone, not of the configured rates.
            self._rng.random()
            return None
        u = float(self._rng.random())
        if u < config.error_rate:
            kind = "error"
        elif u < config.error_rate + config.nan_rate:
            kind = "nan"
        elif u < config.fault_rate:
            kind = "latency"
        else:
            return None
        self.injected[kind] += 1
        return kind

    def _fire(self, kind: Optional[str]) -> None:
        """Apply a pre-output fault (error raise or latency spike)."""
        if kind == "error":
            raise InjectedFault("injected fault")
        if kind == "latency":
            self._sleep(self.config.latency_s)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    @classmethod
    def with_fault_rate(cls, estimator, rate: float, seed: int = 0,
                        latency_s: float = 0.005,
                        sleep=time.sleep) -> "ChaosEstimator":
        return cls(
            estimator,
            ChaosConfig.with_fault_rate(rate, seed=seed, latency_s=latency_s),
            sleep=sleep,
        )

    @property
    def estimator(self):
        return self._inner

    def _corrupt(self, values: np.ndarray) -> np.ndarray:
        values = np.array(values, dtype=np.float64)  # never poison a cache
        if values.size:
            index = int(self._rng.integers(values.size))
            values.flat[index] = np.nan
        return values

    def predict_plan(self, plan: PlanNode) -> float:
        kind = self._roll()
        self._fire(kind)
        value = float(self._inner.predict_plan(plan))
        return float("nan") if kind == "nan" else value

    def predict_plans(self, plans: Sequence[PlanNode]) -> np.ndarray:
        kind = self._roll()
        self._fire(kind)
        values = self._inner.predict_plans(plans)
        return self._corrupt(values) if kind == "nan" else values

    def predict_caught(self, caught) -> np.ndarray:
        """Faulted ``predict_caught``: defined on the class so the caught
        fast path (probed via the MRO) cannot slip past injection through
        plain ``__getattr__`` delegation."""
        kind = self._roll()
        self._fire(kind)
        values = self._inner.predict_caught(caught)
        return self._corrupt(values) if kind == "nan" else values

    def predict(self, dataset) -> np.ndarray:
        kind = self._roll()
        self._fire(kind)
        values = self._inner.predict(dataset)
        return self._corrupt(values) if kind == "nan" else values

