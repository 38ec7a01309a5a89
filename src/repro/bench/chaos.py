"""Fault injection, and the chaos smoke of the resilience tier.

:class:`ChaosEstimator` wraps a serving tier and injects three fault
classes from a **seeded** RNG into its ``predict_caught``:

- **errors** — raise :class:`InjectedFault` instead of answering;
- **NaN outputs** — corrupt one entry of an otherwise-valid answer
  (the poison a validation tier must catch, not an exception);
- **latency spikes** — sleep ``latency_s`` before answering (``sleep``
  is injectable, so tests spike latency without wall-clock cost).

Determinism is the point: the same seed over the same call sequence
injects the same faults, so chaos runs are replayable and assertions
about them are exact.  With every rate at 0.0 the wrapper is a
bit-identical passthrough; with a rate at 1.0 it faults every call.
It is used by this module's ``chaos`` cell, ``python -m repro serve
--chaos RATE`` and the serving tests.

The ``chaos`` cell replays a tiled workload one plan at a time through
``ChaosEstimator`` → ``ResilientEstimator`` and checks the serving
contract the resilience layer promises:

- **zero unhandled exceptions** reach the caller at any fault rate;
- **every prediction is finite**;
- the **degraded fraction** is reported through :mod:`repro.obs`;
- at fault rate 0.0 the wrapped path is **bit-identical** to the bare
  ``EstimatorService``.

CI runs this cell at its default 10% faults and gates it with
``repro exp check chaos``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.bench.cache import get_workload1, pretrain_dace
from repro.bench.config import DEFAULT, BenchScale
from repro.experiments.registry import cell
from repro.metrics.tables import format_table
from repro.obs import MetricsRegistry
from repro.serve import CostFallback, ResilientEstimator


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
    """A serving tier that injects faults into ``predict_caught``.

    One fault category is drawn per *call* (not per plan): an injected
    error raises before the inner tier runs, a latency spike sleeps
    first, and a NaN fault corrupts one random entry of the inner answer.
    """

    def __init__(self, inner, config: Optional[ChaosConfig] = None,
                 sleep=time.sleep) -> None:
        self._inner = inner
        self.config = config if config is not None else ChaosConfig()
        self._sleep = sleep
        self._rng = np.random.default_rng(self.config.seed)
        self.injected = {"error": 0, "nan": 0, "latency": 0}

    @classmethod
    def with_fault_rate(cls, estimator, rate: float, seed: int = 0,
                        latency_s: float = 0.005,
                        sleep=time.sleep) -> "ChaosEstimator":
        return cls(
            estimator,
            ChaosConfig.with_fault_rate(rate, seed=seed, latency_s=latency_s),
            sleep=sleep,
        )

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

    def predict_caught(self, caught) -> np.ndarray:
        kind = self._roll()
        if kind == "error":
            raise InjectedFault("injected fault")
        if kind == "latency":
            self._sleep(self.config.latency_s)
        values = self._inner.predict_caught(caught)
        if kind != "nan":
            return values
        values = np.array(values, dtype=np.float64)  # never poison a cache
        if values.size:
            values.flat[int(self._rng.integers(values.size))] = np.nan
        return values


def _replay(resilient: ResilientEstimator, plans) -> tuple:
    """Serve every plan one-by-one; count exceptions instead of raising."""
    values: List[float] = []
    unhandled = 0
    for plan in plans:
        try:
            values.append(resilient.predict_plan(plan))
        except Exception:
            unhandled += 1
            values.append(float("nan"))
    return np.asarray(values, dtype=np.float64), unhandled


# With faults injected the replay finishes with zero unhandled exceptions
# and only finite predictions, the wrapper is bit-transparent at 0%
# faults, and faults actually fired: some predictions came from the
# fallback (a 0% cell has none to fire).
@cell("chaos", checks={
    "unhandled": lambda r, c: r["unhandled"] == 0,
    "finite_fraction": lambda r, c: r["finite_fraction"] == 1.0,
    "identical_at_zero": lambda r, c: r["identical_at_zero"],
    "degraded_fraction": lambda r, c: (r["degraded_fraction"] > 0.0
                                       or r["fault_rate"] == 0.0),
})
def chaos_resilience(scale: BenchScale = DEFAULT,
                     fault_rate: float = 0.1,
                     n_plans: int = 500) -> dict:
    """Fault-injected replay vs the clean path; see module docstring."""
    dace = pretrain_dace(scale, exclude="imdb")
    base = [sample.plan for sample in get_workload1(scale)["imdb"]]
    plans = [base[i % len(base)] for i in range(n_plans)]
    clean = dace.service.predict_plans(plans)

    rows = []
    results = {}
    for rate in (0.0, fault_rate):
        metrics = MetricsRegistry()
        resilient = ResilientEstimator(
            ChaosEstimator.with_fault_rate(
                dace.service, rate, seed=scale.seed, sleep=lambda _s: None
            ),
            fallback=CostFallback(dace.encoder.scaler),
            metrics=metrics,
        )
        values, unhandled = _replay(resilient, plans)
        finite = float(np.mean(np.isfinite(values)))
        degraded = metrics.counter("resilience.degraded").value
        identical = bool(np.array_equal(values, clean))
        rows.append([
            f"{rate:.0%}", n_plans, unhandled, f"{finite:.1%}",
            f"{degraded / n_plans:.1%}", "yes" if identical else "no",
        ])
        results[rate] = {
            "unhandled": unhandled,
            "finite_fraction": finite,
            "degraded_fraction": degraded / n_plans,
            "identical_to_clean": identical,
        }
    table = format_table(
        ["fault rate", "plans", "unhandled", "finite", "degraded",
         "== clean"],
        rows,
        title=f"chaos replay ({scale.name} scale)",
    )
    return {
        "table": table,
        "fault_rate": fault_rate,
        "clean": results[0.0],
        "chaos": results[fault_rate],
        "unhandled": results[fault_rate]["unhandled"],
        "finite_fraction": results[fault_rate]["finite_fraction"],
        "degraded_fraction": results[fault_rate]["degraded_fraction"],
        "identical_at_zero": results[0.0]["identical_to_clean"],
    }
