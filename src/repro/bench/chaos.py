"""Chaos smoke: the resilience tier under injected faults, end to end.

Replays a tiled workload one plan at a time through ``ChaosEstimator``
→ ``ResilientEstimator`` and checks the serving contract the resilience
layer promises:

- **zero unhandled exceptions** reach the caller at any fault rate;
- **every prediction is finite**;
- the **degraded fraction** is reported through :mod:`repro.obs`;
- at fault rate 0.0 the wrapped path is **bit-identical** to the bare
  ``EstimatorService``.

``benchmarks/bench_chaos_resilience.py`` runs this in CI at 10% faults.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.bench.cache import get_workload1, pretrain_dace
from repro.bench.config import DEFAULT, BenchScale
from repro.experiments.registry import cell
from repro.metrics.tables import format_table
from repro.obs import MetricsRegistry
from repro.serve import ChaosEstimator, CostFallback, ResilientEstimator


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


@cell("chaos")
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
