"""The ``Estimator`` protocol: the one interface consumers depend on.

Apps, benchmarks, and the CLI accept *any* object speaking this protocol —
a fitted :class:`~repro.core.estimator.DACE`, an
:class:`~repro.serve.service.EstimatorService`, a
:class:`~repro.serve.concurrent.ConcurrentEstimatorService`, an ensemble,
or a hand-rolled stub in tests.  Two adapter helpers keep older call sites working: plain
``plan -> ms`` callables and precomputed prediction arrays both normalize
onto the protocol.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.engine.plan import PlanNode

PlanScorer = Callable[[PlanNode], float]


@runtime_checkable
class Estimator(Protocol):
    """Anything that prices query plans in milliseconds."""

    def predict_plan(self, plan: PlanNode) -> float:
        """Predicted latency (ms) for one plan."""
        ...

    def predict_plans(self, plans: Sequence[PlanNode]) -> np.ndarray:
        """Predicted latency (ms) per plan, batched."""
        ...

    def predict(self, dataset) -> np.ndarray:
        """Predicted latency (ms) per plan of a :class:`PlanDataset`."""
        ...


def as_plan_scorers(
    scorer,
) -> Tuple[PlanScorer, Optional[Callable[[Sequence[PlanNode]], np.ndarray]]]:
    """Normalize a scorer argument to ``(per_plan, batch_or_None)``.

    Accepts a plain ``plan -> float`` callable (no batch path) or any
    object with ``predict_plan`` — in which case a ``predict_plans`` batch
    method, when present, is surfaced so callers can coalesce scoring
    loops into batched inference.
    """
    if callable(scorer) and not hasattr(scorer, "predict_plan"):
        return scorer, None
    if hasattr(scorer, "predict_plan"):
        return scorer.predict_plan, getattr(scorer, "predict_plans", None)
    raise TypeError("scorer must be callable or have predict_plan")


def resolve_predictions(source, dataset) -> np.ndarray:
    """Per-plan predicted latencies for ``dataset`` from either form.

    ``source`` may be a precomputed array-like of milliseconds (the
    historical calling convention) or any :class:`Estimator`, in which
    case predictions are computed here — batched and cached by the
    estimator's own serving path.
    """
    if hasattr(source, "predict") and not isinstance(source, np.ndarray):
        return np.asarray(source.predict(dataset), dtype=np.float64)
    return np.asarray(source, dtype=np.float64)
