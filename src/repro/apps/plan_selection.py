"""Learned plan selection: re-rank the optimizer's candidate plans.

The classic "plan steering" application (Bao [17], Leon [1]): the native
optimizer enumerates its top-k candidate plans (beam DP); a cost model
re-ranks them by predicted latency and the winner is executed.  A better
cost estimator translates directly into lower end-to-end latency, which is
the practical payoff the paper's introduction promises.

``PlanSelector`` works with any estimator exposing ``predict_plans`` (a
fitted DACE, a serving tier); ``evaluate_workload`` quantifies the
speedup over the optimizer's own choice and the remaining gap to the
oracle (the truly fastest candidate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.engine.plan import PlanNode
from repro.engine.session import EngineSession
from repro.sql.query import Query


@dataclass
class PlanSelectionResult:
    """Aggregate outcome of selecting plans over a workload."""

    native_latency_ms: float      # always executing the optimizer's choice
    selected_latency_ms: float    # executing the model's choice
    oracle_latency_ms: float      # executing the best candidate (hindsight)
    queries: int
    changed_plans: int            # how often the model overrode the optimizer
    regressions: int              # overrides that ended up slower
    per_query: List[dict] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Total-latency speedup of model selection over the optimizer."""
        return self.native_latency_ms / max(self.selected_latency_ms, 1e-12)

    @property
    def oracle_gap(self) -> float:
        """How far the model's choices are from hindsight-optimal (>= 1)."""
        return self.selected_latency_ms / max(self.oracle_latency_ms, 1e-12)


class PlanSelector:
    """Chooses among candidate plans with a learned cost model."""

    def __init__(
        self,
        session: EngineSession,
        scorer,
        candidates: int = 6,
    ) -> None:
        """``scorer`` is any object with ``predict_plans`` (plans ->
        predicted ms, e.g. a fitted DACE or an
        :class:`~repro.serve.service.EstimatorService`); each query's
        candidates are scored in one batched call."""
        if candidates < 2:
            raise ValueError("plan selection needs at least 2 candidates")
        if not hasattr(scorer, "predict_plans"):
            raise TypeError("scorer must have predict_plans")
        self.session = session
        self.scorer = scorer
        self.candidates = candidates

    def _scores(self, plans: Sequence[PlanNode]) -> np.ndarray:
        return np.asarray(self.scorer.predict_plans(plans), dtype=np.float64)

    # ------------------------------------------------------------------ #
    def select(self, query: Query) -> PlanNode:
        """The candidate plan with the lowest predicted latency."""
        plans = self.session.planner.candidate_plans(query, k=self.candidates)
        return plans[int(np.argmin(self._scores(plans)))]

    def evaluate_workload(
        self, queries: Sequence[Query]
    ) -> PlanSelectionResult:
        """Execute native choice, model choice, and oracle per query."""
        executor = self.session.executor
        native_total = selected_total = oracle_total = 0.0
        changed = regressions = 0
        per_query: List[dict] = []
        for query in queries:
            plans = self.session.planner.candidate_plans(
                query, k=self.candidates
            )
            latencies = [
                executor.execute(plan, query).actual_time_ms
                for plan in plans
            ]
            scores = self._scores(plans)
            native = latencies[0]          # candidate 0 = optimizer's pick
            chosen = int(np.argmin(scores))
            selected = latencies[chosen]
            oracle = min(latencies)
            native_total += native
            selected_total += selected
            oracle_total += oracle
            if chosen != 0:
                changed += 1
                if selected > native * 1.001:
                    regressions += 1
            per_query.append({
                "native_ms": native,
                "selected_ms": selected,
                "oracle_ms": oracle,
                "chosen_index": chosen,
                "candidates": len(plans),
            })
        return PlanSelectionResult(
            native_latency_ms=native_total,
            selected_latency_ms=selected_total,
            oracle_latency_ms=oracle_total,
            queries=len(per_query),
            changed_plans=changed,
            regressions=regressions,
            per_query=per_query,
        )

