"""Learned plan selection: re-rank the optimizer's candidate plans.

The classic "plan steering" application (Bao [17], Leon [1]): the native
optimizer enumerates its top-k candidate plans (beam DP); a cost model
re-ranks them by predicted latency and the winner is executed.  A better
cost estimator translates directly into lower end-to-end latency, which is
the practical payoff the paper's introduction promises.

``PlanSelector`` works with any estimator exposing ``predict_plan`` (DACE)
or a callable; ``evaluate_workload`` quantifies the speedup over the
optimizer's own choice and the remaining gap to the oracle (the truly
fastest candidate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Union

import numpy as np

from repro.engine.plan import PlanNode
from repro.engine.session import EngineSession
from repro.serve.estimator import as_plan_scorers
from repro.sql.query import Query

PlanScorer = Callable[[PlanNode], float]


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
        scorer: Union[PlanScorer, "object"],
        candidates: int = 6,
    ) -> None:
        """``scorer`` is either a callable plan -> predicted ms, or any
        Estimator (an object with ``predict_plan``, e.g. a fitted DACE or
        an :class:`~repro.serve.service.EstimatorService`).  Estimators
        that also expose ``predict_plans`` get their candidates scored in
        one batched call."""
        if candidates < 2:
            raise ValueError("plan selection needs at least 2 candidates")
        self.session = session
        self._score, self._score_batch = as_plan_scorers(scorer)
        self.candidates = candidates

    def _scores(self, plans: Sequence[PlanNode]) -> np.ndarray:
        if self._score_batch is not None:
            return np.asarray(self._score_batch(plans), dtype=np.float64)
        return np.array([self._score(plan) for plan in plans])

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


def optimizer_cost_scorer(session: EngineSession) -> PlanScorer:
    """Baseline scorer: the optimizer's own estimated cost (cheapest-cost
    selection — always picks candidate 0, the native behaviour)."""

    def score(plan: PlanNode) -> float:
        return plan.est_cost

    return score
