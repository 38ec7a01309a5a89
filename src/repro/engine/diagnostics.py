"""Plan diagnostics: locate where estimates diverge from reality.

Tooling in the spirit of PostgreSQL plan-analysis utilities: per-node
comparison of estimated vs actual rows and (optionally) a model's per-node
latency predictions vs actual times, plus workload-level aggregation of
which operator types drive estimation error.  Useful both for debugging
the substrate and as library surface for users investigating a
mis-predicted query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.engine.plan import PlanNode
from repro.nn.losses import qerror


@dataclass(frozen=True)
class NodeDiagnostic:
    """Estimate-vs-actual for one plan node."""

    node_type: str
    table: Optional[str]
    est_rows: float
    actual_rows: float
    row_qerror: float
    est_cost: float
    actual_time_ms: float
    predicted_ms: Optional[float]
    time_qerror: Optional[float]


def diagnose_plan(
    plan: PlanNode,
    predicted_ms: Optional[Sequence[float]] = None,
) -> List[NodeDiagnostic]:
    """Per-node diagnostics in DFS order.

    ``predicted_ms`` (optional) supplies a model's per-sub-plan latency
    predictions (e.g. ``dace.predict_subplans(plan)``).
    """
    nodes = list(plan.walk_dfs())
    if predicted_ms is not None and len(predicted_ms) != len(nodes):
        raise ValueError("one prediction per plan node required")
    diagnostics: List[NodeDiagnostic] = []
    for index, node in enumerate(nodes):
        if node.actual_rows is None:
            raise ValueError("plan must be executed (EXPLAIN ANALYZE) first")
        row_q = float(qerror(
            np.array([node.est_rows]), np.array([node.actual_rows])
        )[0])
        predicted = time_q = None
        if predicted_ms is not None:
            predicted = float(predicted_ms[index])
            time_q = float(qerror(
                np.array([predicted]), np.array([node.actual_time_ms])
            )[0])
        diagnostics.append(NodeDiagnostic(
            node_type=node.node_type,
            table=node.table,
            est_rows=node.est_rows,
            actual_rows=node.actual_rows,
            row_qerror=row_q,
            est_cost=node.est_cost,
            actual_time_ms=node.actual_time_ms,
            predicted_ms=predicted,
            time_qerror=time_q,
        ))
    return diagnostics


def error_by_node_type(plans: Sequence[PlanNode]) -> Dict[str, dict]:
    """Workload-level: cardinality q-error statistics per operator type.

    Returns ``{node_type: {"count", "median_qerror", "max_qerror"}}`` —
    the standard way to find which operators the optimizer misestimates.
    """
    per_type: Dict[str, List[float]] = {}
    for plan in plans:
        for diagnostic in diagnose_plan(plan):
            per_type.setdefault(diagnostic.node_type, []).append(
                diagnostic.row_qerror
            )
    return {
        node_type: {
            "count": len(values),
            "median_qerror": float(np.median(values)),
            "max_qerror": float(np.max(values)),
        }
        for node_type, values in sorted(per_type.items())
    }
