"""A PostgreSQL-like DBMS engine substrate.

Provides everything DACE consumes from a real DBMS:

- a cost-based query planner with PG-style cost constants and operators
  (:mod:`repro.engine.planner`, :mod:`repro.engine.cost_model`),
- the optimizer's *approximate* cardinality estimator whose systematic
  errors form the EDQO (:mod:`repro.engine.cardinality`),
- exact true cardinalities computed on the generated data
  (:mod:`repro.engine.true_card`),
- a simulated executor that turns true cardinalities plus a machine profile
  into per-node actual latencies, i.e. EXPLAIN ANALYZE labels
  (:mod:`repro.engine.executor`, :mod:`repro.engine.machines`).
"""

from repro.engine.plan import NODE_TYPES, PlanNode, explain
from repro.engine.diagnostics import (
    NodeDiagnostic,
    diagnose_plan,
    error_by_node_type,
)
from repro.engine.cost_model import CostModel, PostgresCostConstants
from repro.engine.cardinality import CardinalityEstimator
from repro.engine.true_card import TrueCardinalityCalculator
from repro.engine.planner import Planner
from repro.engine.machines import M1, M2, MachineProfile
from repro.engine.executor import SimulatedExecutor
from repro.engine.session import EngineSession

__all__ = [
    "NODE_TYPES",
    "PlanNode",
    "explain",
    "NodeDiagnostic",
    "diagnose_plan",
    "error_by_node_type",
    "PostgresCostConstants",
    "CostModel",
    "CardinalityEstimator",
    "TrueCardinalityCalculator",
    "Planner",
    "MachineProfile",
    "M1",
    "M2",
    "SimulatedExecutor",
    "EngineSession",
]
