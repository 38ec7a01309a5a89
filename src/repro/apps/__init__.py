"""Downstream applications of cost estimation (paper Sec. I).

The paper motivates cost estimation with two applications:

- **query optimization** — choosing among candidate execution plans
  (:mod:`repro.apps.plan_selection`, Bao/Leon-style plan steering), and
- **resource allocation / scheduling** — ordering a workload by predicted
  latency (:mod:`repro.apps.scheduling`, Auto-WLM-style).

Both consume any model exposing ``predict_plan``/``predict_ms`` — DACE, a
baseline, or the raw corrected optimizer cost — so the benefit of a better
estimator can be measured end to end.
"""

from repro.apps.plan_selection import PlanSelectionResult, PlanSelector
from repro.apps.scheduling import ScheduleResult, WorkloadScheduler

__all__ = [
    "PlanSelector",
    "PlanSelectionResult",
    "WorkloadScheduler",
    "ScheduleResult",
]
