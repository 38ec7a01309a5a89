"""Latency-aware workload scheduling (the paper's Auto-WLM motivation).

A batch of queries must be placed on ``n`` workers.  Shortest-job-first
(SJF) minimizes mean flow time — *if* the job lengths are known.  A cost
estimator supplies predicted latencies; the better the estimator, the
closer model-SJF gets to oracle-SJF, and the further it pulls ahead of
FIFO.  ``WorkloadScheduler`` simulates all three policies on the labelled
workload so estimator quality shows up as scheduling quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.workloads.dataset import PlanDataset


@dataclass(frozen=True)
class ScheduleResult:
    """Simulation outcome for one scheduling policy."""

    policy: str
    makespan_ms: float
    mean_flow_time_ms: float   # mean (completion - arrival=0) over queries
    p95_flow_time_ms: float

    def __str__(self) -> str:
        return (f"{self.policy}: makespan={self.makespan_ms:.1f}ms "
                f"mean flow={self.mean_flow_time_ms:.1f}ms "
                f"p95 flow={self.p95_flow_time_ms:.1f}ms")


def _simulate(durations: Sequence[float], order: Sequence[int],
              workers: int, policy: str) -> ScheduleResult:
    """List scheduling: each next job goes to the earliest-free worker."""
    free_at = [0.0] * workers
    completions = np.zeros(len(durations))
    for index in order:
        worker = min(range(workers), key=free_at.__getitem__)
        start = free_at[worker]
        finish = start + durations[index]
        free_at[worker] = finish
        completions[index] = finish
    return ScheduleResult(
        policy=policy,
        makespan_ms=float(max(free_at)),
        mean_flow_time_ms=float(completions.mean()),
        p95_flow_time_ms=float(np.percentile(completions, 95)),
    )


class WorkloadScheduler:
    """Simulates FIFO vs predicted-SJF vs oracle-SJF on a workload."""

    def __init__(self, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers

    def fifo(self, dataset: PlanDataset) -> ScheduleResult:
        durations = dataset.latencies()
        return _simulate(durations, range(len(durations)), self.workers,
                         "FIFO")

    def sjf_oracle(self, dataset: PlanDataset) -> ScheduleResult:
        durations = dataset.latencies()
        order = np.argsort(durations)
        return _simulate(durations, order, self.workers, "SJF (oracle)")

    def sjf_predicted(
        self, dataset: PlanDataset, predicted_ms,
        policy_name: str = "SJF (model)",
    ) -> ScheduleResult:
        """``predicted_ms`` is a per-query predicted latency array."""
        predicted = np.asarray(predicted_ms, dtype=np.float64)
        if predicted.shape != (len(dataset),):
            raise ValueError("one prediction per query required")
        durations = dataset.latencies()
        order = np.argsort(predicted)
        return _simulate(durations, order, self.workers, policy_name)

    def compare(
        self, dataset: PlanDataset, predicted_ms,
        policy_name: str = "SJF (model)",
    ) -> List[ScheduleResult]:
        """FIFO, model-SJF, oracle-SJF on the same workload, from one
        per-query predicted latency array."""
        return [
            self.fifo(dataset),
            self.sjf_predicted(dataset, predicted_ms, policy_name),
            self.sjf_oracle(dataset),
        ]
