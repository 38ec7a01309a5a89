"""Plan datasets: executed query plans with latency labels.

A :class:`PlanSample` is one (query, annotated plan) pair from one database;
the plan carries optimizer estimates per node (model features) and simulated
actual times per node (labels).  A :class:`PlanDataset` is an ordered
collection with split/filter helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.catalog.datagen import Database
from repro.engine.machines import M1, MachineProfile
from repro.engine.plan import PlanNode
from repro.engine.session import EngineSession
from repro.sql.query import Query

DEFAULT_TIMEOUT_MS = 120_000.0  # like a 2-minute statement_timeout


@dataclass
class PlanSample:
    """One executed query: plan with estimates + labels, and provenance."""

    plan: PlanNode
    query: Query
    database_name: str

    @property
    def latency_ms(self) -> float:
        return float(self.plan.actual_time_ms)

    @property
    def est_cost(self) -> float:
        return float(self.plan.est_cost)

    @property
    def num_nodes(self) -> int:
        return self.plan.num_nodes()


@dataclass
class PlanDataset:
    """An ordered collection of plan samples."""

    samples: List[PlanSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[PlanSample]:
        return iter(self.samples)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PlanDataset(self.samples[index])
        return self.samples[index]

    def append(self, sample: PlanSample) -> None:
        self.samples.append(sample)

    def extend(self, other: "PlanDataset") -> None:
        self.samples.extend(other.samples)

    # ------------------------------------------------------------------ #
    def latencies(self) -> np.ndarray:
        return np.array([s.latency_ms for s in self.samples])

    def est_costs(self) -> np.ndarray:
        return np.array([s.est_cost for s in self.samples])

    def database_names(self) -> List[str]:
        return sorted({s.database_name for s in self.samples})

    def shuffled(self, seed: int = 0) -> "PlanDataset":
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.samples))
        return PlanDataset([self.samples[i] for i in order])

    def split(self, fraction: float, seed: int = 0
              ) -> Tuple["PlanDataset", "PlanDataset"]:
        """Random (train, test) split with ``fraction`` going to train."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("split fraction must be in (0, 1)")
        shuffled = self.shuffled(seed)
        cut = int(round(len(shuffled) * fraction))
        return shuffled[:cut], shuffled[cut:]

    def subset(self, count: int, seed: int = 0) -> "PlanDataset":
        """A random subset of at most ``count`` samples."""
        if count >= len(self.samples):
            return PlanDataset(list(self.samples))
        return self.shuffled(seed)[:count]

    @staticmethod
    def merge(datasets: Iterable["PlanDataset"]) -> "PlanDataset":
        merged = PlanDataset()
        for dataset in datasets:
            merged.extend(dataset)
        return merged


def collect_workload(
    database: Database,
    queries: Sequence[Query],
    machine: MachineProfile = M1,
    seed: int = 0,
    timeout_ms: float = DEFAULT_TIMEOUT_MS,
    session: Optional[EngineSession] = None,
) -> PlanDataset:
    """Execute ``queries`` and return the labelled dataset.

    Queries whose simulated latency exceeds ``timeout_ms`` are dropped,
    mirroring the statement timeout used when collecting real benchmark
    labels.
    """
    if session is None:
        session = EngineSession(database, machine, seed=seed)
    dataset = PlanDataset()
    for query in queries:
        plan = session.explain_analyze(query)
        if plan.actual_time_ms > timeout_ms:
            continue
        dataset.append(
            PlanSample(plan=plan, query=query, database_name=database.name)
        )
    return dataset
