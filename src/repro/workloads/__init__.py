"""Workload construction: the paper's workloads 1, 2, 3 and the drift suite.

- Workload 1: Zero-Shot-style complex queries on each of the 20 zoo
  databases, executed on machine M1 (leave-one-database-out protocol).
- Workload 2: the same query statements executed on machine M2
  ("across-more").
- Workload 3: the MSCN benchmark against IMDB — a large training split plus
  the synthetic / scale / JOB-light test splits.
- Drift: TPC-H at increasing scale factors with a fixed test workload.
"""

from repro.workloads.dataset import PlanDataset, PlanSample, collect_workload
from repro.workloads.encoded import EncodedDataset
from repro.workloads.zeroshot import workload1, workload2
from repro.workloads.mscn import Workload3, build_workload3
from repro.workloads.drift import drift_datasets
from repro.workloads.serialize import load_dataset, save_dataset
from repro.workloads.describe import WorkloadSummary, describe, describe_text

__all__ = [
    "PlanSample",
    "PlanDataset",
    "collect_workload",
    "EncodedDataset",
    "workload1",
    "workload2",
    "Workload3",
    "build_workload3",
    "drift_datasets",
    "save_dataset",
    "load_dataset",
    "describe",
    "describe_text",
    "WorkloadSummary",
]
