"""repro — a complete reproduction of "DACE: A Database-Agnostic Cost
Estimator" (Liang et al., ICDE 2024).

Top-level convenience imports::

    from repro import DACE, TrainingConfig, workload1, qerror_summary

See README.md for the architecture overview and DESIGN.md for the
system inventory and experiment index.
"""

from repro.core.estimator import DACE
from repro.core.trainer import TrainingConfig
from repro.metrics.qerror import qerror_summary
from repro.obs import MetricsRegistry
from repro.serve import EstimatorService, ModelRegistry
from repro.workloads.zeroshot import workload1, workload2
from repro.workloads.mscn import build_workload3

__version__ = "1.0.0"

__all__ = [
    "DACE",
    "TrainingConfig",
    "qerror_summary",
    "workload1",
    "workload2",
    "build_workload3",
    "EstimatorService",
    "MetricsRegistry",
    "ModelRegistry",
    "__version__",
]
