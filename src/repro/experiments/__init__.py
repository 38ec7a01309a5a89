"""Declarative experiment matrices with content-hashed, resumable cells.

Every DACE result is one cell of a matrix — workload × held-out database
× drift regime × chaos rate × LoRA rank × bench scale.  This package
makes that matrix explicit:

- :class:`~repro.experiments.config.ExperimentConfig` — a fully-resolved
  config with a stable ID (sha256 of canonical JSON), so identical
  configs are identical cells wherever they are computed;
- :class:`~repro.experiments.matrix.ExperimentSpec` — the declarative
  cartesian product of axes;
- :func:`~repro.experiments.registry.cell` — the decorator that turns a
  ``repro.bench`` figure runner into a registered cell function, with
  the named checks :func:`~repro.experiments.registry.evaluate_checks`
  runs on its stored cells;
- :class:`~repro.experiments.runner.Runner` — fans cells out over a
  thread pool or a spawn-isolated process pool (``backend="process"``:
  per-cell timeouts, crash containment, byte-identical results), skips
  cells whose valid result already exists on disk under the config
  hash, and records ``experiments.*`` obs metrics;
- :func:`~repro.experiments.diff.diff_cells` /
  :func:`~repro.experiments.diff.find_cell` — keyed metric/config/table
  comparison of two stored cells (``repro exp diff``);
- :class:`~repro.experiments.store.ResultsStore` — one JSON file per
  cell under ``benchmarks/results/<scale>/cells/<config-id>.json``, plus
  :func:`~repro.experiments.store.load_results_from_dir` and
  :func:`~repro.experiments.store.format_metrics_report` to regenerate
  paper tables from stored cells without recomputing.

CLI surface: ``repro exp run|ls|report|check|diff|clean`` (see
``repro.cli``).
"""

from repro.experiments.config import (
    ExperimentConfig,
    canonical_json,
    canonical_value,
    config_id,
)
from repro.experiments.matrix import Axis, ExperimentSpec
from repro.experiments.registry import (
    cell,
    cell_checks,
    cell_names,
    ensure_builtin_cells,
    evaluate_checks,
    get_cell,
    register_cell,
)
from repro.experiments.store import (
    CELL_SCHEMA,
    PERF_SCHEMA,
    CellCorruptError,
    CellResult,
    ResultsStore,
    RunSummary,
    format_metrics_report,
    jsonable,
    load_results_from_dir,
    write_json_atomic,
)
from repro.experiments.diff import (
    CellDiff,
    CellDiffError,
    diff_cells,
    find_cell,
    flatten_numeric,
    format_cell_diff,
)
from repro.experiments.runner import BACKENDS, Runner

__all__ = [
    "ExperimentConfig",
    "canonical_json",
    "canonical_value",
    "config_id",
    "Axis",
    "ExperimentSpec",
    "cell",
    "cell_checks",
    "cell_names",
    "ensure_builtin_cells",
    "evaluate_checks",
    "get_cell",
    "register_cell",
    "CELL_SCHEMA",
    "PERF_SCHEMA",
    "CellCorruptError",
    "CellResult",
    "ResultsStore",
    "RunSummary",
    "format_metrics_report",
    "jsonable",
    "load_results_from_dir",
    "write_json_atomic",
    "CellDiff",
    "CellDiffError",
    "diff_cells",
    "find_cell",
    "flatten_numeric",
    "format_cell_diff",
    "BACKENDS",
    "Runner",
]
