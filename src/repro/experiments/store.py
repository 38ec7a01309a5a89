"""On-disk persistence for experiment cells and run summaries.

One matrix cell ⇒ one JSON file at
``<root>/<scale>/cells/<config-id>.json``.  The filename is the content
hash of the config, so the store never needs an index: existence of a
valid file *is* the resume signal, and two runs of the same matrix write
the same paths.  Each cell file carries the full config (rehydration
re-verifies the hash), the rendered paper table, the JSON-sanitized raw
results, and the wall time spent computing it.

Perf-trajectory files (the root-level ``BENCH_*.json`` that ``repro exp
report`` writes for checked cells) share the same writer through
:meth:`ResultsStore.write_perf_record` so every JSON artifact in the
repo has a ``schema`` tag and atomic-write semantics.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.experiments.config import ExperimentConfig, config_id
from repro.metrics.tables import format_table

CELL_SCHEMA = "repro.experiments/cell-v1"
PERF_SCHEMA = "repro.experiments/perf-v1"


class CellCorruptError(ValueError):
    """A cell file exists but cannot be trusted (bad JSON/schema/hash)."""


def jsonable(value: Any) -> Any:
    """Best-effort conversion of a result payload to JSON-native types.

    Unlike :func:`~repro.experiments.config.canonical_value` (which
    *rejects* anything non-JSON because config identity depends on it),
    result payloads are archival: dataclasses flatten via ``asdict``,
    numpy arrays become lists, and anything else degrades to ``repr``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [jsonable(item) for item in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(item) for item in value]
    return repr(value)


def write_json_atomic(path: str, payload: Any) -> None:
    """Write ``payload`` as pretty JSON via a same-directory temp file.

    ``os.replace`` makes the final rename atomic, so a reader (or a
    crashed writer) never observes a half-written cell.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


@dataclass
class CellResult:
    """One persisted matrix cell: config identity + rendered output."""

    config_id: str
    label: str
    experiment: str
    scale: str
    config: Dict[str, Any]
    table: str
    results: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0
    created_unix: float = 0.0
    schema: str = CELL_SCHEMA

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "config_id": self.config_id,
            "label": self.label,
            "experiment": self.experiment,
            "scale": self.scale,
            "config": self.config,
            "table": self.table,
            "results": self.results,
            "wall_seconds": self.wall_seconds,
            "created_unix": self.created_unix,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "CellResult":
        """Validate a decoded cell file; raise :class:`CellCorruptError`."""
        if not isinstance(payload, dict):
            raise CellCorruptError("cell payload is not a JSON object")
        if payload.get("schema") != CELL_SCHEMA:
            raise CellCorruptError(
                f"unexpected cell schema {payload.get('schema')!r} "
                f"(want {CELL_SCHEMA!r})"
            )
        for key in ("config_id", "config", "table", "experiment", "scale"):
            if key not in payload:
                raise CellCorruptError(f"cell payload missing {key!r}")
        if not isinstance(payload["table"], str):
            raise CellCorruptError("cell 'table' is not a string")
        computed = config_id(payload["config"])
        if computed != payload["config_id"]:
            raise CellCorruptError(
                f"cell config hashes to {computed!r} but file claims "
                f"{payload['config_id']!r}"
            )
        return cls(
            config_id=payload["config_id"],
            label=payload.get("label", ""),
            experiment=payload["experiment"],
            scale=payload["scale"],
            config=payload["config"],
            table=payload["table"],
            results=payload.get("results", {}),
            wall_seconds=payload.get("wall_seconds", 0.0),
            created_unix=payload.get("created_unix", 0.0),
        )


@dataclass
class RunSummary:
    """What one :meth:`Runner.run` invocation did, cell by cell."""

    scale: str
    started_unix: float = 0.0
    wall_seconds: float = 0.0
    ran: List[Dict[str, Any]] = field(default_factory=list)
    skipped: List[Dict[str, Any]] = field(default_factory=list)
    failed: List[Dict[str, Any]] = field(default_factory=list)
    corrupt: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.ran) + len(self.skipped) + len(self.failed)

    def format(self) -> str:
        """One-line completion banner (CI greps the counts)."""
        return (
            f"matrix complete @ {self.scale}: {self.total} cells "
            f"(ran {len(self.ran)}, skipped {len(self.skipped)}, "
            f"failed {len(self.failed)}) in {self.wall_seconds:.2f}s"
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "schema": "repro.experiments/run-v1",
            "scale": self.scale,
            "started_unix": self.started_unix,
            "wall_seconds": self.wall_seconds,
            "ran": self.ran,
            "skipped": self.skipped,
            "failed": self.failed,
            "corrupt": self.corrupt,
        }


class ResultsStore:
    """Content-addressed cell files under ``<root>/<scale>/cells/``."""

    def __init__(self, root: str = "benchmarks/results",
                 scale: str = "smoke") -> None:
        self.root = root
        self.scale = scale

    @property
    def cells_dir(self) -> str:
        return os.path.join(self.root, self.scale, "cells")

    @property
    def runs_dir(self) -> str:
        return os.path.join(self.root, self.scale, "runs")

    def path_for(self, config: ExperimentConfig) -> str:
        return os.path.join(self.cells_dir, f"{config.id}.json")

    def path_exists(self, config: ExperimentConfig) -> bool:
        return os.path.exists(self.path_for(config))

    def save(self, result: CellResult) -> str:
        path = os.path.join(self.cells_dir, f"{result.config_id}.json")
        write_json_atomic(path, result.to_payload())
        return path

    def load(self, config_id_or_config) -> CellResult:
        """Load one cell by config or ID; raise if missing or corrupt."""
        if isinstance(config_id_or_config, ExperimentConfig):
            cid = config_id_or_config.id
        else:
            cid = str(config_id_or_config)
        path = os.path.join(self.cells_dir, f"{cid}.json")
        return _load_cell_file(path)

    def try_load(self, config: ExperimentConfig) -> Optional[CellResult]:
        """The resume probe: a valid stored cell, or ``None``.

        Missing and corrupt files both return ``None`` — the runner
        re-runs the cell either way (corruption is additionally counted
        so it surfaces in the summary rather than passing silently).
        """
        path = self.path_for(config)
        if not os.path.exists(path):
            return None
        try:
            return _load_cell_file(path)
        except CellCorruptError:
            return None

    def clean(self) -> int:
        """Delete all cell files at this scale; return the count."""
        removed = 0
        for path in sorted(glob.glob(os.path.join(self.cells_dir, "*.json"))):
            os.unlink(path)
            removed += 1
        return removed

    def save_run_summary(self, summary: RunSummary) -> str:
        stamp = time.strftime(
            "%Y%m%dT%H%M%S", time.gmtime(summary.started_unix or time.time())
        )
        path = os.path.join(self.runs_dir, f"run-{stamp}.json")
        write_json_atomic(path, summary.to_payload())
        return path

    @classmethod
    def write_perf_record(cls, path: str, record: Mapping[str, Any]) -> str:
        """Write a perf-trajectory JSON (``BENCH_*.json``) atomically.

        Keeps the caller's field names verbatim and adds only the
        ``schema`` tag, so downstream tooling keyed on the existing
        fields keeps working.
        """
        payload = dict(jsonable(record))
        payload.setdefault("schema", PERF_SCHEMA)
        write_json_atomic(path, payload)
        return path


def _load_cell_file(path: str) -> CellResult:
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
        raise CellCorruptError(f"cannot decode cell file {path}: {exc}")
    return CellResult.from_payload(payload)


def load_results_from_dir(directory: str) -> List[CellResult]:
    """All valid cells under ``directory``, recursively.

    Accepts either a ``cells/`` directory itself or any ancestor (e.g.
    ``benchmarks/results`` to sweep every scale).  Corrupt files are
    skipped, not fatal — reporting works from whatever survived.
    """
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    paths += sorted(
        glob.glob(os.path.join(directory, "**", "cells", "*.json"),
                  recursive=True)
    )
    cells: List[CellResult] = []
    seen = set()
    for path in paths:
        real = os.path.realpath(path)
        if real in seen:
            continue
        seen.add(real)
        try:
            cells.append(_load_cell_file(path))
        except (CellCorruptError, FileNotFoundError):
            continue
    cells.sort(key=lambda cell: (cell.experiment, cell.config_id))
    return cells


def format_metrics_report(cells: List[CellResult]) -> str:
    """One summary row per stored cell (the ``repro exp ls`` view)."""
    if not cells:
        return "no stored cells"
    rows = []
    for cell in cells:
        params = {
            key: value for key, value in cell.config.items()
            if key not in ("experiment", "scale")
        }
        rows.append([
            cell.experiment,
            cell.scale,
            cell.config_id,
            ",".join(f"{k}={v}" for k, v in sorted(params.items())) or "-",
            cell.wall_seconds,
        ])
    return format_table(
        ["experiment", "scale", "config_id", "params", "wall_s"],
        rows,
        title=f"{len(cells)} stored cell(s)",
    )
