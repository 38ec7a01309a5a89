"""Resumable matrix execution.

The :class:`Runner` turns a spec (or a plain list of configs) into cell
files.  Discipline mirrors ``repro.serve.concurrent``: determinism comes
from the seeded configs, never from scheduling — every cell derives all
of its randomness from the ``BenchScale`` it is handed, so a thread-pool
run, a process-pool run, and a serial run of the same matrix produce
byte-identical cells in whatever order they land.

Resume is content-addressed: before running a cell the runner probes the
store for a *valid* file under the config hash.  A hit is skipped, a
corrupt file (truncated write, hand-edited JSON, hash mismatch) is
counted and re-run, and a failure in one cell never takes down the rest
of the matrix.

Backends:

- ``backend="thread"`` (default) — in-process fan-out.  Cheap, and the
  in-process model/workload caches (``repro.bench.cache``) are shared,
  so matrices whose cells overlap reuse pre-training work.  The flip
  side is the GIL: cache-unfriendly cells (full train runs, zero-shot
  sweeps, chaos replays) serialize, so ``workers=4`` buys little.
- ``backend="process"`` — a ``spawn``-based ``ProcessPoolExecutor``.
  Each planned cell ships to a child as plain picklable data
  ``(experiment name, BenchScale, kwargs, import reference)`` — never a
  closure — and is re-resolved via ``ensure_builtin_cells()`` in the
  child (see :mod:`repro.experiments.worker`).  The parent remains the
  only writer of the :class:`~repro.experiments.store.ResultsStore`, so
  resume semantics are unchanged.  Robustness is part of the deal: a
  per-cell ``timeout_s`` kills a wedged child and fails only that cell,
  a crashed child (segfault, ``os._exit``, OOM kill) breaks the pool
  but the runner rebuilds it and retries the in-flight cells once
  (a cell whose retry also dies is marked failed), and unpicklable
  payloads fail fast with an actionable message.

Axis routing: each config param is either a ``BenchScale`` field (applied
with ``dataclasses.replace`` — lists round-trip back to tuples) or a
keyword of the cell function (validated against its signature before
anything executes, so a typo'd axis fails fast with the valid names).
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, \
    Union

from repro.experiments.config import ExperimentConfig
from repro.experiments.matrix import ExperimentSpec
from repro.experiments.registry import get_cell
from repro.experiments.store import CellResult, ResultsStore, RunSummary, \
    jsonable
from repro.experiments.worker import fn_reference, run_cell

BACKENDS = ("thread", "process")

#: Total submission attempts per cell under the process backend: the
#: first run plus one retry when a pool breakage (crashed sibling or
#: timeout kill) took the cell down as collateral.
MAX_ATTEMPTS = 2

#: How often the process backend wakes up to check per-cell deadlines.
_DEADLINE_TICK_S = 0.25


class _PlannedCell:
    """A config paired with everything needed to execute it."""

    __slots__ = ("config", "fn", "scale", "kwargs")

    def __init__(self, config, fn, scale, kwargs) -> None:
        self.config = config
        self.fn = fn
        self.scale = scale
        self.kwargs = kwargs


class Runner:
    """Fan a list of configs out over a thread or process pool, resumably.

    ``metrics`` (a :class:`~repro.obs.MetricsRegistry`) receives
    ``experiments.cells_run`` / ``cells_skipped`` / ``cells_failed`` /
    ``cells_corrupt`` counters and the ``experiments.cell_seconds``
    histogram.  ``on_cell(status, config, wall_seconds)`` fires after
    each cell with status ``"ran"``/``"skipped"``/``"failed"`` — the CLI
    uses it for per-cell progress lines.

    ``timeout_s`` (process backend only) bounds each cell's wall clock,
    measured from hand-off to an idle child; it includes the child's
    one-time interpreter/numpy import on a fresh pool (~1 s).
    """

    def __init__(
        self,
        store: ResultsStore,
        workers: int = 1,
        backend: str = "thread",
        metrics=None,
        on_cell: Optional[Callable[[str, ExperimentConfig, float],
                                   None]] = None,
        timeout_s: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; valid backends: "
                f"{', '.join(BACKENDS)}"
            )
        if timeout_s is not None:
            if backend != "process":
                raise ValueError(
                    "timeout_s requires backend='process' (threads "
                    "cannot be killed)"
                )
            if timeout_s <= 0:
                raise ValueError("timeout_s must be positive")
        self.store = store
        self.workers = workers
        self.backend = backend
        self.timeout_s = timeout_s
        if metrics is None:
            from repro.obs import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        self.on_cell = on_cell

    # ------------------------------------------------------------------ #
    # Planning
    # ------------------------------------------------------------------ #
    def _plan(
        self,
        configs: Sequence[ExperimentConfig],
        known_scales: Optional[Dict[str, Any]] = None,
    ) -> List[_PlannedCell]:
        """Resolve every config before running any — fail fast on typos.

        ``known_scales`` carries non-preset ``BenchScale`` instances from
        the spec (custom scales exist only in the object that declared
        them; presets resolve by name).
        """
        from repro.bench.config import BenchScale, resolve_scale

        known_scales = known_scales or {}
        scale_fields = {f.name for f in dataclasses.fields(BenchScale)}
        planned: List[_PlannedCell] = []
        seen_ids = set()
        for config in configs:
            if config.id in seen_ids:
                continue
            seen_ids.add(config.id)
            fn = get_cell(config.experiment)
            if config.scale in known_scales:
                scale = known_scales[config.scale]
            else:
                scale = resolve_scale(config.scale)
            overrides: Dict[str, Any] = {}
            kwargs: Dict[str, Any] = {}
            signature = inspect.signature(fn)
            accepts_any = any(
                p.kind is inspect.Parameter.VAR_KEYWORD
                for p in signature.parameters.values()
            )
            fn_params = set(signature.parameters) - {"scale"}
            for name, value in config.params().items():
                if name in scale_fields:
                    # Canonical JSON stored lists; scale fields that are
                    # declared as tuples want tuples back.
                    if isinstance(value, list):
                        value = tuple(value)
                    overrides[name] = value
                elif name in fn_params or accepts_any:
                    kwargs[name] = value
                else:
                    valid = sorted(scale_fields | fn_params)
                    raise ValueError(
                        f"unknown axis {name!r} for experiment "
                        f"{config.experiment!r}; valid axes: "
                        f"{', '.join(valid)}"
                    )
            if overrides:
                scale = dataclasses.replace(scale, **overrides)
            planned.append(_PlannedCell(config, fn, scale, kwargs))
        return planned

    # ------------------------------------------------------------------ #
    # Shared accounting
    # ------------------------------------------------------------------ #
    @staticmethod
    def _entry(cell: _PlannedCell) -> Dict[str, Any]:
        return {
            "config_id": cell.config.id,
            "experiment": cell.config.experiment,
            "label": cell.config.label,
        }

    def _probe_skip(
        self,
        cell: _PlannedCell,
        summary: RunSummary,
        force: bool,
        lock: threading.Lock,
    ) -> bool:
        """True when a valid stored cell lets this one be skipped."""
        if force:
            return False
        stored = self.store.try_load(cell.config)
        if stored is not None:
            self.metrics.counter("experiments.cells_skipped").inc()
            with lock:
                summary.skipped.append(self._entry(cell))
            self._notify("skipped", cell.config, 0.0)
            return True
        if self.store.path_exists(cell.config):
            # A file exists but try_load rejected it: corrupt.
            self.metrics.counter("experiments.cells_corrupt").inc()
            with lock:
                summary.corrupt.append(cell.config.id)
        return False

    def _record_success(
        self,
        cell: _PlannedCell,
        table: str,
        results: Dict[str, Any],
        wall: float,
        summary: RunSummary,
        lock: threading.Lock,
    ) -> None:
        self.store.save(CellResult(
            config_id=cell.config.id,
            label=cell.config.label,
            experiment=cell.config.experiment,
            scale=self.store.scale,
            config=dict(cell.config.config),
            table=table,
            results=results,
            wall_seconds=wall,
            created_unix=time.time(),
        ))
        self.metrics.counter("experiments.cells_run").inc()
        self.metrics.histogram("experiments.cell_seconds").observe(wall)
        with lock:
            summary.ran.append(dict(self._entry(cell), wall_seconds=wall))
        self._notify("ran", cell.config, wall)

    def _record_failure(
        self,
        cell: _PlannedCell,
        error: str,
        wall: float,
        summary: RunSummary,
        lock: threading.Lock,
    ) -> None:
        self.metrics.counter("experiments.cells_failed").inc()
        with lock:
            summary.failed.append(dict(self._entry(cell), error=error))
        self._notify("failed", cell.config, wall)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        spec_or_configs: Union[ExperimentSpec, Sequence[ExperimentConfig]],
        force: bool = False,
    ) -> RunSummary:
        """Execute every cell not already stored; return the summary.

        ``force=True`` recomputes and overwrites even valid cells.
        """
        known_scales: Dict[str, Any] = {}
        if isinstance(spec_or_configs, ExperimentSpec):
            spec = spec_or_configs
            configs = spec.expand()
            known_scales[spec.scale_name] = spec.resolve_scale()
        else:
            configs = list(spec_or_configs)
        planned = self._plan(configs, known_scales)

        summary = RunSummary(
            scale=self.store.scale, started_unix=time.time()
        )
        lock = threading.Lock()
        started = time.perf_counter()

        if self.backend == "process":
            self._run_process(planned, summary, force, lock)
        else:
            def execute(cell: _PlannedCell) -> None:
                if self._probe_skip(cell, summary, force, lock):
                    return
                cell_start = time.perf_counter()
                try:
                    result = cell.fn(cell.scale, **cell.kwargs)
                except Exception as exc:
                    wall = time.perf_counter() - cell_start
                    self._record_failure(
                        cell, repr(exc), wall, summary, lock
                    )
                    return
                wall = time.perf_counter() - cell_start
                payload = dict(result)
                table = payload.pop("table", "")
                self._record_success(
                    cell, table, jsonable(payload), wall, summary, lock
                )

            if self.workers == 1 or len(planned) <= 1:
                for cell in planned:
                    execute(cell)
            else:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=self.workers) as pool:
                    list(pool.map(execute, planned))

        summary.wall_seconds = time.perf_counter() - started
        return summary

    # ------------------------------------------------------------------ #
    # Process backend
    # ------------------------------------------------------------------ #
    def _run_process(
        self,
        planned: List[_PlannedCell],
        summary: RunSummary,
        force: bool,
        lock: threading.Lock,
    ) -> None:
        """Spawn-isolated fan-out with timeout kill and crash retry.

        The dispatch window never exceeds the pool width, so a submitted
        cell starts on an idle child immediately and its deadline can be
        measured from submission.  Pool breakage (a child died, or we
        killed one for overrunning its deadline) fails the culprit and
        requeues the collateral in-flight cells for one retry on a fresh
        pool.  From then on cells are dispatched one at a time: a crash
        cannot say which in-flight cell caused it, and a retried innocent
        running beside the crasher again would be taken down with it.
        """
        import multiprocessing
        from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, \
            ProcessPoolExecutor
        from concurrent.futures import wait as futures_wait

        queue = deque(
            cell for cell in planned
            if not self._probe_skip(cell, summary, force, lock)
        )
        if not queue:
            return
        context = multiprocessing.get_context("spawn")
        attempts: Dict[str, int] = {}
        executor = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=context
        )
        pending: Dict[Any, Tuple[_PlannedCell, Optional[float]]] = {}
        window = self.workers

        def fail_broken(cell: _PlannedCell) -> None:
            """Requeue a pool-breakage casualty, or fail it after retry."""
            if attempts.get(cell.config.id, 0) >= MAX_ATTEMPTS:
                self._record_failure(
                    cell,
                    "child process died while running this cell "
                    f"(pool broke {MAX_ATTEMPTS} times); likely a crash "
                    "or OOM kill inside the cell function",
                    0.0, summary, lock,
                )
            else:
                queue.append(cell)

        def settle(fut) -> None:
            """Classify one completed future."""
            cell, _deadline = pending.pop(fut)
            exc = fut.exception()
            if exc is None:
                child = fut.result()
                self._record_success(
                    cell, child["table"], child["results"],
                    child["wall_seconds"], summary, lock,
                )
            elif isinstance(exc, BrokenExecutor):
                fail_broken(cell)
            else:
                self._record_failure(
                    cell, repr(exc), 0.0, summary, lock
                )

        try:
            while queue or pending:
                while queue and len(pending) < window:
                    cell = queue.popleft()
                    payload = (
                        cell.config.experiment, cell.scale, cell.kwargs,
                        fn_reference(cell.fn),
                    )
                    try:
                        pickle.dumps(payload)
                    except Exception as exc:
                        self._record_failure(
                            cell,
                            "cell payload cannot be shipped to a child "
                            f"process ({exc!r}); make the scale/kwargs "
                            "picklable or run with backend='thread'",
                            0.0, summary, lock,
                        )
                        continue
                    attempts[cell.config.id] = \
                        attempts.get(cell.config.id, 0) + 1
                    future = executor.submit(run_cell, *payload)
                    deadline = (
                        None if self.timeout_s is None
                        else time.monotonic() + self.timeout_s
                    )
                    pending[future] = (cell, deadline)
                if not pending:
                    continue

                wait_s = None if self.timeout_s is None else _DEADLINE_TICK_S
                done, _ = futures_wait(
                    set(pending), timeout=wait_s,
                    return_when=FIRST_COMPLETED,
                )
                broke = False
                for future in done:
                    if isinstance(future.exception(), BrokenExecutor):
                        broke = True
                    settle(future)

                now = time.monotonic()
                overdue = [
                    future for future, (_c, deadline) in pending.items()
                    if deadline is not None and now >= deadline
                    and not future.done()
                ]
                if overdue:
                    # The overdue cells are running in pool children we
                    # cannot cancel individually: kill the pool, fail the
                    # culprits, and give the collateral a fresh pool.
                    self._terminate_pool(executor)
                    for future in overdue:
                        cell, _deadline = pending.pop(future)
                        self._record_failure(
                            cell,
                            f"cell exceeded timeout_s={self.timeout_s} "
                            "and its child process was killed",
                            float(self.timeout_s), summary, lock,
                        )
                    broke = True

                if broke:
                    # The executor is unusable; every in-flight future
                    # settles quickly (result already set, or
                    # BrokenProcessPool).  Drain, then rebuild.
                    if pending:
                        futures_wait(set(pending), timeout=5.0)
                    for future in list(pending):
                        if future.done():
                            settle(future)
                        else:
                            cell, _deadline = pending.pop(future)
                            fail_broken(cell)
                    executor.shutdown(wait=False, cancel_futures=True)
                    window = 1
                    executor = ProcessPoolExecutor(
                        max_workers=self.workers, mp_context=context
                    )
        finally:
            executor.shutdown(wait=True, cancel_futures=True)

    @staticmethod
    def _terminate_pool(executor) -> None:
        """Hard-kill every child of a ProcessPoolExecutor."""
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except OSError:  # pragma: no cover - already gone
                pass

    def _notify(self, status: str, config: ExperimentConfig,
                wall: float) -> None:
        if self.on_cell is not None:
            self.on_cell(status, config, wall)
