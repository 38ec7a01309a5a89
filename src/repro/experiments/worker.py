"""Child-process side of the :class:`~repro.experiments.runner.Runner`
process backend.

A spawned child receives one planned cell as plain picklable data —
``(experiment name, BenchScale, kwargs, (module, qualname))`` — never a
closure.  :func:`run_cell` re-resolves the cell function inside the
child (``ensure_builtin_cells()`` first, then an import of the shipped
reference for cells registered outside ``repro.bench``), executes it,
and returns a picklable record: the rendered table, the JSON-sanitized
results and the child-side wall time.

Everything in this module must be importable under the ``spawn`` start
method — no state is inherited from the parent beyond ``sys.path`` and
the environment (``REPRO_RESULTS_DIR`` therefore propagates to children
automatically).
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Dict, Optional, Tuple

from repro.experiments.store import jsonable

FnRef = Optional[Tuple[str, str]]


def fn_reference(fn: Any) -> FnRef:
    """A ``(module, qualname)`` import path for ``fn``, if it has one.

    Local closures and lambdas (``<locals>`` in the qualname) cannot be
    re-imported by a spawned child; for those the child can only fall
    back to the registry populated by ``ensure_builtin_cells()``.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        return None
    return (module, qualname)


def resolve_cell(experiment: str, fn_ref: FnRef):
    """Re-resolve the cell function inside a spawned child.

    The import reference wins when it resolves: a cell registered in the
    parent under a name that shadows a built-in must shadow it in the
    child too.  The registry (after ``ensure_builtin_cells()``) is the
    fallback for decorated built-ins whose module moved.
    """
    from repro.experiments.registry import ensure_builtin_cells, \
        register_cell

    ensure_builtin_cells()
    if fn_ref is not None:
        module_name, qualname = fn_ref
        try:
            obj: Any = importlib.import_module(module_name)
            for part in qualname.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError):
            obj = None
        if callable(obj):
            # Register under the experiment name so nested lookups
            # (e.g. a cell running a sub-matrix) resolve consistently.
            register_cell(experiment, obj)
            return obj
    from repro.experiments.registry import _CELLS

    fn = _CELLS.get(experiment)
    if fn is None:
        raise KeyError(
            f"experiment {experiment!r} cannot be resolved in a spawned "
            f"child: it is not registered by repro.bench and its import "
            f"reference {fn_ref!r} does not resolve. Register the cell "
            f"function at module level (importable by name) or run with "
            f"backend='thread'."
        )
    return fn


def run_cell(
    experiment: str,
    scale: Any,
    kwargs: Dict[str, Any],
    fn_ref: FnRef = None,
) -> Dict[str, Any]:
    """Execute one planned cell in this (child) process.

    Returns a picklable record the parent turns into a
    :class:`~repro.experiments.store.CellResult`; the parent remains the
    only writer of the results store, so resume semantics are identical
    to the thread backend.
    """
    fn = resolve_cell(experiment, fn_ref)
    start = time.perf_counter()
    result = fn(scale, **kwargs)
    wall = time.perf_counter() - start
    payload = dict(result)
    table = payload.pop("table", "")
    return {
        "table": table,
        "results": jsonable(payload),
        "wall_seconds": wall,
    }
