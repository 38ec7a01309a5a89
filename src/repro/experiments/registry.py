"""The cell registry: experiment names → cell functions and their checks.

A *cell function* is any callable with the bench-runner signature
``fn(scale: BenchScale, **params) -> dict`` whose result carries a
``"table"`` key.  `repro.bench` decorates its figure/table runners with
:func:`cell` at import time, so registering a new experiment is one
decorator — the matrix, the resumable runner, and the ``repro exp`` CLI
all pick it up from here.

A cell may declare named *checks*: predicates ``(results, config) ->
bool`` over the cell function's returned dict and the cell's config.
``repro exp check`` evaluates them on stored cells, together with the
``table`` check every cell carries (its rendered table is non-empty).

The registry itself never imports ``repro.bench`` at module level (the
bench modules import *us* to decorate themselves); callers that want the
built-in cells present call :func:`ensure_builtin_cells` first, which
imports the bench package exactly once.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

Check = Callable[[Mapping[str, Any], Mapping[str, Any]], bool]

_CELLS: Dict[str, Callable] = {}
# Keyed by the cell function, so re-registering the same function under
# its name (as a spawned child does) keeps its checks.
_CHECKS: Dict[Callable, Dict[str, Check]] = {}
_builtins_loaded = False


def register_cell(name: str, fn: Callable,
                  checks: Optional[Mapping[str, Check]] = None) -> Callable:
    """Register ``fn`` under ``name``, replacing any previous owner."""
    _CELLS[name] = fn
    if checks is not None:
        _CHECKS[fn] = dict(checks)
    return fn


def cell(name: str, checks: Optional[Mapping[str, Check]] = None
         ) -> Callable[[Callable], Callable]:
    """Decorator form of :func:`register_cell`::

        @cell("chaos", checks={
            "unhandled": lambda results, config: results["unhandled"] == 0,
        })
        def chaos_resilience(scale=DEFAULT, fault_rate=0.1): ...
    """
    def decorate(fn: Callable) -> Callable:
        return register_cell(name, fn, checks)
    return decorate


def ensure_builtin_cells() -> None:
    """Import ``repro.bench`` once so its decorators have run."""
    global _builtins_loaded
    if not _builtins_loaded:
        import repro.bench  # noqa: F401  (registration side effect)

        _builtins_loaded = True


def get_cell(name: str) -> Callable:
    """Look up a cell function, or raise with the valid names."""
    ensure_builtin_cells()
    try:
        return _CELLS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; valid names: "
            f"{', '.join(cell_names())}"
        ) from None


def cell_names() -> List[str]:
    """All registered experiment names, sorted."""
    ensure_builtin_cells()
    return sorted(_CELLS)


def cell_checks(name: str) -> Dict[str, Check]:
    """The cell's own checks (without the universal ``table`` check)."""
    return dict(_CHECKS.get(get_cell(name), {}))


def evaluate_checks(stored) -> List[Tuple[str, bool]]:
    """``(check name, passed)`` for every check of a stored cell.

    The predicates see the cell function's returned dict, table included,
    exactly as stored.  A predicate that cannot read its value (a key an
    older cell never stored, or a value of the wrong type) counts as
    failed.
    """
    results = dict(stored.results, table=stored.table)
    checks = {"table": lambda results, config: bool(results["table"])}
    checks.update(cell_checks(stored.experiment))
    outcomes = []
    for name, predicate in checks.items():
        try:
            passed = bool(predicate(results, stored.config))
        except (KeyError, TypeError):
            passed = False
        outcomes.append((name, passed))
    return outcomes
