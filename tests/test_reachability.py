"""Every ``repro`` module is reached by something the project runs.

The entry points are the registered experiment cells, the CLI
(``repro.cli`` and ``python -m repro``), the ``benchmarks/`` scripts and
the ``perfbench/`` workloads.  Edges are read from the source with
:mod:`ast`, so a lazy import inside a function counts the same as one at
module top level.  A package ``__init__`` only re-exports: importing a
name from a package reaches the module that defines the name, not every
re-export the package happens to list, and an ``__init__``'s own import
statements are not edges.  A module nothing reaches is code no
experiment runs, and should be deleted together with its tests.

The same holds one level down for the public names of ``repro.nn`` and
``repro.serve`` (each package's ``__all__`` and each of its modules'):
each must be named by a reachable module, or by one of the entry
scripts, other than a package ``__init__``.
"""

from __future__ import annotations

import ast
import functools
import importlib
import pathlib
from typing import Dict, Iterator, Optional, Set

import repro.nn
import repro.serve
from repro.experiments.registry import cell_names, get_cell

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"
PACKAGE = "repro"


@functools.lru_cache(maxsize=None)
def module_paths() -> Dict[str, pathlib.Path]:
    """Map every ``repro.*`` module name to its source file."""
    paths = {}
    for path in (SRC / PACKAGE).rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        paths[".".join(parts)] = path
    return paths


def is_package(name: str) -> bool:
    path = module_paths().get(name)
    return path is not None and path.name == "__init__.py"


@functools.lru_cache(maxsize=None)
def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def absolute(importer: str, node: ast.ImportFrom) -> str:
    """The absolute module an ``ImportFrom`` names, relative ones included."""
    if not node.level:
        return node.module or ""
    base = importer.split(".")
    if not is_package(importer):
        base.pop()
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


@functools.lru_cache(maxsize=None)
def reexports(package: str) -> Dict[str, str]:
    """``name -> module`` for each ``from X import name`` in an ``__init__``."""
    names = {}
    for node in parse(module_paths()[package]).body:
        if isinstance(node, ast.ImportFrom):
            source = absolute(package, node)
            for alias in node.names:
                names[alias.asname or alias.name] = define_site(
                    source, alias.name
                )
    return names


def define_site(module: str, name: str) -> str:
    """The module that defines ``name`` when imported from ``module``."""
    if f"{module}.{name}" in module_paths():
        return f"{module}.{name}"
    if is_package(module):
        return reexports(module).get(name, module)
    return module


def edges(importer: str, tree: ast.AST) -> Iterator[str]:
    """Every ``repro`` module ``tree`` imports, at any nesting depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            source = absolute(importer, node)
            for alias in node.names:
                if alias.name == "*" and is_package(source):
                    yield from reexports(source).values()
                else:
                    yield define_site(source, alias.name)


def file_edges(path: pathlib.Path, name: Optional[str] = None) -> Set[str]:
    if name is not None and is_package(name):
        return set()
    found = edges(name or "", parse(path))
    return {m for m in found if m in module_paths()}


def entry_modules() -> Set[str]:
    cells = {get_cell(name).__module__ for name in cell_names()}
    return {m for m in cells if m in module_paths()} | {
        f"{PACKAGE}.cli",
        f"{PACKAGE}.__main__",
    }


def entry_scripts() -> Iterator[pathlib.Path]:
    for folder in ("benchmarks", "perfbench"):
        yield from sorted((ROOT / folder).glob("*.py"))


def reached() -> Set[str]:
    frontier = set(entry_modules())
    for path in entry_scripts():
        frontier |= file_edges(path)
    seen: Set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        frontier |= file_edges(module_paths()[name], name) - seen
    return seen


def test_every_module_is_reached_by_an_experiment():
    modules = {m for m in module_paths() if not is_package(m)}
    unreached = sorted(modules - reached())
    assert not unreached, (
        "modules no cell, CLI command, benchmark or perfbench workload "
        f"imports: {unreached}"
    )


def test_walk_resolves_package_reexports_to_the_defining_module():
    # ``from repro.core import DACE`` reaches the estimator, not the whole
    # package; a submodule named in ``from pkg import sub`` is itself.
    assert define_site("repro.core", "DACE") == "repro.core.estimator"
    assert define_site("repro", "DACE") == "repro.core.estimator"
    assert define_site("repro.core", "model") == "repro.core.model"


def test_walk_counts_lazy_imports():
    tree = ast.parse(
        "def f():\n    from repro.core.ensemble import DACEEnsemble\n"
    )
    assert "repro.core.ensemble" in set(edges("x", tree))


def used_names(path: pathlib.Path) -> Set[str]:
    """Every name ``path`` reads, looks up as an attribute or imports."""
    names = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


# Callers satisfy a typing.Protocol structurally and never name it.
STRUCTURAL = {"Estimator"}


def public_names(package) -> Set[str]:
    """``package.__all__`` plus the ``__all__`` of each of its modules."""
    names = set(package.__all__)
    for name in module_paths():
        if name.startswith(package.__name__ + "."):
            module = importlib.import_module(name)
            names.update(getattr(module, "__all__", ()))
    return names


def test_every_public_nn_and_serve_name_is_used():
    users = [module_paths()[m] for m in sorted(reached())
             if not is_package(m)]
    used = set().union(*map(used_names, users + list(entry_scripts())))
    public = public_names(repro.nn) | public_names(repro.serve)
    unused = sorted(public - used - STRUCTURAL)
    assert not unused, (
        "public repro.nn / repro.serve names no reachable module uses: "
        f"{unused}"
    )
