"""Every ``repro`` module is reached by something the project runs.

The entry points are the registered experiment cells, the CLI
(``repro.cli`` and ``python -m repro``) and the ``perfbench/``
workloads.  Edges are read from the source with
:mod:`ast`, so a lazy import inside a function counts the same as one at
module top level.  A package ``__init__`` only re-exports: importing a
name from a package reaches the module that defines the name, not every
re-export the package happens to list, and an ``__init__``'s own import
statements are not edges.  A module nothing reaches is code no
experiment runs, and should be deleted together with its tests.

The same holds one level down for every public name: each name in the
``__all__`` of a ``repro`` package or module, and each public method or
property of a class listed there, must be named by a reachable module
other than a package ``__init__``, by a ``perfbench/`` script or by an
``examples/`` script.  A string that spells the name counts (a method
patched or looked up by name), and so does a cell function's
registration.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import pathlib
from typing import Dict, Iterator, Optional, Set

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
    yield from sorted((ROOT / "perfbench").glob("*.py"))


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
        "modules no cell, CLI command or perfbench workload "
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


def read_names(tree: ast.AST) -> Set[str]:
    """Every bare name ``tree`` reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def used_names(path: pathlib.Path) -> Set[str]:
    """Every name ``path`` reads, looks up as an attribute or spells as a
    string; an imported name counts where it is read, under its alias."""
    tree = parse(path)
    names = read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names
                         if (alias.asname or alias.name) in names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unread_imports(path: pathlib.Path) -> Iterator[str]:
    """``line: name`` for each name ``path`` imports and never reads.

    A package ``__init__`` reads what its ``__all__`` lists; an import
    marked ``# noqa: F401`` is kept for its side effect.
    """
    tree = parse(path)
    read = read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            read.update(ast.literal_eval(node.value))
    lines = path.read_text().splitlines()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                "noqa: F401" in line
                for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read:
                yield f"{node.lineno}: {alias.name}"


def test_no_source_file_imports_a_name_it_never_reads():
    unread = [
        f"{path.relative_to(SRC)}:{entry}"
        for path in sorted((SRC / PACKAGE).rglob("*.py"))
        for entry in unread_imports(path)
    ]
    assert not unread, f"imported but never read: {unread}"


def test_an_import_counts_as_a_use_only_where_it_is_read(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "from a import read, unread, aliased as alias\n"
        "import side_effect  # noqa: F401\n"
        "read()\nalias()\n"
    )
    assert used_names(source) >= {"read", "aliased"}
    assert "unread" not in used_names(source)
    assert list(unread_imports(source)) == ["1: unread"]


# The resilience tier's per-prediction fallback flags: its answer to
# whoever calls it, read by no module of its own stack.
CALLER_API = {"ResilientEstimator.last_degraded"}


def public_names() -> Dict[str, str]:
    """``qualified name -> name`` for every public name (see module doc)."""
    names = {}
    for module_name in sorted(module_paths()):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            if name.startswith("_"):
                continue
            names[f"{module_name}.{name}"] = name
            obj = getattr(module, name)
            if inspect.isclass(obj) and obj.__module__.startswith(PACKAGE):
                for attr, value in vars(obj).items():
                    if not attr.startswith("_") and (
                        inspect.isfunction(value) or isinstance(
                            value, (property, classmethod, staticmethod))):
                        names[f"{obj.__name__}.{attr}"] = attr
    return names


def test_every_public_name_is_used():
    users = [module_paths()[m] for m in sorted(reached())
             if not is_package(m)]
    examples = sorted((ROOT / "examples").glob("*.py"))
    used = set().union(*map(used_names,
                            users + list(entry_scripts()) + examples))
    used |= {get_cell(name).__name__ for name in cell_names()}
    unused = sorted(
        qualified for qualified, name in public_names().items()
        if name not in used and qualified not in CALLER_API
    )
    assert not unused, f"public names no reachable module uses: {unused}"
