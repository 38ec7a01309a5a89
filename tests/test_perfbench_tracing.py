"""The repository benchmark's tracer installs on, and restores, this code.

``perfbench/tracing.py`` patches ``repro`` methods and functions by
name.  A rename or deletion of one of them makes ``Tracer.install``
raise, and the traced benchmark run (``perfbench/run.py --trace 1``)
exits non-zero.  This test loads the tracer by path, unmodified, and
checks that every patch installs and that ``uninstall`` puts back
exactly the attribute that was there before.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pathlib
import pkgutil
import sys

import repro

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _static_attributes() -> dict:
    """``(id(owner), name) -> value`` for every global of every loaded
    ``repro`` module and every attribute of the classes they define."""
    attributes = {}
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in vars(module).items():
            attributes[(id(module), attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for class_attr, class_value in vars(value).items():
                    attributes[(id(value), class_attr)] = class_value
    return attributes


def test_tracer_install_patches_and_uninstall_restores():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    before = _static_attributes()
    tracer = _load_tracing().Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        assert patches
        for owner, attr, _ in patches:
            assert (id(owner), attr) in before, f"{owner}.{attr}"
            assert inspect.getattr_static(owner, attr) is not \
                before[(id(owner), attr)], f"{owner}.{attr} not patched"
    finally:
        tracer.uninstall()
    for owner, attr, _ in patches:
        assert inspect.getattr_static(owner, attr) is \
            before[(id(owner), attr)], f"{owner}.{attr} not restored"
