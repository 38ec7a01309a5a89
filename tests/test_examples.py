"""Examples stay importable and expose a main() entry point.

Running the examples end-to-end takes minutes each; these tests guarantee
they at least parse, import against the current API, and wire a callable
``main``.  (The examples' logic is covered indirectly: each is a thin
composition of APIs exercised by the functional tests.)
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def _load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_expected_examples_exist(self):
        names = {path.stem for path in EXAMPLE_FILES}
        assert {
            "quickstart",
            "across_machines_lora",
            "pretrained_encoder_cold_start",
            "explain_correction",
            "plan_steering",
            "uncertainty_fallback",
        } <= names

    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
    )
    def test_imports_and_has_main(self, path):
        module = _load(path)
        assert callable(getattr(module, "main", None))
        assert module.__doc__, "examples must carry a docstring"
