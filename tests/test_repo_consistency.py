"""Repository self-consistency: docs, cells, and exports stay aligned."""

import inspect
import pathlib
import re

import pytest

import repro.bench as bench
from repro.experiments import cell_names, get_cell

ROOT = pathlib.Path(__file__).parent.parent
PAPER_ARTIFACTS = ["fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
                   "fig10", "fig11", "fig12", "tab1", "tab2"]


class TestBenchAlignment:
    def test_every_paper_artifact_has_a_bench(self):
        for artifact in PAPER_ARTIFACTS:
            assert artifact in cell_names(), artifact

    def test_every_runner_used_by_some_bench(self):
        registered = {get_cell(name).__name__ for name in cell_names()}
        helpers = ("repro.bench.config", "repro.bench.cache")
        runners = [name for name in bench.__all__
                   if inspect.isfunction(getattr(bench, name))
                   and getattr(bench, name).__module__ not in helpers]
        assert len(runners) == len(registered)
        for runner in runners:
            assert runner in registered, f"{runner} is not a registered cell"


class TestDocsAlignment:
    def test_readme_examples_exist(self):
        readme = (ROOT / "README.md").read_text()
        for match in re.findall(r"`examples/(\w+\.py)`", readme):
            assert (ROOT / "examples" / match).exists(), match

    def test_experiments_md_references_real_results(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        results_dir = ROOT / "benchmarks" / "results" / "default"
        for match in set(re.findall(r"`(\w+)\.txt`", text)):
            assert (results_dir / f"{match}.txt").exists(), match

    def test_design_md_lists_every_bench(self):
        design = (ROOT / "DESIGN.md").read_text()
        for name in cell_names():
            assert f"`{name}`" in design, f"cell {name} missing from DESIGN.md"

    def test_required_docs_exist(self):
        for name in ["README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "docs/architecture.md", "docs/reproducing.md",
                     "docs/api.md"]:
            assert (ROOT / name).exists(), name


class TestPackageExports:
    def test_top_level_imports(self):
        import repro
        for name in repro.__all__:
            assert hasattr(repro, name)

    @pytest.mark.parametrize("module_name", [
        "repro.nn", "repro.catalog", "repro.sql", "repro.engine",
        "repro.workloads", "repro.featurize", "repro.core",
        "repro.baselines", "repro.cardest", "repro.apps", "repro.metrics",
        "repro.bench", "repro.serve",
    ])
    def test_all_exports_resolve(self, module_name):
        import importlib
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} missing module docstring"
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name}"
