"""Runner semantics: resume, corruption re-run, fan-out, axis routing.

A registered dummy cell keeps these tests fast; the real bench cells get
one integration run in ``tests/bench/test_experiments.py``.
"""

import threading

import pytest

from repro.bench.config import BenchScale
from repro.experiments import (
    load_results_from_dir,
    ExperimentSpec,
    ResultsStore,
    Runner,
    register_cell,
)
from repro.experiments.registry import _CELLS
from repro.metrics.tables import format_table

CALLS = []
_CALLS_LOCK = threading.Lock()


def dummy_cell(scale: BenchScale, gain: float = 1.0) -> dict:
    with _CALLS_LOCK:
        CALLS.append((scale.name, scale.seed, gain))
    value = scale.seed + gain
    table = format_table(
        ["seed", "gain", "value"], [[scale.seed, gain, value]],
        title=f"dummy @ {scale.name}",
    )
    return {"table": table, "value": value}


def failing_cell(scale: BenchScale) -> dict:
    raise RuntimeError("boom")


@pytest.fixture(autouse=True)
def registered_dummies():
    register_cell("dummy", dummy_cell)
    register_cell("doomed", failing_cell)
    CALLS.clear()
    yield
    _CELLS.pop("dummy", None)
    _CELLS.pop("doomed", None)


def make_runner(tmp_path, **kwargs) -> Runner:
    store = ResultsStore(root=str(tmp_path), scale="smoke")
    return Runner(store, **kwargs)


SPEC = ExperimentSpec(
    "dummy", scale="smoke", axes={"seed": [0, 1], "gain": [1.0, 2.0]},
)


class TestRun:
    def test_matrix_runs_every_cell(self, tmp_path):
        runner = make_runner(tmp_path)
        summary = runner.run(SPEC)
        assert len(summary.ran) == 4
        assert not summary.skipped and not summary.failed
        assert len(CALLS) == 4
        cells = load_results_from_dir(runner.store.cells_dir)
        assert len(cells) == 4
        assert all(cell.table.startswith("dummy @ smoke") for cell in cells)
        assert {cell.results["value"] for cell in cells} == {1.0, 2.0, 3.0}

    def test_resume_skips_stored_cells(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.run(SPEC)
        CALLS.clear()
        summary = runner.run(SPEC)
        assert len(summary.skipped) == 4
        assert not summary.ran
        assert CALLS == []

    def test_force_recomputes(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.run(SPEC)
        CALLS.clear()
        summary = runner.run(SPEC, force=True)
        assert len(summary.ran) == 4
        assert len(CALLS) == 4

    def test_corrupt_cell_reruns_instead_of_crashing(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.run(SPEC)
        victim = load_results_from_dir(runner.store.cells_dir)[0]
        path = runner.store.cells_dir + f"/{victim.config_id}.json"
        open(path, "w").write("{ truncated")
        CALLS.clear()
        summary = runner.run(SPEC)
        assert len(summary.ran) == 1
        assert len(summary.skipped) == 3
        assert summary.corrupt == [victim.config_id]
        assert runner.store.load(victim.config_id).table == victim.table

    def test_failing_cell_isolated(self, tmp_path):
        runner = make_runner(tmp_path)
        spec = ExperimentSpec(["dummy", "doomed"], scale="smoke")
        summary = runner.run(spec)
        assert len(summary.ran) == 1
        assert len(summary.failed) == 1
        assert "boom" in summary.failed[0]["error"]
        # The failure left no cell file behind.
        cells = load_results_from_dir(runner.store.cells_dir)
        assert [c.experiment for c in cells] == ["dummy"]

    def test_duplicate_configs_run_once(self, tmp_path):
        runner = make_runner(tmp_path)
        configs = ExperimentSpec("dummy", scale="smoke").expand()
        summary = runner.run(configs + configs)
        assert summary.total == 1


class TestFanOut:
    def test_thread_pool_matches_serial(self, tmp_path):
        serial = make_runner(tmp_path / "serial")
        threaded = make_runner(tmp_path / "threaded", workers=4)
        serial.run(SPEC)
        summary = threaded.run(SPEC)
        assert len(summary.ran) == 4
        serial_cells = {c.config_id: c.table
                        for c in load_results_from_dir(
                            serial.store.cells_dir)}
        threaded_cells = {c.config_id: c.table
                          for c in load_results_from_dir(
                              threaded.store.cells_dir)}
        assert serial_cells == threaded_cells

    def test_bad_worker_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_runner(tmp_path, workers=0)


class TestAxisRouting:
    def test_scale_fields_override_the_preset(self, tmp_path):
        runner = make_runner(tmp_path)
        spec = ExperimentSpec("dummy", scale="smoke", axes={"seed": [7]})
        runner.run(spec)
        assert CALLS == [("smoke", 7, 1.0)]

    def test_function_kwargs_pass_through(self, tmp_path):
        runner = make_runner(tmp_path)
        spec = ExperimentSpec("dummy", scale="smoke", axes={"gain": [2.5]})
        runner.run(spec)
        assert CALLS == [("smoke", 0, 2.5)]

    def test_tuple_valued_scale_field_survives_round_trip(self, tmp_path):
        calls = []

        def sees_factors(scale: BenchScale) -> dict:
            calls.append(scale.drift_factors)
            return {"table": "t"}

        register_cell("factors", sees_factors)
        try:
            spec = ExperimentSpec(
                "factors", scale="smoke",
                axes={"drift_factors": [(1.0, 2.0)]},
            )
            make_runner(tmp_path).run(spec)
        finally:
            _CELLS.pop("factors", None)
        assert calls == [(1.0, 2.0)]

    def test_unknown_axis_fails_fast(self, tmp_path):
        runner = make_runner(tmp_path)
        spec = ExperimentSpec("dummy", scale="smoke", axes={"nope": [1]})
        with pytest.raises(ValueError, match="unknown axis 'nope'"):
            runner.run(spec)
        assert CALLS == []  # planning failed before any cell ran

    def test_unknown_experiment_fails_fast(self, tmp_path):
        runner = make_runner(tmp_path)
        spec = ExperimentSpec("nonexistent", scale="smoke")
        with pytest.raises(KeyError, match="valid names"):
            runner.run(spec)


class TestObservability:
    def test_counters_and_histogram(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.run(SPEC)
        runner.run(SPEC)
        spec = ExperimentSpec("doomed", scale="smoke")
        runner.run(spec)
        metrics = runner.metrics
        assert metrics.counter("experiments.cells_run").value == 4
        assert metrics.counter("experiments.cells_skipped").value == 4
        assert metrics.counter("experiments.cells_failed").value == 1
        assert metrics.histogram("experiments.cell_seconds").count == 4

    def test_on_cell_callback(self, tmp_path):
        events = []
        store = ResultsStore(root=str(tmp_path), scale="smoke")
        runner = Runner(
            store, on_cell=lambda status, config, wall:
            events.append((status, config.experiment)),
        )
        runner.run(ExperimentSpec("dummy", scale="smoke"))
        runner.run(ExperimentSpec("dummy", scale="smoke"))
        assert events == [("ran", "dummy"), ("skipped", "dummy")]
