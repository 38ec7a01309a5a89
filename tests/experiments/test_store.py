"""ResultsStore: round-trips, corruption handling, report loading."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.experiments import (
    CELL_SCHEMA,
    PERF_SCHEMA,
    CellCorruptError,
    CellResult,
    ExperimentConfig,
    ResultsStore,
    RunSummary,
    format_metrics_report,
    jsonable,
    load_results_from_dir,
    write_json_atomic,
)


def make_cell(experiment="fig07", scale="smoke", **params) -> CellResult:
    config = ExperimentConfig(
        label=f"{experiment}@{scale}",
        config={"experiment": experiment, "scale": scale, **params},
    )
    return CellResult(
        config_id=config.id,
        label=config.label,
        experiment=experiment,
        scale=scale,
        config=dict(config.config),
        table=f"Fig X: {experiment}\nmodel  median\n------\nDACE  1.23",
        results={"median": 1.23},
        wall_seconds=0.5,
        created_unix=1_700_000_000.0,
    )


class TestRoundTrip:
    def test_save_load_byte_equal_table(self, tmp_path):
        store = ResultsStore(root=str(tmp_path), scale="smoke")
        cell = make_cell()
        path = store.save(cell)
        assert os.path.exists(path)
        assert path.endswith(f"{cell.config_id}.json")
        loaded = store.load(cell.config_id)
        assert loaded.table == cell.table
        assert loaded.to_payload() == cell.to_payload()

    def test_file_ends_with_newline_and_sorted_keys(self, tmp_path):
        store = ResultsStore(root=str(tmp_path), scale="smoke")
        path = store.save(make_cell())
        text = open(path).read()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert list(payload) == sorted(payload)
        assert payload["schema"] == CELL_SCHEMA

    def test_try_load_resume_probe(self, tmp_path):
        store = ResultsStore(root=str(tmp_path), scale="smoke")
        cell = make_cell()
        config = ExperimentConfig(label=cell.label, config=cell.config)
        assert store.try_load(config) is None
        store.save(cell)
        assert store.try_load(config).config_id == cell.config_id


class TestCorruption:
    def test_truncated_json_is_corrupt(self, tmp_path):
        store = ResultsStore(root=str(tmp_path), scale="smoke")
        cell = make_cell()
        path = store.save(cell)
        open(path, "w").write('{"schema": "repro.experiments/cell-v1", "co')
        with pytest.raises(CellCorruptError):
            store.load(cell.config_id)
        config = ExperimentConfig(label=cell.label, config=cell.config)
        assert store.try_load(config) is None

    def test_wrong_schema_is_corrupt(self, tmp_path):
        store = ResultsStore(root=str(tmp_path), scale="smoke")
        cell = make_cell()
        path = store.save(cell)
        payload = json.load(open(path))
        payload["schema"] = "something/else"
        json.dump(payload, open(path, "w"))
        with pytest.raises(CellCorruptError, match="schema"):
            store.load(cell.config_id)

    def test_edited_config_fails_hash_check(self, tmp_path):
        store = ResultsStore(root=str(tmp_path), scale="smoke")
        cell = make_cell(fault_rate=0.1)
        path = store.save(cell)
        payload = json.load(open(path))
        payload["config"]["fault_rate"] = 0.9
        json.dump(payload, open(path, "w"))
        with pytest.raises(CellCorruptError, match="hashes to"):
            store.load(cell.config_id)

    def test_load_all_skips_corrupt_files(self, tmp_path):
        store = ResultsStore(root=str(tmp_path), scale="smoke")
        good = make_cell(fault_rate=0.0)
        bad = make_cell(fault_rate=0.5)
        store.save(good)
        open(store.save(bad), "w").write("not json")
        cells = load_results_from_dir(store.cells_dir)
        assert [c.config_id for c in cells] == [good.config_id]


class TestDirectoryLoading:
    def test_recursive_scan_across_scales(self, tmp_path):
        ResultsStore(root=str(tmp_path), scale="smoke").save(
            make_cell(scale="smoke")
        )
        ResultsStore(root=str(tmp_path), scale="default").save(
            make_cell(scale="default")
        )
        cells = load_results_from_dir(str(tmp_path))
        assert len(cells) == 2
        # A cells/ dir given directly also works.
        direct = load_results_from_dir(
            os.path.join(str(tmp_path), "smoke", "cells")
        )
        assert len(direct) == 1

    def test_sorted_by_experiment_then_id(self, tmp_path):
        store = ResultsStore(root=str(tmp_path), scale="smoke")
        for experiment in ("tab1", "fig07", "chaos"):
            store.save(make_cell(experiment=experiment))
        cells = load_results_from_dir(store.cells_dir)
        assert [c.experiment for c in cells] == ["chaos", "fig07", "tab1"]

    def test_format_metrics_report(self, tmp_path):
        store = ResultsStore(root=str(tmp_path), scale="smoke")
        store.save(make_cell(fault_rate=0.2))
        report = format_metrics_report(load_results_from_dir(store.cells_dir))
        assert "fig07" in report
        assert "fault_rate=0.2" in report
        assert format_metrics_report([]) == "no stored cells"

    def test_clean(self, tmp_path):
        store = ResultsStore(root=str(tmp_path), scale="smoke")
        store.save(make_cell(fault_rate=0.0))
        store.save(make_cell(fault_rate=0.1))
        assert store.clean() == 2
        assert load_results_from_dir(store.cells_dir) == []
        assert store.clean() == 0


class TestJsonable:
    def test_dataclasses_numpy_and_fallback(self):
        @dataclasses.dataclass(frozen=True)
        class Summary:
            median: float
            count: int

        out = jsonable({
            "summary": Summary(1.5, 10),
            "array": np.array([1.0, 2.0]),
            "np_int": np.int64(7),
            "tuple": (1, 2),
            "opaque": object,
        })
        assert out["summary"] == {"median": 1.5, "count": 10}
        assert out["array"] == [1.0, 2.0]
        assert out["np_int"] == 7
        assert out["tuple"] == [1, 2]
        assert isinstance(out["opaque"], str)
        json.dumps(out)  # everything must be serializable


class TestPerfRecord:
    def test_write_perf_record_keeps_fields(self, tmp_path):
        path = str(tmp_path / "BENCH_example.json")
        ResultsStore.write_perf_record(path, {
            "benchmark": "train_throughput",
            "speedup": np.float64(3.4),
        })
        payload = json.load(open(path))
        assert payload["benchmark"] == "train_throughput"
        assert payload["speedup"] == 3.4
        assert payload["schema"] == PERF_SCHEMA


class TestRunSummary:
    def test_format_counts(self, tmp_path):
        summary = RunSummary(scale="smoke", wall_seconds=1.25)
        summary.ran.append({"config_id": "a"})
        summary.skipped.extend([{"config_id": "b"}, {"config_id": "c"}])
        line = summary.format()
        assert "matrix complete @ smoke: 3 cells" in line
        assert "(ran 1, skipped 2, failed 0)" in line
        store = ResultsStore(root=str(tmp_path), scale="smoke")
        path = store.save_run_summary(summary)
        assert json.load(open(path))["scale"] == "smoke"


class TestAtomicWrite:
    def test_no_temp_residue(self, tmp_path):
        path = str(tmp_path / "deep" / "cell.json")
        write_json_atomic(path, {"ok": True})
        assert json.load(open(path)) == {"ok": True}
        residue = [
            name for name in os.listdir(str(tmp_path / "deep"))
            if name.startswith(".tmp-")
        ]
        assert residue == []
