"""`repro exp` CLI group: run/resume/report/ls/clean end to end."""

import json
import os

import pytest

from repro.bench.config import BenchScale
from repro.cli import main
from repro.experiments import register_cell
from repro.experiments.registry import _CELLS
from repro.metrics.tables import format_table


def tiny_cell(scale: BenchScale, gain: float = 1.0) -> dict:
    table = format_table(
        ["gain", "value"], [[gain, scale.seed + gain]],
        title=f"tiny @ {scale.name}",
    )
    return {"table": table, "value": scale.seed + gain}


def checked_cell(scale: BenchScale, gain: float = 1.0) -> dict:
    return tiny_cell(scale, gain)


@pytest.fixture(autouse=True)
def registered_tiny():
    register_cell("tiny", tiny_cell)
    register_cell("checked", checked_cell,
                  checks={"value": lambda r, c: r["value"] > 0})
    yield
    _CELLS.pop("tiny", None)
    _CELLS.pop("checked", None)


class TestExpRun:
    def test_run_then_resume(self, tmp_path, capsys):
        argv = ["exp", "run", "tiny", "--scale", "smoke",
                "--axis", "gain=1.0,2.0",
                "--results-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(ran 2, skipped 0, failed 0)" in out
        assert out.count("[ran ]") == 2

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(ran 0, skipped 2, failed 0)" in out
        assert out.count("[skip]") == 2

        cells = os.listdir(os.path.join(str(tmp_path), "smoke", "cells"))
        assert len(cells) == 2

    def test_metrics_dump(self, tmp_path, capsys):
        metrics_path = str(tmp_path / "exp-metrics.jsonl")
        assert main(["exp", "run", "tiny", "--results-dir", str(tmp_path),
                     "--metrics", metrics_path]) == 0
        capsys.readouterr()
        dump = open(metrics_path).read()
        assert "experiments.cells_run" in dump
        assert "experiments.cell_seconds" in dump

    def test_unknown_experiment_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["exp", "run", "nonexistent",
                  "--results-dir", str(tmp_path)])
        assert info.value.code == 2
        assert "valid names" in capsys.readouterr().err

    def test_unknown_axis_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["exp", "run", "tiny", "--axis", "bogus=1",
                  "--results-dir", str(tmp_path)])
        assert info.value.code == 2
        assert "unknown axis" in capsys.readouterr().err

    def test_malformed_axis_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["exp", "run", "tiny", "--axis", "noequals",
                  "--results-dir", str(tmp_path)])


class TestExpBackend:
    def test_process_backend_then_thread_resume(self, tmp_path, capsys):
        """Cells written by the process backend resume under thread."""
        argv = ["exp", "run", "tiny", "--axis", "gain=1.0,2.0",
                "--results-dir", str(tmp_path)]
        assert main(argv + ["--backend", "process", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "(ran 2, skipped 0, failed 0)" in out

        assert main(argv + ["--backend", "thread"]) == 0
        out = capsys.readouterr().out
        assert "(ran 0, skipped 2, failed 0)" in out

    def test_timeout_requires_process_backend(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["exp", "run", "tiny", "--results-dir", str(tmp_path),
                  "--backend", "thread", "--timeout", "5"])
        assert info.value.code == 2
        assert "backend='process'" in capsys.readouterr().err

    def test_unknown_backend_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["exp", "run", "tiny", "--results-dir", str(tmp_path),
                  "--backend", "fork"])


class TestExpReport:
    def test_report_matches_direct_run(self, tmp_path, capsys):
        from repro.bench.config import SMOKE

        assert main(["exp", "run", "tiny",
                     "--results-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["exp", "report", "--experiment", "tiny",
                     "--results-dir", str(tmp_path)]) == 0
        reported = capsys.readouterr().out
        assert reported == tiny_cell(SMOKE)["table"] + "\n"

    def test_report_files_default_cell_outputs(self, tmp_path, capsys,
                                               monkeypatch):
        """Only the default-parameter cell files its table and, for a
        checked cell, its perf record; an axis sweep writes neither."""
        from repro.bench.config import SMOKE

        monkeypatch.chdir(tmp_path)
        results = str(tmp_path / "results")
        for experiment in ("tiny", "checked"):
            main(["exp", "run", experiment, "--results-dir", results])
            main(["exp", "run", experiment, "--axis", "gain=5.0",
                  "--results-dir", results])
        capsys.readouterr()
        assert main(["exp", "report", "--results-dir", results]) == 0
        capsys.readouterr()

        table = tiny_cell(SMOKE)["table"] + "\n"
        for name in ("tiny_cell", "checked_cell"):
            path = os.path.join(results, "smoke", f"{name}.txt")
            assert open(path).read() == table
        assert sorted(p.name for p in tmp_path.glob("BENCH_*")) == [
            "BENCH_checked_cell.json"]
        record = json.load(open(tmp_path / "BENCH_checked_cell.json"))
        assert record == {
            "benchmark": "checked_cell", "scale": "smoke", "value": 1.0,
            "schema": "repro.experiments/perf-v1",
        }

    def test_report_without_cells_errors(self, tmp_path, capsys):
        assert main(["exp", "report",
                     "--results-dir", str(tmp_path)]) == 1
        assert "no stored cells" in capsys.readouterr().err


class TestExpLsAndClean:
    def test_ls_and_clean(self, tmp_path, capsys):
        main(["exp", "run", "tiny", "--axis", "gain=1.0,3.0",
              "--results-dir", str(tmp_path)])
        capsys.readouterr()

        assert main(["exp", "ls", "--results-dir", str(tmp_path)]) == 0
        listing = capsys.readouterr().out
        assert "2 stored cell(s)" in listing
        assert "gain=1.0" in listing and "gain=3.0" in listing

        assert main(["exp", "clean", "--scale", "smoke",
                     "--results-dir", str(tmp_path)]) == 0
        assert "removed 2 cell(s)" in capsys.readouterr().out

        assert main(["exp", "ls", "--results-dir", str(tmp_path)]) == 0
        assert "no stored cells" in capsys.readouterr().out


class TestAxisParsing:
    def test_value_types(self, tmp_path):
        from repro.cli import _parse_axis_value, _parse_axes

        assert _parse_axis_value("3") == 3
        assert _parse_axis_value("0.5") == 0.5
        assert _parse_axis_value("true") is True
        assert _parse_axis_value("imdb") == "imdb"
        assert _parse_axis_value("1.0:2.0") == (1.0, 2.0)
        axes = _parse_axes(["fault_rate=0.0,0.2", "exclude=imdb"])
        assert axes == {"fault_rate": [0.0, 0.2], "exclude": ["imdb"]}

    def test_run_summary_written(self, tmp_path, capsys):
        main(["exp", "run", "tiny", "--results-dir", str(tmp_path)])
        capsys.readouterr()
        runs_dir = os.path.join(str(tmp_path), "smoke", "runs")
        files = os.listdir(runs_dir)
        assert len(files) == 1
        payload = json.load(open(os.path.join(runs_dir, files[0])))
        assert payload["schema"] == "repro.experiments/run-v1"
        assert len(payload["ran"]) == 1
