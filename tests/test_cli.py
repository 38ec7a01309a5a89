"""End-to-end CLI workflows."""

import math
import os
import re

import pytest

from repro.cli import main
from repro.experiments import CellResult, ExperimentSpec, ResultsStore

# Results that pass every check of their cell.
PASSING = {
    "serving": {"cached_speedup": 7.5, "batched_speedup": 5.3,
                "cache_hit_rate": 1.0},
    "concurrency": {"all_bit_identical": True, "miss_speedup_8": 2.1,
                    "hit_speedup_8": 1.8},
}


def store_cell(root, experiment: str, results: dict) -> str:
    """Store a smoke cell of ``experiment`` at its default parameters."""
    config = ExperimentSpec(experiment, scale="smoke").expand()[0]
    return ResultsStore(root=str(root), scale="smoke").save(CellResult(
        config_id=config.id, label=config.label, experiment=experiment,
        scale="smoke", config=dict(config.config), table="t",
        results=results,
    ))


def assert_serial_batches(out: str, max_batch: int) -> None:
    """The serial replay priced ``max_batch``-plan chunks, every repeat."""
    plans, repeat = map(int, re.search(
        r"over (\d+) plans \(x(\d+)\)", out).groups())
    batches = int(re.search(r"^batches: (\d+) ", out, re.M).group(1))
    assert batches == math.ceil(plans / max_batch) * repeat


class TestCLI:
    def test_zoo_listing(self, capsys):
        assert main(["zoo"]) == 0
        out = capsys.readouterr().out
        assert "imdb" in out
        assert "tpc_h" in out

    def test_collect_train_evaluate_explain(self, tmp_path, capsys):
        workload = str(tmp_path / "airline.jsonl")
        model_dir = str(tmp_path / "model")
        assert main([
            "collect", "--db", "airline", "--count", "60",
            "--out", workload,
        ]) == 0
        assert os.path.exists(workload)

        assert main([
            "train", "--workload", workload, "--out", model_dir,
            "--epochs", "5",
        ]) == 0
        assert os.path.exists(os.path.join(model_dir, "weights.npz"))

        assert main([
            "evaluate", "--model", model_dir, "--workload", workload,
        ]) == 0
        out = capsys.readouterr().out
        assert "median" in out

        assert main([
            "explain", "--db", "airline", "--analyze",
            "--model", model_dir,
            "--sql", "SELECT COUNT(*) FROM fact",
        ]) == 0
        out = capsys.readouterr().out
        assert "Aggregate" in out
        assert "DACE predicted latency" in out

    def test_finetune(self, tmp_path, capsys):
        workload = str(tmp_path / "credit.jsonl")
        workload_m2 = str(tmp_path / "credit_m2.jsonl")
        model_dir = str(tmp_path / "model")
        tuned_dir = str(tmp_path / "tuned")
        main(["collect", "--db", "credit", "--count", "50",
              "--out", workload])
        main(["collect", "--db", "credit", "--count", "50",
              "--machine", "M2", "--out", workload_m2])
        main(["train", "--workload", workload, "--out", model_dir,
              "--epochs", "4"])
        assert main([
            "finetune", "--model", model_dir, "--workload", workload_m2,
            "--out", tuned_dir, "--epochs", "3",
        ]) == 0
        assert os.path.exists(os.path.join(tuned_dir, "weights.npz"))

    def test_unknown_db_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["collect", "--db", "nope", "--out",
                  str(tmp_path / "x.jsonl")])

    def test_serve_metrics_and_obs(self, tmp_path, capsys):
        workload = str(tmp_path / "airline.jsonl")
        model_dir = str(tmp_path / "model")
        metrics_path = str(tmp_path / "metrics.jsonl")
        main(["collect", "--db", "airline", "--count", "40",
              "--out", workload])
        main(["train", "--workload", workload, "--out", model_dir,
              "--epochs", "3"])

        assert main([
            "serve", "--model", model_dir, "--workload", workload,
            "--metrics", metrics_path, "--max-batch", "16",
        ]) == 0
        out = capsys.readouterr().out
        assert "plans/s" in out
        assert_serial_batches(out, 16)
        assert metrics_path in out
        assert os.path.exists(metrics_path)
        dump = open(metrics_path).read()
        for name in ("serve.encode_seconds", "serve.forward_seconds",
                     "serve.cache.hits", "serve.batch_size"):
            assert name in dump

        assert main(["obs", metrics_path]) == 0
        table = capsys.readouterr().out
        assert "serve.encode_seconds" in table
        assert "p99" in table

        assert main(["obs", metrics_path, "--format", "prom"]) == 0
        prom = capsys.readouterr().out
        assert "serve_encode_seconds_bucket" in prom

        prom_path = str(tmp_path / "metrics.prom")
        assert main([
            "serve", "--model", model_dir, "--workload", workload,
            "--metrics", prom_path, "--metrics-format", "prom",
        ]) == 0
        capsys.readouterr()
        assert "# TYPE serve_cache_hits counter" in open(prom_path).read()

        table_path = str(tmp_path / "metrics.txt")
        assert main([
            "serve", "--model", model_dir, "--workload", workload,
            "--metrics", table_path, "--metrics-format", "table",
        ]) == 0
        capsys.readouterr()
        assert "-- histograms --" in open(table_path).read()

    def test_exp_check_passing_cell_exits_0(self, tmp_path, capsys):
        store_cell(tmp_path, "serving", PASSING["serving"])
        assert main(["exp", "check", "serving",
                     "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert "cached_speedup" in out

    @pytest.mark.parametrize("experiment, key, value", [
        ("serving", "cached_speedup", 4.99),
        ("concurrency", "all_bit_identical", False),
    ])
    def test_exp_check_failing_predicate_exits_1(self, tmp_path, capsys,
                                                 experiment, key, value):
        store_cell(tmp_path, experiment,
                   dict(PASSING[experiment], **{key: value}))
        assert main(["exp", "check", experiment,
                     "--results-dir", str(tmp_path)]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.rstrip().endswith("FAIL")]
        assert len(failed) == 1 and key in failed[0]

    def test_exp_check_missing_cell_exits_1(self, tmp_path, capsys):
        store_cell(tmp_path, "serving", PASSING["serving"])
        assert main(["exp", "check", "serving", "concurrency",
                     "--results-dir", str(tmp_path)]) == 1
        assert "1 failed" in capsys.readouterr().out

    def test_exp_check_corrupt_cell_exits_1(self, tmp_path, capsys):
        path = store_cell(tmp_path, "serving", PASSING["serving"])
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 2])
        assert main(["exp", "check", "serving",
                     "--results-dir", str(tmp_path)]) == 1
        assert "readable" in capsys.readouterr().out

    def test_exp_check_unknown_experiment(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["exp", "check", "nonexistent",
                  "--results-dir", str(tmp_path)])
        assert info.value.code == 2
        assert "valid names" in capsys.readouterr().err

    def test_serve_fleet_shards(self, tmp_path, capsys):
        workload = str(tmp_path / "airline.jsonl")
        model_dir = str(tmp_path / "model")
        metrics_path = str(tmp_path / "fleet_metrics.jsonl")
        main(["collect", "--db", "airline", "--count", "30",
              "--out", workload])
        main(["train", "--workload", workload, "--out", model_dir,
              "--epochs", "3"])

        # Multi-tenant sharded replay: routed + cache accounting printed,
        # every prediction finite, fleet metrics exported.
        assert main([
            "serve", "--model", model_dir, "--workload", workload,
            "--shards", "2", "--tenants", "3", "--repeat", "2",
            "--metrics", metrics_path,
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet: shards=2 tenants=4" in out
        assert "fleet cache:" in out
        assert "WARNING" not in out
        dump = open(metrics_path).read()
        for name in ("fleet.requests", "fleet.routed", "fleet.shed",
                     "fleet.swaps", "fleet.cache.hits",
                     "fleet.wait_seconds"):
            assert name in dump

        # Sharded + chaos routes through the resilience boundary.
        assert main([
            "serve", "--model", model_dir, "--workload", workload,
            "--shards", "2", "--chaos", "1.0", "--chaos-seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet: shards=2" in out
        assert "resilience: degraded=" in out
        assert "WARNING" not in out

        # A shard has no worker pool: asking for one is refused.
        with pytest.raises(SystemExit, match="exclusive"):
            main(["serve", "--model", model_dir, "--workload", workload,
                  "--shards", "2", "--workers", "2"])

    def test_serve_chaos_and_resilient(self, tmp_path, capsys):
        workload = str(tmp_path / "airline.jsonl")
        model_dir = str(tmp_path / "model")
        main(["collect", "--db", "airline", "--count", "30",
              "--out", workload])
        main(["train", "--workload", workload, "--out", model_dir,
              "--epochs", "3"])

        # Healthy resilient replay: the wrapper is transparent.
        assert main([
            "serve", "--model", model_dir, "--workload", workload,
            "--resilient",
        ]) == 0
        out = capsys.readouterr().out
        assert "resilience: degraded=0 (0.0% of predictions)" in out

        # Total-fault chaos replay: every call faults, yet the replay
        # finishes cleanly and nothing non-finite escapes.  (Latency
        # faults still answer: the contract is zero raises and zero
        # NaNs, not all-degraded.)
        assert main([
            "serve", "--model", model_dir, "--workload", workload,
            "--chaos", "1.0", "--chaos-seed", "7",
            "--max-batch", "8", "--repeat", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert_serial_batches(out, 8)
        assert "chaos: fault_rate=100%" in out
        assert "resilience: degraded=" in out
        assert "of predictions)" in out
        assert "injected=" in out
        assert "WARNING" not in out

        # Pool over resilient-over-chaos: the worker pool must route
        # through the fault-tolerance tiers, not reach the inner service
        # via delegation.  With every call erroring, all predictions
        # come from the fallback and chaos must show injected faults —
        # the hasattr-based fast path answered healthily with zero.
        assert main([
            "serve", "--model", model_dir, "--workload", workload,
            "--workers", "2", "--chaos", "1.0", "--chaos-seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "pool: workers=2" in out
        assert "chaos: fault_rate=100%" in out
        assert "injected={'error': 0" not in out
        assert "degraded=0 " not in out
        assert "WARNING" not in out
