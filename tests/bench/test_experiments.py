"""Experiment runners produce well-formed results at a tiny scale.

These are integration tests of the harness, not accuracy assertions —
shape checks happen at the benchmark scale (see EXPERIMENTS.md).
"""

import itertools
import os
from dataclasses import replace
from types import SimpleNamespace

import pytest

import repro.bench.experiments as experiments
import repro.bench.timing as timing
from repro.core import TrainingConfig

from repro.bench import (
    SMOKE,
    clear_caches,
    fig04_zeroshot_nodes,
    fig05_overall_accuracy,
    fig06_knowledge_integration,
    fig07_data_drift,
    fig08_training_databases,
    fig09_cold_start,
    fig10_ablation,
    fig11_nodes_ablation,
    fig12_actual_cardinality,
    tab1_workload3,
    tab2_efficiency,
)

# Tiny: 4 databases, minimal workloads/epochs, shared caches across tests.
TINY = replace(
    SMOKE,
    name="tiny",
    databases=("airline", "credit", "walmart", "imdb", "tpc_h"),
    queries_per_db=40,
    w3_train=80,
    w3_synthetic=30,
    w3_scale=30,
    w3_job_light=10,
    drift_queries=25,
    drift_factors=(1.0, 2.0),
    dace_epochs=4,
    lora_epochs=3,
    baseline_epochs=3,
    queryformer_epochs=2,
    queryformer_layers=1,
    training_db_counts=(1, 3),
    cold_start_counts=(20, 60),
)


@pytest.fixture(scope="module", autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestRunners:
    def test_fig04(self):
        result = fig04_zeroshot_nodes(TINY)
        assert result["buckets"]
        assert "Fig 4" in result["table"]

    def test_fig05(self):
        result = fig05_overall_accuracy(TINY, databases=["airline", "credit"])
        assert set(result["per_db"]) == {"airline", "credit"}
        for by_model in result["per_db"].values():
            assert set(by_model) == {"Zero-Shot", "DACE", "DACE-LoRA(w2)"}

    def test_tab1(self):
        result = tab1_workload3(TINY)
        for split in ("synthetic", "scale", "job_light"):
            models = result["results"][split]
            assert set(models) == {
                "PostgreSQL", "MSCN", "QPPNet", "TPool", "QueryFormer",
                "Zero-Shot", "DACE", "DACE-LoRA",
            }
            for summary in models.values():
                assert summary.median >= 1.0

    def test_fig06(self):
        result = fig06_knowledge_integration(TINY)
        assert set(result["results"]) == {
            "MSCN", "DACE-MSCN", "QueryFormer", "DACE-QueryFormer",
        }

    def test_tab2(self):
        result = tab2_efficiency(TINY)
        dace = result["results"]["DACE"]
        assert dace["size_mb"] < result["results"]["Zero-Shot"]["size_mb"]
        assert dace["train_qps"] > 0
        assert dace["infer_qps"] > 0
        assert result["results"]["PostgreSQL"]["infer_qps"] > 0

    def test_fig07(self):
        result = fig07_data_drift(TINY)
        for model, by_factor in result["results"].items():
            assert set(by_factor) == set(TINY.drift_factors)

    def test_fig08(self):
        result = fig08_training_databases(TINY)
        for model in ("DACE", "Zero-Shot"):
            assert set(result["results"][model]) == set(
                TINY.training_db_counts
            )

    def test_fig09(self):
        result = fig09_cold_start(TINY)
        assert set(result["results"]["MSCN"]) == set(TINY.cold_start_counts)
        assert result["postgres"].median >= 1.0

    def test_fig10(self):
        result = fig10_ablation(TINY)
        assert set(result["results"]) == {
            "DACE", "DACE w/o TA", "DACE w/o SP", "DACE w/o LA",
        }

    def test_fig11(self):
        result = fig11_nodes_ablation(TINY)
        assert set(result["results"]) == {"DACE", "DACE w/o LA"}

    def test_fig12(self):
        result = fig12_actual_cardinality(TINY)
        assert set(result["results"]) == {"DACE", "DACE-A"}


class TestMatrix:
    """The experiment matrix drives real bench cells, resumably."""

    def test_runner_cell_byte_equal_to_direct_call(self, tmp_path):
        from repro.experiments import ExperimentSpec, ResultsStore, Runner, \
            load_results_from_dir

        store = ResultsStore(root=str(tmp_path), scale="tiny")
        spec = ExperimentSpec("fig04", scale=TINY)
        summary = Runner(store).run(spec)
        assert len(summary.ran) == 1

        cell = load_results_from_dir(store.cells_dir)[0]
        direct = fig04_zeroshot_nodes(TINY)
        assert cell.table == direct["table"]
        assert cell.wall_seconds > 0

        # Second run resumes from the stored cell without recomputing.
        resumed = Runner(store).run(spec)
        assert len(resumed.skipped) == 1
        assert not resumed.ran

    def test_held_out_db_axis(self, tmp_path):
        from repro.experiments import ExperimentSpec, ResultsStore, Runner, \
            load_results_from_dir

        store = ResultsStore(root=str(tmp_path), scale="tiny")
        spec = ExperimentSpec(
            "fig04", scale=TINY, axes={"exclude": ["imdb", "tpc_h"]},
        )
        summary = Runner(store).run(spec)
        assert len(summary.ran) == 2
        tables = {c.config["exclude"]: c.table
                  for c in load_results_from_dir(store.cells_dir)}
        assert "unseen imdb" in tables["imdb"]
        assert "unseen tpc_h" in tables["tpc_h"]


class TestCaching:
    def test_pretrained_dace_cached(self):
        from repro.bench import pretrain_dace
        a = pretrain_dace(TINY, exclude="imdb")
        b = pretrain_dace(TINY, exclude="imdb")
        assert a is b

    def test_different_config_not_shared(self):
        from repro.bench import pretrain_dace
        a = pretrain_dace(TINY, exclude="imdb")
        b = pretrain_dace(TINY, exclude="imdb", alpha=1.0)
        assert a is not b

    def test_bench_fit_writes_nothing_outside_results(
        self, monkeypatch, tmp_path, train_datasets
    ):
        """A bench-config fit keeps everything in memory: with ``HOME``
        pointed at an empty directory and no ``REPRO_*`` override set,
        the directory is still empty after the fit."""
        from repro.bench.cache import _dace_training
        from repro.core import DACE

        monkeypatch.setenv("HOME", str(tmp_path))
        for name in [n for n in os.environ if n.startswith("REPRO_")]:
            monkeypatch.delenv(name)
        DACE(training=_dace_training(SMOKE)).fit(train_datasets[0])
        assert os.listdir(tmp_path) == []


class TestTab2EpochCounting:
    def test_early_stop_counts_epochs_run(self, monkeypatch):
        """Tab II divides the epochs a run actually completed by its wall
        time, not the configured epochs early stopping cut short."""
        from repro.bench import get_workload3

        # Every timed region spans exactly one fake second.
        clock = itertools.count()
        monkeypatch.setattr(timing, "time",
                            SimpleNamespace(perf_counter=lambda: next(clock)))
        w3 = get_workload3(TINY)
        # A 1e-12 step never improves validation loss by the 1e-5 early-
        # stopping margin: patience=1 stops both phases after their
        # second epoch, far short of the 30 configured.
        training = TrainingConfig(epochs=30, lr=1e-12, patience=1, seed=0)
        rows = experiments.dace_efficiency(w3.train, w3.synthetic,
                                           training, lora_epochs=30)
        assert rows["DACE"]["train_qps"] == 2 * len(w3.train)
        assert rows["DACE-LoRA"]["train_qps"] == 2 * len(w3.train)

    def test_plan_epochs_by_phase(self):
        history = [{"epoch": 0}, {"epoch": 1},
                   {"epoch": 0, "phase": "fine_tune_lora"}]
        assert experiments.plan_epochs(history, 10) == 20
        assert experiments.plan_epochs(history, 10, "fine_tune_lora") == 10


class TestExpMatrixCell:
    def test_exp_matrix_tiny(self):
        """Both backends store the same cells; speedup is reported
        (but only gated by the cell's ``speedup`` check, which reads the
        stored CPU count)."""
        from repro.bench import exp_matrix

        result = exp_matrix(TINY, n_cells=2, workers=2, n_plans=20)
        assert "exp matrix fan-out" in result["table"]
        assert result["serial_failed"] == 0
        assert result["process_failed"] == 0
        assert result["identical"]
        assert result["speedup"] > 0
        assert result["cpu_count"] >= 1
