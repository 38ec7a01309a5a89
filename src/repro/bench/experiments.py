"""Experiment runners: one per table/figure of the paper's evaluation.

Each runner returns a dict with structured results plus a ``table`` key
holding the rendered rows/series in the paper's format.  See DESIGN.md for
the experiment index and EXPERIMENTS.md for paper-vs-measured shapes.
"""

from __future__ import annotations

import copy
import statistics
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.baselines import (
    DACEIntegration,
    MSCNModel,
    PostgresCostBaseline,
    QPPNetModel,
    QueryFormerModel,
    TPoolModel,
    ZeroShotModel,
)
from repro.bench.cache import (
    get_workload1,
    get_workload2,
    get_workload3,
    pretrain_dace,
    pretrain_zeroshot,
)
from repro.bench.config import DEFAULT, BenchScale
from repro.bench.timing import seconds
from repro.experiments.registry import cell
from repro.catalog.zoo import load_database
from repro.core import DACE, TrainingConfig
from repro.metrics import format_table, qerror_summary
from repro.metrics.qerror import QErrorSummary
from repro.workloads import PlanDataset, drift_datasets
from repro.workloads.drift import drift_queries
from repro.workloads.dataset import collect_workload

NODE_BUCKETS = ((2, 5), (6, 8), (9, 11), (12, 14), (15, 99))


def _bucket_label(bucket) -> str:
    low, high = bucket
    return f"{low}-{high}" if high < 99 else f"{low}+"


def _bucketed_qerror(
    predictions: np.ndarray, dataset: PlanDataset
) -> Dict[str, QErrorSummary]:
    node_counts = np.array([s.num_nodes for s in dataset])
    actual = dataset.latencies()
    out: Dict[str, QErrorSummary] = {}
    for bucket in NODE_BUCKETS:
        mask = (node_counts >= bucket[0]) & (node_counts <= bucket[1])
        if mask.sum() >= 3:
            out[_bucket_label(bucket)] = qerror_summary(
                predictions[mask], actual[mask]
            )
    return out


# --------------------------------------------------------------------- #
# Fig 4 — motivation: Zero-Shot q-error grows with plan size
# --------------------------------------------------------------------- #
@cell("fig04")
def fig04_zeroshot_nodes(scale: BenchScale = DEFAULT,
                         exclude: str = "imdb") -> dict:
    """Zero-Shot's mean q-error by number of plan nodes (leave-one-out).

    ``exclude`` names the held-out database — the paper's figure holds
    out IMDB, and the experiment matrix sweeps it as an axis.
    """
    test = get_workload1(scale)[exclude]
    model = pretrain_zeroshot(scale, exclude=exclude)
    buckets = _bucketed_qerror(model.predict_ms(test), test)
    rows = [[label, s.mean, s.median, s.count] for label, s in buckets.items()]
    table = format_table(
        ["nodes", "mean qerror", "median qerror", "queries"], rows,
        title=f"Fig 4: Zero-Shot accuracy by plan size "
              f"(tested on unseen {exclude})",
    )
    return {"buckets": buckets, "table": table}


# --------------------------------------------------------------------- #
# Fig 5 — overall accuracy on workloads 1 and 2
# --------------------------------------------------------------------- #
@cell("fig05")
def fig05_overall_accuracy(
    scale: BenchScale = DEFAULT,
    databases: Optional[Sequence[str]] = None,
) -> dict:
    """Per-database leave-one-out medians: Zero-Shot and DACE on workload 1,
    DACE-LoRA (across-more) on workload 2."""
    w1 = get_workload1(scale)
    w2 = get_workload2(scale)
    databases = list(databases) if databases else list(scale.databases)
    per_db: Dict[str, dict] = {}
    for name in databases:
        zero_shot = pretrain_zeroshot(scale, exclude=name)
        dace = pretrain_dace(scale, exclude=name)
        zs_summary = qerror_summary(
            zero_shot.predict_ms(w1[name]), w1[name].latencies()
        )
        dace_summary = qerror_summary(
            dace.predict(w1[name]), w1[name].latencies()
        )
        # Across-more: fine-tune the pre-trained DACE on the other 19
        # databases' M2 labels, then test on the held-out database on M2.
        import copy
        dace_lora = copy.deepcopy(dace)
        tune_sets = [w2[n] for n in scale.databases if n != name]
        dace_lora.fine_tune_lora(
            PlanDataset.merge(tune_sets), epochs=scale.lora_epochs
        )
        lora_summary = qerror_summary(
            dace_lora.predict(w2[name]), w2[name].latencies()
        )
        per_db[name] = {
            "Zero-Shot": zs_summary,
            "DACE": dace_summary,
            "DACE-LoRA(w2)": lora_summary,
        }
    rows = [
        [name,
         result["Zero-Shot"].median,
         result["DACE"].median,
         result["DACE-LoRA(w2)"].median]
        for name, result in per_db.items()
    ]
    dace_wins = sum(
        1 for r in per_db.values()
        if r["DACE"].median <= r["Zero-Shot"].median
    )
    table = format_table(
        ["database", "Zero-Shot median", "DACE median", "DACE-LoRA median (w2)"],
        rows,
        title=(f"Fig 5: overall accuracy, leave-one-out "
               f"(DACE beats Zero-Shot on {dace_wins}/{len(per_db)} dbs)"),
    )
    return {"per_db": per_db, "dace_wins": dace_wins, "table": table}


# --------------------------------------------------------------------- #
# Tab I — workload 3 accuracy for every model
# --------------------------------------------------------------------- #
@cell("tab1")
def tab1_workload3(scale: BenchScale = DEFAULT) -> dict:
    """q-error percentiles on Synthetic/Scale/JOB-light for all models."""
    w3 = get_workload3(scale)
    imdb = load_database("imdb")

    models: Dict[str, object] = {}
    models["PostgreSQL"] = PostgresCostBaseline().fit(w3.train)
    models["MSCN"] = MSCNModel(
        imdb, epochs=scale.baseline_epochs, seed=scale.seed
    ).fit(w3.train)
    models["QPPNet"] = QPPNetModel(
        epochs=scale.baseline_epochs, seed=scale.seed
    ).fit(w3.train)
    models["TPool"] = TPoolModel(
        epochs=scale.baseline_epochs, seed=scale.seed
    ).fit(w3.train)
    models["QueryFormer"] = QueryFormerModel(
        epochs=scale.queryformer_epochs,
        n_layers=scale.queryformer_layers,
        seed=scale.seed,
    ).fit(w3.train)
    models["Zero-Shot"] = pretrain_zeroshot(scale, exclude="imdb")

    dace = pretrain_dace(scale, exclude="imdb")
    models["DACE"] = dace

    import copy
    dace_lora = copy.deepcopy(dace)
    dace_lora.fine_tune_lora(w3.train, epochs=scale.lora_epochs)
    models["DACE-LoRA"] = dace_lora

    def predictions(model, dataset):
        if hasattr(model, "predict_ms"):
            return model.predict_ms(dataset)
        return model.predict(dataset)

    results: Dict[str, Dict[str, QErrorSummary]] = {}
    for split_name, split in w3.test_splits().items():
        results[split_name] = {
            name: qerror_summary(predictions(model, split), split.latencies())
            for name, model in models.items()
        }

    tables = []
    for split_name, by_model in results.items():
        rows = [[name] + summary.as_row()
                for name, summary in by_model.items()]
        tables.append(format_table(
            ["model", "median", "90th", "95th", "99th", "max", "mean"],
            rows,
            title=f"Tab I ({split_name}): q-error on workload 3",
        ))
    return {"results": results, "table": "\n\n".join(tables)}


# --------------------------------------------------------------------- #
# Fig 6 — knowledge integration on JOB-light
# --------------------------------------------------------------------- #
@cell("fig06")
def fig06_knowledge_integration(scale: BenchScale = DEFAULT) -> dict:
    """MSCN and QueryFormer with vs without the DACE encoder (JOB-light)."""
    w3 = get_workload3(scale)
    imdb = load_database("imdb")
    dace = pretrain_dace(scale, exclude="imdb")

    models = {
        "MSCN": MSCNModel(
            imdb, epochs=scale.baseline_epochs, seed=scale.seed
        ),
        "DACE-MSCN": DACEIntegration(MSCNModel(
            imdb, context_dim=dace.embedding_dim,
            epochs=scale.baseline_epochs, seed=scale.seed,
        ), dace),
        "QueryFormer": QueryFormerModel(
            epochs=scale.queryformer_epochs,
            n_layers=scale.queryformer_layers,
            seed=scale.seed,
        ),
        "DACE-QueryFormer": DACEIntegration(QueryFormerModel(
            context_dim=dace.embedding_dim,
            epochs=scale.queryformer_epochs,
            n_layers=scale.queryformer_layers,
            seed=scale.seed,
        ), dace),
    }
    results = {}
    for name, model in models.items():
        model.fit(w3.train)
        results[name] = qerror_summary(
            model.predict_ms(w3.job_light), w3.job_light.latencies()
        )
    rows = [[name] + summary.as_row() for name, summary in results.items()]
    table = format_table(
        ["model", "median", "90th", "95th", "99th", "max", "mean"],
        rows,
        title="Fig 6: knowledge integration on JOB-light",
    )
    return {"results": results, "table": table}


# --------------------------------------------------------------------- #
# Tab II — efficiency
# --------------------------------------------------------------------- #
def plan_epochs(history: Sequence[dict], plans: int, phase=None) -> int:
    """Plan-epochs a run actually completed: ``plans`` times its
    ``history`` entries of ``phase``.  Early stopping can end a run
    before its configured epochs, so the configured count overstates
    the work."""
    return plans * sum(1 for epoch in history if epoch.get("phase") == phase)


#: Cold predictions per inference row; the row reports their median.
COLD_REPEATS = 5


def cold_qps(predict: Callable, items: Sequence,
             clear: Callable[[], None] = lambda: None) -> float:
    """Items/s of ``predict(items)``, the median of ``COLD_REPEATS``
    cold calls: before each, outside the clock, ``clear()`` empties the
    model's caches and the items are cloned, so no repeat times a cache
    hit."""
    def cold_copy():
        clear()
        return copy.deepcopy(items)

    times = [seconds(predict, cold_copy)[0] for _ in range(COLD_REPEATS)]
    return len(items) / statistics.median(times)


def dace_efficiency(
    train: PlanDataset,
    test: PlanDataset,
    training: TrainingConfig,
    lora_epochs: int,
) -> Dict[str, dict]:
    """Tab II's DACE and DACE-LoRA rows: pre-train, then LoRA-tune on
    ``train``, timing each with the epochs it actually ran."""
    dace = DACE(training=training)
    history = dace.trainer.history
    fit_s, _ = seconds(lambda: dace.fit(train))
    train_qps = plan_epochs(history, len(train)) / fit_s
    infer_qps = cold_qps(dace.predict, test, dace.service.invalidate)

    began = len(history)
    tune_s, _ = seconds(lambda: dace.fine_tune_lora(train, epochs=lora_epochs))
    tuned = plan_epochs(history[began:], len(train), "fine_tune_lora")
    tune_qps = tuned / tune_s
    lora_infer_qps = cold_qps(dace.predict, test, dace.service.invalidate)
    return {
        "DACE": {
            "size_mb": dace.size_mb(),
            "train_qps": train_qps,
            "infer_qps": infer_qps,
        },
        "DACE-LoRA": {
            "size_mb": dace.size_mb(include_lora=True) - dace.size_mb(),
            "train_qps": tune_qps,
            "infer_qps": lora_infer_qps,
        },
    }


@cell("tab2")
def tab2_efficiency(scale: BenchScale = DEFAULT) -> dict:
    """Model size, training throughput, inference throughput.

    Fits are timed once; each inference row is the median of repeated
    cold predictions (:func:`cold_qps`).
    """
    w3 = get_workload3(scale)
    train = w3.train
    test = w3.synthetic
    imdb = load_database("imdb")

    rows: List[list] = []

    # PostgreSQL: inference = the planner's own cost-estimation throughput.
    from repro.engine.session import EngineSession
    session = EngineSession(imdb, seed=scale.seed)
    pg_infer = cold_qps(
        lambda queries: [session.explain(query) for query in queries],
        [s.query for s in test],
    )
    rows.append(["PostgreSQL", "-", "-", pg_infer])

    results: Dict[str, dict] = {"PostgreSQL": {"infer_qps": pg_infer}}

    def bench(name: str, model) -> None:
        fit_s, _ = seconds(lambda: model.fit(train))
        train_qps = len(train) * getattr(model, "epochs", 1) / fit_s
        predict = model.predict_ms if hasattr(model, "predict_ms") \
            else model.predict
        infer_qps = cold_qps(predict, test)
        size = model.size_mb()
        rows.append([name, size, train_qps, infer_qps])
        results[name] = {
            "size_mb": size, "train_qps": train_qps, "infer_qps": infer_qps,
        }

    bench("MSCN", MSCNModel(imdb, epochs=scale.baseline_epochs,
                            seed=scale.seed))
    bench("QPPNet", QPPNetModel(epochs=scale.baseline_epochs, seed=scale.seed))
    bench("TPool", TPoolModel(epochs=scale.baseline_epochs, seed=scale.seed))
    bench("QueryFormer", QueryFormerModel(
        epochs=scale.queryformer_epochs, n_layers=scale.queryformer_layers,
        seed=scale.seed,
    ))
    bench("Zero-Shot", ZeroShotModel(epochs=scale.baseline_epochs,
                                     seed=scale.seed))

    dace_rows = dace_efficiency(
        train, test,
        TrainingConfig(epochs=scale.dace_epochs, batch_size=64,
                       seed=scale.seed),
        lora_epochs=scale.lora_epochs,
    )
    for name in ("DACE-LoRA", "DACE"):
        row = dace_rows[name]
        rows.append([name, row["size_mb"], row["train_qps"],
                     row["infer_qps"]])
    results.update(dace_rows)

    table = format_table(
        ["model", "size (MB)", "train q/s", "infer q/s"], rows,
        title="Tab II: efficiency analysis",
    )
    return {"results": results, "table": table}


# --------------------------------------------------------------------- #
# Fig 7 — data drift on TPC-H
# --------------------------------------------------------------------- #
@cell("fig07")
def fig07_data_drift(scale: BenchScale = DEFAULT) -> dict:
    """Median/95th q-error on TPC-H at growing scale factors."""
    datasets = drift_datasets(
        num_queries=scale.drift_queries,
        scale_factors=scale.drift_factors,
        seed=scale.seed,
    )
    base = datasets[scale.drift_factors[0]]

    # WDMs train on TPC-H at the base scale with their own workload.
    tpch = load_database("tpc_h")
    wdm_train_queries = drift_queries(scale.drift_queries, seed=scale.seed + 99)
    wdm_train = collect_workload(tpch, wdm_train_queries, seed=scale.seed)

    models: Dict[str, object] = {
        "PostgreSQL": PostgresCostBaseline().fit(wdm_train),
        "MSCN": MSCNModel(
            tpch, epochs=scale.baseline_epochs, seed=scale.seed
        ).fit(wdm_train),
        "QueryFormer": QueryFormerModel(
            epochs=scale.queryformer_epochs,
            n_layers=scale.queryformer_layers,
            seed=scale.seed,
        ).fit(wdm_train),
        "Zero-Shot": pretrain_zeroshot(scale, exclude="tpc_h"),
        "DACE": pretrain_dace(scale, exclude="tpc_h"),
    }

    def predictions(model, dataset):
        if hasattr(model, "predict_ms"):
            return model.predict_ms(dataset)
        return model.predict(dataset)

    results: Dict[str, Dict[float, QErrorSummary]] = {
        name: {} for name in models
    }
    for factor, dataset in datasets.items():
        for name, model in models.items():
            results[name][factor] = qerror_summary(
                predictions(model, dataset), dataset.latencies()
            )
    rows = []
    for name, by_factor in results.items():
        for factor, summary in by_factor.items():
            rows.append([name, factor, summary.median, summary.p95])
    table = format_table(
        ["model", "scale factor", "median", "95th"], rows,
        title="Fig 7: robustness under TPC-H data drift",
    )
    return {"results": results, "table": table}


# --------------------------------------------------------------------- #
# Fig 8 — accuracy by number of training databases
# --------------------------------------------------------------------- #
@cell("fig08")
def fig08_training_databases(scale: BenchScale = DEFAULT) -> dict:
    """DACE vs Zero-Shot on workload-3 splits as training dbs grow."""
    w3 = get_workload3(scale)
    results: Dict[str, Dict[int, Dict[str, float]]] = {
        "DACE": {}, "Zero-Shot": {},
    }
    for count in scale.training_db_counts:
        dace = pretrain_dace(scale, exclude="imdb", num_training_dbs=count)
        zero_shot = pretrain_zeroshot(
            scale, exclude="imdb", num_training_dbs=count
        )
        results["DACE"][count] = {}
        results["Zero-Shot"][count] = {}
        for split_name, split in w3.test_splits().items():
            results["DACE"][count][split_name] = qerror_summary(
                dace.predict(split), split.latencies()
            ).median
            results["Zero-Shot"][count][split_name] = qerror_summary(
                zero_shot.predict_ms(split), split.latencies()
            ).median
    rows = []
    for model_name, by_count in results.items():
        for count, by_split in by_count.items():
            rows.append([
                model_name, count,
                by_split["synthetic"], by_split["scale"],
                by_split["job_light"],
            ])
    table = format_table(
        ["model", "training dbs", "synthetic med", "scale med",
         "job-light med"],
        rows,
        title="Fig 8: accuracy by number of training databases",
    )
    return {"results": results, "table": table}


# --------------------------------------------------------------------- #
# Fig 9 — cold start: MSCN vs DACE-MSCN by training queries
# --------------------------------------------------------------------- #
@cell("fig09")
def fig09_cold_start(scale: BenchScale = DEFAULT) -> dict:
    """MSCN vs DACE-MSCN at growing training-set sizes (JOB-light eval)."""
    w3 = get_workload3(scale)
    imdb = load_database("imdb")
    dace = pretrain_dace(scale, exclude="imdb")
    test = w3.job_light
    pg = PostgresCostBaseline().fit(w3.train)
    pg_summary = qerror_summary(pg.predict_ms(test), test.latencies())

    results: Dict[str, Dict[int, QErrorSummary]] = {
        "MSCN": {}, "DACE-MSCN": {},
    }
    for count in scale.cold_start_counts:
        subset = w3.train.subset(count, seed=scale.seed)
        mscn = MSCNModel(
            imdb, epochs=scale.baseline_epochs, seed=scale.seed
        ).fit(subset)
        hybrid = DACEIntegration(MSCNModel(
            imdb, context_dim=dace.embedding_dim,
            epochs=scale.baseline_epochs, seed=scale.seed,
        ), dace).fit(subset)
        results["MSCN"][count] = qerror_summary(
            mscn.predict_ms(test), test.latencies()
        )
        results["DACE-MSCN"][count] = qerror_summary(
            hybrid.predict_ms(test), test.latencies()
        )
    rows = [["PostgreSQL", "-", pg_summary.median, pg_summary.p95]]
    for name, by_count in results.items():
        for count, summary in by_count.items():
            rows.append([name, count, summary.median, summary.p95])
    table = format_table(
        ["model", "training queries", "median", "95th"], rows,
        title="Fig 9: cold start — MSCN with and without DACE",
    )
    return {"results": results, "postgres": pg_summary, "table": table}


# --------------------------------------------------------------------- #
# Fig 10 — ablation: tree attention / sub-plans / loss adjuster
# --------------------------------------------------------------------- #
@cell("fig10")
def fig10_ablation(scale: BenchScale = DEFAULT) -> dict:
    """DACE vs w/o TA (no tree attention), w/o SP (alpha=0), w/o LA (alpha=1)."""
    w3 = get_workload3(scale)
    variants = {
        "DACE": dict(),
        "DACE w/o TA": dict(use_tree_attention=False),
        "DACE w/o SP": dict(alpha=0.0),
        "DACE w/o LA": dict(alpha=1.0),
    }
    results: Dict[str, Dict[str, QErrorSummary]] = {}
    for name, kwargs in variants.items():
        model = pretrain_dace(scale, exclude="imdb", **kwargs)
        results[name] = {
            split_name: qerror_summary(model.predict(split),
                                       split.latencies())
            for split_name, split in w3.test_splits().items()
        }
    rows = []
    for name, by_split in results.items():
        for split_name, summary in by_split.items():
            rows.append([name, split_name, summary.median, summary.p95,
                         summary.mean])
    table = format_table(
        ["variant", "split", "median", "95th", "mean"], rows,
        title="Fig 10: ablation of tree attention and the loss adjuster",
    )
    return {"results": results, "table": table}


# --------------------------------------------------------------------- #
# Fig 11 — robustness to plan size (loss adjuster ablation)
# --------------------------------------------------------------------- #
@cell("fig11")
def fig11_nodes_ablation(scale: BenchScale = DEFAULT) -> dict:
    """DACE vs DACE w/o LA by plan node count, on unseen imdb queries."""
    test = get_workload1(scale)["imdb"]
    dace = pretrain_dace(scale, exclude="imdb")
    dace_wola = pretrain_dace(scale, exclude="imdb", alpha=1.0)
    buckets = {
        "DACE": _bucketed_qerror(dace.predict(test), test),
        "DACE w/o LA": _bucketed_qerror(dace_wola.predict(test), test),
    }
    rows = []
    for name, by_bucket in buckets.items():
        for label, summary in by_bucket.items():
            rows.append([name, label, summary.mean, summary.median,
                         summary.count])
    table = format_table(
        ["variant", "nodes", "mean qerror", "median qerror", "queries"],
        rows,
        title="Fig 11: accuracy by plan size, with and without the loss "
              "adjuster",
    )
    return {"results": buckets, "table": table}


# --------------------------------------------------------------------- #
# Fig 12 — estimated vs actual cardinality inputs
# --------------------------------------------------------------------- #
@cell("fig12")
def fig12_actual_cardinality(scale: BenchScale = DEFAULT) -> dict:
    """DACE vs DACE-A (true cardinalities) by number of training dbs."""
    w3 = get_workload3(scale)
    results: Dict[str, Dict[int, Dict[str, float]]] = {
        "DACE": {}, "DACE-A": {},
    }
    for count in scale.training_db_counts:
        dace = pretrain_dace(scale, exclude="imdb", num_training_dbs=count)
        dace_a = pretrain_dace(
            scale, exclude="imdb", num_training_dbs=count,
            card_source="actual",
        )
        results["DACE"][count] = {}
        results["DACE-A"][count] = {}
        for split_name, split in w3.test_splits().items():
            results["DACE"][count][split_name] = qerror_summary(
                dace.predict(split), split.latencies()
            ).median
            results["DACE-A"][count][split_name] = qerror_summary(
                dace_a.predict(split), split.latencies()
            ).median
    rows = []
    for name, by_count in results.items():
        for count, by_split in by_count.items():
            rows.append([
                name, count,
                by_split["synthetic"], by_split["scale"],
                by_split["job_light"],
            ])
    table = format_table(
        ["model", "training dbs", "synthetic med", "scale med",
         "job-light med"],
        rows,
        title="Fig 12: estimated vs actual cardinality as model input",
    )
    return {"results": results, "table": table}
