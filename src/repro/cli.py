"""Command-line interface: collect workloads, train, evaluate, explain.

Examples::

    python -m repro zoo
    python -m repro collect --db imdb --count 200 --out imdb.jsonl
    python -m repro collect --db airline --count 200 --out airline.jsonl
    python -m repro train --workload airline.jsonl --out model/
    python -m repro finetune --model model/ --workload imdb.jsonl --out tuned/
    python -m repro evaluate --model tuned/ --workload imdb.jsonl
    python -m repro serve --model tuned/ --workload imdb.jsonl \
        --metrics metrics.jsonl
    python -m repro obs metrics.jsonl --format table
    python -m repro explain --db imdb --model model/ \
        --sql "SELECT COUNT(*) FROM title WHERE title.production_year > 2000"
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.catalog.zoo import ZOO_DATABASE_NAMES, build_schema, load_database
from repro.core.estimator import DACE
from repro.core.trainer import TrainingConfig
from repro.engine.machines import MACHINES
from repro.engine.plan import explain as explain_plan
from repro.engine.session import EngineSession
from repro.metrics.qerror import qerror_summary
from repro.metrics.tables import format_table
from repro.obs import render_table, to_json_lines, to_prometheus
from repro.sql.generator import QueryGenerator, WorkloadSpec
from repro.sql.text import parse_query
from repro.workloads.dataset import PlanDataset, collect_workload
from repro.workloads.serialize import load_dataset, save_dataset

_MACHINES = MACHINES


def _cmd_zoo(args: argparse.Namespace) -> int:
    rows = []
    for name in ZOO_DATABASE_NAMES:
        schema = build_schema(name)
        rows.append([
            name, len(schema.tables), len(schema.foreign_keys),
            schema.total_rows(),
        ])
    print(format_table(
        ["database", "tables", "foreign keys", "rows"], rows,
        title="The 20-database zoo",
    ))
    return 0


def _cmd_collect(args: argparse.Namespace) -> int:
    database = load_database(args.db)
    spec = WorkloadSpec(
        max_joins=args.max_joins,
        max_predicates=args.max_predicates,
        min_predicates=args.min_predicates,
    )
    queries = QueryGenerator(database, spec, seed=args.seed).generate_many(
        args.count
    )
    dataset = collect_workload(
        database, queries, machine=_MACHINES[args.machine], seed=args.seed
    )
    save_dataset(dataset, args.out)
    print(f"collected {len(dataset)} labelled plans from {args.db!r} "
          f"on {args.machine} -> {args.out}")
    return 0


def _load_many(paths: List[str]) -> PlanDataset:
    return PlanDataset.merge(load_dataset(path) for path in paths)


def _cmd_train(args: argparse.Namespace) -> int:
    train = _load_many(args.workload)
    dace = DACE(
        training=TrainingConfig(epochs=args.epochs, seed=args.seed),
        alpha=args.alpha,
        seed=args.seed,
    )
    dace.fit(train)
    dace.save(args.out)
    print(f"trained DACE on {len(train)} plans "
          f"({dace.num_parameters()} parameters) -> {args.out}")
    return 0


def _cmd_finetune(args: argparse.Namespace) -> int:
    dace = DACE.load(args.model)
    tune = _load_many(args.workload)
    dace.fine_tune_lora(tune, epochs=args.epochs)
    dace.save(args.out)
    print(f"LoRA fine-tuned on {len(tune)} plans "
          f"({dace.model.lora_num_parameters()} adapter parameters) "
          f"-> {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dace = DACE.load(args.model)
    test = _load_many(args.workload)
    summary = qerror_summary(dace.predict(test), test.latencies())
    print(format_table(
        ["median", "90th", "95th", "99th", "max", "mean"],
        [summary.as_row()],
        title=f"q-error on {len(test)} plans",
    ))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    database = load_database(args.db)
    session = EngineSession(database, _MACHINES[args.machine], seed=args.seed)
    query = parse_query(args.sql)
    if args.analyze:
        plan = session.explain_analyze(query)
    else:
        plan = session.explain(query)
    print(explain_plan(plan, analyze=args.analyze))
    if args.model:
        dace = DACE.load(args.model)
        print(f"\nDACE predicted latency: "
              f"{dace.predict_plan(plan):.3f} ms")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.workloads.describe import describe_text

    dataset = _load_many(args.workload)
    print(describe_text(dataset))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.reporting import evaluation_report, save_report

    dace = DACE.load(args.model)
    test = _load_many(args.workload)
    predictions = dace.predict(test)
    if args.out:
        save_report("DACE", predictions, test, args.out)
        print(f"report written to {args.out}")
    else:
        print(evaluation_report("DACE", predictions, test))
    return 0


_METRIC_EXPORTERS = {
    "table": lambda registry: render_table(registry, title="serving metrics"),
    "json": to_json_lines,
    "prom": to_prometheus,
}


def _cmd_serve(args: argparse.Namespace) -> int:
    """Replay a workload through the serving runtime and report stats."""
    from repro.bench.timing import closed_loop, seconds
    from repro.serve import ChaosEstimator, ConcurrentEstimatorService, \
        CostFallback, ResilientEstimator

    if args.shards and args.workers:
        raise SystemExit(
            "error: --workers and --shards are exclusive: a fleet shard "
            "serves its misses on its own drain thread, with no pool"
        )
    dace = DACE.load(args.model)
    dataset = _load_many(args.workload)
    plans = [sample.plan for sample in dataset]
    repeats = max(args.repeat, 1)
    dace.service.reset_stats()

    if args.shards:
        return _serve_fleet(args, dace, plans, repeats)

    # Chaos replay: inject seeded faults under the resilience tier and
    # verify the serving path degrades instead of raising.
    estimator = dace.service
    if args.chaos is not None:
        estimator = ChaosEstimator.with_fault_rate(
            estimator, args.chaos, seed=args.chaos_seed
        )
    if args.chaos is not None or args.resilient:
        estimator = ResilientEstimator(
            estimator,
            fallback=CostFallback(dace.encoder.scaler),
            metrics=dace.metrics,
        )
    if args.workers:
        # Concurrent replay: N closed-loop client threads hammer the
        # thread-pool front-end with single-plan calls; the leader drain
        # coalesces whatever piles up during each forward.
        pool = ConcurrentEstimatorService(
            estimator, workers=args.workers, max_batch=args.max_batch
        )
        elapsed, predictions = closed_loop(
            lambda i: pool.predict_plan(plans[i % len(plans)]),
            len(plans) * repeats, args.workers,
        )
        pool.close()
        drains = dace.metrics.histogram("serve.pool.flush_size")
        replay_line = (f"pool: workers={args.workers} drains={drains.count} "
                       f"mean_flush={drains.mean:.1f} "
                       f"(max_batch={args.max_batch})")
    else:
        # Serial replay: price the workload in --max-batch chunks.
        chunks = [plans[offset:offset + args.max_batch]
                  for offset in range(0, len(plans), args.max_batch)]
        elapsed, predictions = seconds(lambda: [
            value for _ in range(repeats) for chunk in chunks
            for value in estimator.predict_plans(chunk)
        ])
        replay_line = (f"batches: {len(chunks) * repeats} "
                       f"(max_batch={args.max_batch})")

    fused_fwd = dace.metrics.counter("serve.fused.forwards").value
    fused_fb = dace.metrics.counter("serve.fused.fallbacks").value
    lines = [
        replay_line,
        f"cache: {dace.service.cache_stats}",
        f"fused: forwards={fused_fwd} fallbacks={fused_fb}",
    ]
    if args.chaos is not None:
        # The resilience tier wraps the fault injector.
        lines.append(f"chaos: fault_rate={args.chaos:.0%} "
                     f"injected={estimator.estimator.injected}")
    return _serve_report(args, dace.metrics, len(plans), repeats, elapsed,
                         predictions, lines)


def _serve_fleet(args: argparse.Namespace, dace, plans, repeats: int) -> int:
    """Replay a (optionally multi-tenant) workload through a FleetGateway."""
    import numpy as np

    from repro.bench.timing import closed_loop
    from repro.serve import ChaosEstimator, FleetGateway, ModelRegistry

    shard_wrapper = None
    if args.chaos is not None:
        def shard_wrapper(service):
            return ChaosEstimator.with_fault_rate(
                service, args.chaos, seed=args.chaos_seed
            )
    fleet = FleetGateway(
        dace.model,
        dace.encoder,
        shards=args.shards,
        batch_size=args.max_batch,
        metrics=dace.metrics,
        resilient=args.resilient or args.chaos is not None,
        shard_wrapper=shard_wrapper,
    )
    # Synthetic tenants: seeded random LoRA deltas on the base adapters.
    # Real deployments register ModelRegistry.adapter_state dumps; for a
    # replay the deltas only need to be distinct per tenant.
    tags = [ModelRegistry.BASE_TAG]
    if args.tenants:
        base = fleet.shards[0].registry.adapter_state(ModelRegistry.BASE_TAG)
        rng = np.random.default_rng(args.chaos_seed)
        for index in range(args.tenants):
            tag = f"tenant{index}"
            fleet.register_tenant(tag, {
                name: array + rng.normal(0.0, 0.05, array.shape)
                for name, array in base.items()
            })
            tags.append(tag)
    tenant_of = [tags[i % len(tags)] for i in range(len(plans))]

    clients = 2 * args.shards
    elapsed, predictions = closed_loop(
        lambda i: fleet.predict_plan(plans[i % len(plans)],
                                     tenant=tenant_of[i % len(plans)]),
        len(plans) * repeats, clients,
    )
    stats = fleet.stats()
    fleet.close()

    lines = [
        f"fleet: shards={args.shards} tenants={len(tags)} "
        f"clients={clients} routed={stats['routed']:.0f} "
        f"shed={stats['shed']:.0f} swaps={stats['swaps']:.0f}",
        f"fleet cache: hits={stats['cache_hits']:.0f} "
        f"misses={stats['cache_misses']:.0f} "
        f"hit_rate={stats['cache_hit_rate']:.1%}",
    ]
    return _serve_report(args, dace.metrics, len(plans), repeats, elapsed,
                         predictions, lines)


def _serve_report(args: argparse.Namespace, metrics, n_plans: int,
                  repeats: int, elapsed: float, predictions,
                  lines: List[str]) -> int:
    """Print a ``serve`` replay's report: throughput, ``lines``, the
    latency range, warning on non-finite answers, and the resilience
    tier's degraded share when it ran; write ``--metrics``."""
    import math

    served = n_plans * repeats
    print(f"served {served} predictions over {n_plans} plans "
          f"(x{repeats}) in {elapsed * 1e3:.1f} ms "
          f"({served / max(elapsed, 1e-9):.0f} plans/s)")
    for line in lines:
        print(line)
    if predictions:
        print(f"latency range: {min(predictions):.3f} .. "
              f"{max(predictions):.3f} ms")
        finite = sum(1 for value in predictions if math.isfinite(value))
        if finite != len(predictions):
            print(f"WARNING: {len(predictions) - finite} non-finite "
                  f"predictions escaped the serving path")
    if args.resilient or args.chaos is not None:
        degraded = metrics.counter("resilience.degraded").value
        total = metrics.counter("resilience.predictions").value
        print(f"resilience: degraded={degraded} "
              f"({degraded / total if total else 0.0:.1%} of predictions)")
    if args.metrics:
        report = _METRIC_EXPORTERS[args.metrics_format](metrics)
        with open(args.metrics, "w") as handle:
            handle.write(report if report.endswith("\n") else report + "\n")
        print(f"metrics ({args.metrics_format}) written to {args.metrics}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Pretty-print (or convert) a JSON-lines metrics dump."""
    from repro.obs import load_json_lines

    with open(args.path) as handle:
        registry = load_json_lines(handle.read())
    print(_METRIC_EXPORTERS[args.format](registry).rstrip("\n"))
    return 0


_DEFAULT_RESULTS_DIR = "benchmarks/results"


def _results_dir(args: argparse.Namespace) -> str:
    import os

    return (args.results_dir
            or os.environ.get("REPRO_RESULTS_DIR")
            or _DEFAULT_RESULTS_DIR)


def _parse_axis_value(text: str):
    """One axis value from the command line: int, float, bool, tuple, str."""
    if ":" in text:
        return tuple(_parse_axis_value(part) for part in text.split(":"))
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            continue
    return text


def _parse_axes(entries) -> dict:
    """``--axis name=v1,v2`` pairs into an axes mapping."""
    axes = {}
    for entry in entries or ():
        name, sep, values = entry.partition("=")
        if not sep or not name:
            raise SystemExit(
                f"error: --axis expects name=v1,v2,...; got {entry!r}"
            )
        axes[name.strip()] = [
            _parse_axis_value(value) for value in values.split(",")
        ]
    return axes


def _cmd_exp_run(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentSpec, ResultsStore, Runner
    from repro.obs import to_json_lines

    store = ResultsStore(root=_results_dir(args), scale=args.scale)

    def on_cell(status, config, wall):
        marker = {"ran": "ran ", "skipped": "skip", "failed": "FAIL"}[status]
        line = f"[{marker}] {config.id}  {config.label}"
        if status == "ran":
            line += f"  ({wall:.2f}s)"
        print(line)

    try:
        runner = Runner(
            store, workers=args.workers, backend=args.backend,
            timeout_s=args.timeout, on_cell=on_cell,
        )
        spec = ExperimentSpec(
            args.experiments, scale=args.scale, axes=_parse_axes(args.axis)
        )
        summary = runner.run(spec, force=args.force)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(2)
    store.save_run_summary(summary)
    print(summary.format())
    print(f"cells: {store.cells_dir}")
    if args.metrics:
        report = to_json_lines(runner.metrics)
        with open(args.metrics, "w") as handle:
            handle.write(report if report.endswith("\n") else report + "\n")
        print(f"metrics written to {args.metrics}")
    return 1 if summary.failed else 0


def _cmd_exp_ls(args: argparse.Namespace) -> int:
    from repro.experiments import format_metrics_report, load_results_from_dir

    directory = _results_dir(args)
    if args.scale:
        import os

        directory = os.path.join(directory, args.scale)
    print(format_metrics_report(load_results_from_dir(directory)))
    return 0


def _cmd_exp_report(args: argparse.Namespace) -> int:
    """Print stored tables; file the default-parameter cells' outputs.

    A cell run at its experiment's default parameters (no axes) also
    writes ``<results>/<scale>/<cell function>.txt``, and, when the cell
    declares checks, the perf record ``BENCH_<cell function>.json`` in
    the working directory.  Axis sweeps never overwrite either.
    """
    import os

    from repro.experiments import ResultsStore, cell_checks, cell_names, \
        get_cell, load_results_from_dir

    root = _results_dir(args)
    directory = os.path.join(root, args.scale) if args.scale else root
    cells = load_results_from_dir(directory)
    if args.experiment:
        cells = [c for c in cells if c.experiment == args.experiment]
    if not cells:
        print("error: no stored cells match; run 'repro exp run' first",
              file=sys.stderr)
        return 1
    print("\n\n".join(cell.table for cell in cells))
    registered = cell_names()
    for cell in cells:
        if (cell.experiment not in registered
                or any(key not in ("experiment", "scale")
                       for key in cell.config)):
            continue
        name = get_cell(cell.experiment).__name__
        path = os.path.join(root, cell.scale, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(cell.table + "\n")
        if cell_checks(cell.experiment):
            ResultsStore.write_perf_record(f"BENCH_{name}.json", {
                "benchmark": name, "scale": cell.scale, **cell.results,
            })
    return 0


def _cmd_exp_check(args: argparse.Namespace) -> int:
    """Evaluate every check of every stored cell of the named experiments.

    Exits 1 when a check fails, when a named experiment has no stored
    cell at the scale, or when any cell file there is corrupt: a check
    never passes because nothing was checked.
    """
    import glob
    import os

    from repro.experiments import CellCorruptError, ResultsStore, \
        evaluate_checks, get_cell

    store = ResultsStore(root=_results_dir(args), scale=args.scale)
    try:
        for experiment in args.experiments:
            get_cell(experiment)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(2)
    rows, failed = [], 0
    cells = []
    for path in sorted(glob.glob(os.path.join(store.cells_dir, "*.json"))):
        config_id = os.path.basename(path)[:-len(".json")]
        try:
            cells.append(store.load(config_id))
        except CellCorruptError:
            rows.append(["?", config_id, "readable", "-", "FAIL"])
            failed += 1
    for experiment in args.experiments:
        mine = [c for c in cells if c.experiment == experiment]
        if not mine:
            rows.append([experiment, "-", "stored", "-", "FAIL"])
            failed += 1
        for cell in mine:
            for name, passed in evaluate_checks(cell):
                rows.append([experiment, cell.config_id, name,
                             cell.results.get(name, "-"),
                             "ok" if passed else "FAIL"])
                failed += not passed
    print(format_table(
        ["experiment", "config_id", "check", "value", "result"], rows,
        title=f"checks @ {args.scale}: {len(rows) - failed} passed, "
              f"{failed} failed",
    ))
    return 1 if failed else 0


def _cmd_exp_diff(args: argparse.Namespace) -> int:
    from repro.experiments import CellDiffError, diff_cells, find_cell, \
        format_cell_diff

    directory = _results_dir(args)
    try:
        cell_a = find_cell(directory, args.id_a, scale=args.scale)
        cell_b = find_cell(directory, args.id_b, scale=args.scale)
        diff = diff_cells(cell_a, cell_b)
    except CellDiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_cell_diff(diff))
    return 0 if diff.identical else 1


def _cmd_exp_clean(args: argparse.Namespace) -> int:
    from repro.experiments import ResultsStore

    store = ResultsStore(root=_results_dir(args), scale=args.scale)
    removed = store.clean()
    print(f"removed {removed} cell(s) from {store.cells_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DACE reproduction command-line tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("zoo", help="list the 20 zoo databases").set_defaults(
        func=_cmd_zoo
    )

    collect = sub.add_parser("collect", help="generate + execute a workload")
    collect.add_argument("--db", required=True, choices=ZOO_DATABASE_NAMES)
    collect.add_argument("--count", type=int, default=200)
    collect.add_argument("--out", required=True)
    collect.add_argument("--machine", choices=_MACHINES, default="M1")
    collect.add_argument("--max-joins", type=int, default=5)
    collect.add_argument("--max-predicates", type=int, default=5)
    collect.add_argument("--min-predicates", type=int, default=1)
    collect.add_argument("--seed", type=int, default=0)
    collect.set_defaults(func=_cmd_collect)

    train = sub.add_parser("train", help="pre-train DACE on workload files")
    train.add_argument("--workload", nargs="+", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--epochs", type=int, default=30)
    train.add_argument("--alpha", type=float, default=0.5)
    train.add_argument("--seed", type=int, default=0)
    train.set_defaults(func=_cmd_train)

    finetune = sub.add_parser("finetune", help="LoRA fine-tune a saved model")
    finetune.add_argument("--model", required=True)
    finetune.add_argument("--workload", nargs="+", required=True)
    finetune.add_argument("--out", required=True)
    finetune.add_argument("--epochs", type=int, default=20)
    finetune.set_defaults(func=_cmd_finetune)

    evaluate = sub.add_parser("evaluate", help="q-error of a saved model")
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--workload", nargs="+", required=True)
    evaluate.set_defaults(func=_cmd_evaluate)

    explain = sub.add_parser("explain", help="plan (and simulate) a SQL query")
    explain.add_argument("--db", required=True, choices=ZOO_DATABASE_NAMES)
    explain.add_argument("--sql", required=True)
    explain.add_argument("--analyze", action="store_true")
    explain.add_argument("--machine", choices=_MACHINES, default="M1")
    explain.add_argument("--model", default=None,
                         help="saved DACE directory for corrected estimates")
    explain.add_argument("--seed", type=int, default=0)
    explain.set_defaults(func=_cmd_explain)

    describe = sub.add_parser(
        "describe", help="summarize a collected workload file"
    )
    describe.add_argument("--workload", nargs="+", required=True)
    describe.set_defaults(func=_cmd_describe)

    report = sub.add_parser(
        "report", help="markdown evaluation report of a saved model"
    )
    report.add_argument("--model", required=True)
    report.add_argument("--workload", nargs="+", required=True)
    report.add_argument("--out", default=None)
    report.set_defaults(func=_cmd_report)

    serve = sub.add_parser(
        "serve", help="replay a workload through the serving runtime"
    )
    serve.add_argument("--model", required=True)
    serve.add_argument("--workload", nargs="+", required=True)
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="serve through a thread pool of N workers: "
                            "closed-loop concurrent replay with dynamic "
                            "batching (default: single-threaded replay); "
                            "not with --shards")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="plans per batched call: the serial "
                            "replay's chunk size, and the pool's and "
                            "shards' largest batch")
    serve.add_argument("--shards", type=int, default=None, metavar="N",
                       help="serve through a FleetGateway of N shards "
                            "(consistent-hash routing, per-tenant LoRA, "
                            "admission control), replayed by 2N client "
                            "threads; each shard serves its misses on its "
                            "own drain thread, so --workers is refused")
    serve.add_argument("--tenants", type=int, default=0, metavar="K",
                       help="with --shards: register K synthetic tenants "
                            "(seeded random LoRA deltas) and spread the "
                            "replayed plans across them round-robin")
    serve.add_argument("--repeat", type=int, default=2,
                       help="replay count (>1 exercises the cache)")
    serve.add_argument("--metrics", default=None,
                       help="write the metrics report to this path")
    serve.add_argument("--metrics-format",
                       choices=sorted(_METRIC_EXPORTERS), default="json",
                       help="report format (json round-trips via "
                            "'repro obs')")
    serve.add_argument("--chaos", type=float, default=None, metavar="RATE",
                       help="inject seeded faults (errors/NaN/latency) at "
                            "this rate and serve through the resilience "
                            "tier")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for the chaos fault schedule")
    serve.add_argument("--resilient", action="store_true",
                       help="answer failed or non-finite predictions "
                            "from the optimizer-cost fallback, flagged, "
                            "even without --chaos")
    serve.set_defaults(func=_cmd_serve)

    obs = sub.add_parser(
        "obs", help="pretty-print a JSON-lines metrics dump"
    )
    obs.add_argument("path", help="file written by 'repro serve --metrics'")
    obs.add_argument("--format", choices=sorted(_METRIC_EXPORTERS),
                     default="table")
    obs.set_defaults(func=_cmd_obs)

    from repro.bench.config import SCALES
    from repro.experiments.runner import BACKENDS

    exp = sub.add_parser(
        "exp", help="declarative experiment matrices with resumable cells"
    )
    exp_sub = exp.add_subparsers(dest="exp_command", required=True)

    exp_run = exp_sub.add_parser(
        "run", help="expand a matrix and run every cell not already stored"
    )
    exp_run.add_argument("experiments", nargs="+", metavar="EXPERIMENT",
                         help="registered experiment name(s); an "
                              "unknown name lists the valid ones")
    exp_run.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    exp_run.add_argument("--axis", action="append", metavar="NAME=V1,V2",
                         help="one matrix axis: a BenchScale field or a "
                              "cell-function keyword (repeatable; 'a:b' "
                              "parses as a tuple value)")
    exp_run.add_argument("--workers", type=int, default=1,
                         help="pool width for cell fan-out")
    exp_run.add_argument("--backend", choices=BACKENDS, default="thread",
                         help="'thread' shares in-process caches; "
                              "'process' spawn-isolates each cell for "
                              "true parallelism and crash containment")
    exp_run.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-cell wall-clock limit (process backend "
                              "only); an overrunning child is killed and "
                              "only that cell fails")
    exp_run.add_argument("--results-dir", default=None,
                         help="results root (default: $REPRO_RESULTS_DIR "
                              f"or {_DEFAULT_RESULTS_DIR})")
    exp_run.add_argument("--force", action="store_true",
                         help="recompute cells even when a valid result "
                              "is stored")
    exp_run.add_argument("--metrics", default=None,
                         help="write experiments.* metrics (JSON lines) "
                              "to this path")
    exp_run.set_defaults(func=_cmd_exp_run)

    exp_ls = exp_sub.add_parser("ls", help="summarize stored cells")
    exp_ls.add_argument("--scale", default=None)
    exp_ls.add_argument("--results-dir", default=None)
    exp_ls.set_defaults(func=_cmd_exp_ls)

    exp_report = exp_sub.add_parser(
        "report", help="print stored paper tables without recomputing"
    )
    exp_report.add_argument("--experiment", default=None,
                            help="only cells of this experiment")
    exp_report.add_argument("--scale", default=None)
    exp_report.add_argument("--results-dir", default=None)
    exp_report.set_defaults(func=_cmd_exp_report)

    exp_check = exp_sub.add_parser(
        "check", help="evaluate the checks of stored cells; exit 1 on a "
                      "failure, a missing cell or a corrupt cell"
    )
    exp_check.add_argument("experiments", nargs="+", metavar="EXPERIMENT",
                           help="registered experiment name(s)")
    exp_check.add_argument("--scale", choices=sorted(SCALES),
                           default="smoke")
    exp_check.add_argument("--results-dir", default=None)
    exp_check.set_defaults(func=_cmd_exp_check)

    exp_diff = exp_sub.add_parser(
        "diff", help="compare two stored cells metric by metric"
    )
    exp_diff.add_argument("id_a", metavar="ID-A",
                          help="config id (or unique prefix) of the "
                               "baseline cell")
    exp_diff.add_argument("id_b", metavar="ID-B",
                          help="config id (or unique prefix) of the "
                               "cell to compare")
    exp_diff.add_argument("--scale", default=None,
                          help="only search this scale's cells")
    exp_diff.add_argument("--results-dir", default=None)
    exp_diff.set_defaults(func=_cmd_exp_diff)

    exp_clean = exp_sub.add_parser(
        "clean", help="delete stored cells at one scale"
    )
    exp_clean.add_argument("--scale", default="smoke")
    exp_clean.add_argument("--results-dir", default=None)
    exp_clean.set_defaults(func=_cmd_exp_clean)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
