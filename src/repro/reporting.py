"""Markdown evaluation reports for a cost estimator on a workload.

Generates the analysis a practitioner wants before trusting an estimator:
accuracy percentiles, rank quality (what plan selection and scheduling
consume), estimation-bias balance, the worst-predicted queries with their
EXPLAIN ANALYZE output, and the operator types driving cardinality error.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.engine.diagnostics import error_by_node_type
from repro.engine.plan import explain
from repro.metrics.extended import rank_quality, underestimation_fraction
from repro.metrics.qerror import qerror_summary
from repro.nn.losses import qerror
from repro.sql.text import render_sql
from repro.workloads.dataset import PlanDataset


def evaluation_report(
    name: str,
    predictions: Sequence[float],
    dataset: PlanDataset,
    worst_queries: int = 3,
    include_plans: bool = True,
) -> str:
    """Render a markdown report for ``predictions`` on ``dataset``."""
    predictions = np.asarray(predictions, dtype=np.float64)
    actual = dataset.latencies()
    if predictions.shape != actual.shape:
        raise ValueError("one prediction per query required")
    summary = qerror_summary(predictions, actual)
    ranks = rank_quality(predictions, actual)
    under = underestimation_fraction(predictions, actual)

    lines: List[str] = [
        f"# Evaluation report — {name}",
        "",
        f"- queries: {len(dataset)} "
        f"(databases: {', '.join(dataset.database_names())})",
        f"- latency range: {actual.min():.2f} .. {actual.max():.2f} ms",
        "",
        "## Accuracy (q-error)",
        "",
        "| median | 90th | 95th | 99th | max | mean |",
        "|---|---|---|---|---|---|",
        f"| {summary.median:.2f} | {summary.p90:.2f} | {summary.p95:.2f} "
        f"| {summary.p99:.2f} | {summary.max:.2f} | {summary.mean:.2f} |",
        "",
        "## Ranking quality",
        "",
        f"- Spearman: {ranks.spearman:.3f}  Kendall: {ranks.kendall:.3f}",
        f"- pairwise ordering accuracy: {ranks.pairwise_accuracy:.3f}",
        f"- underestimated queries: {100 * under:.1f}% "
        "(50% is balanced; underestimation is the risky direction)",
        "",
    ]

    errors = qerror(predictions, actual)
    order = np.argsort(errors)[::-1][:worst_queries]
    lines.append(f"## Worst {len(order)} predictions")
    lines.append("")
    for rank, index in enumerate(order, start=1):
        sample = dataset[int(index)]
        lines.append(
            f"### {rank}. q-error {errors[index]:.1f} "
            f"(predicted {predictions[index]:.2f} ms, "
            f"actual {actual[index]:.2f} ms)"
        )
        lines.append("")
        lines.append("```sql")
        lines.append(render_sql(sample.query))
        lines.append("```")
        if include_plans:
            lines.append("")
            lines.append("```")
            lines.append(explain(sample.plan, analyze=True))
            lines.append("```")
        lines.append("")

    lines.append("## Optimizer cardinality error by operator")
    lines.append("")
    lines.append("| operator | nodes | median q-error | max q-error |")
    lines.append("|---|---|---|---|")
    by_type = error_by_node_type([s.plan for s in dataset])
    for node_type, stats in by_type.items():
        lines.append(
            f"| {node_type} | {stats['count']} "
            f"| {stats['median_qerror']:.2f} | {stats['max_qerror']:.1f} |"
        )
    lines.append("")
    return "\n".join(lines)


def save_report(
    name: str,
    predictions: Sequence[float],
    dataset: PlanDataset,
    path: str,
    **kwargs,
) -> None:
    """Write :func:`evaluation_report` to ``path``."""
    report = evaluation_report(name, predictions, dataset, **kwargs)
    with open(path, "w") as handle:
        handle.write(report + "\n")
