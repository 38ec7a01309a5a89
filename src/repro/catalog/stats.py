"""pg_stats-style column statistics used by the optimizer's estimator.

The statistics are intentionally *approximate* in the same ways PostgreSQL's
are: equi-depth histograms with a bounded bucket count, a bounded
most-common-values list, and a sampled distinct count.  These approximations
— together with the independence assumption in
:mod:`repro.engine.cardinality` — are what create the optimizer's error
distribution (EDQO) that DACE learns to correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.catalog.datagen import NULL_SENTINEL, Database

DEFAULT_HISTOGRAM_BUCKETS = 20
DEFAULT_MCV_COUNT = 10
DEFAULT_SAMPLE_ROWS = 3000


@dataclass
class ColumnStats:
    """Summary statistics for one column (over non-null values)."""

    null_frac: float
    n_distinct: float
    min_value: float
    max_value: float
    histogram_bounds: np.ndarray  # equi-depth bucket boundaries
    mcv_values: np.ndarray
    mcv_fractions: np.ndarray

    def selectivity_eq(self, value: float) -> float:
        """Estimated fraction of rows equal to ``value`` (PG's eqsel)."""
        if self.n_distinct <= 0:
            return 0.0
        matches = np.nonzero(self.mcv_values == value)[0]
        if matches.size:
            return float(self.mcv_fractions[matches[0]])
        remaining = max(0.0, 1.0 - self.null_frac - self.mcv_fractions.sum())
        other_distinct = max(1.0, self.n_distinct - self.mcv_values.size)
        return remaining / other_distinct

    def selectivity_range(self, low: float, high: float) -> float:
        """Estimated fraction of rows in [low, high].

        As in PostgreSQL's ``scalarineqsel``: the most-common values (point
        masses the histogram cannot represent) are summed exactly, and the
        histogram — which is built over the *non-MCV* sample — covers the
        remaining mass.
        """
        if high < low:
            return 0.0
        mcv_part = 0.0
        for value, fraction in zip(self.mcv_values, self.mcv_fractions):
            if low <= value <= high:
                mcv_part += float(fraction)

        hist_mass = max(
            0.0, 1.0 - self.null_frac - float(self.mcv_fractions.sum())
        )
        bounds = self.histogram_bounds
        if hist_mass <= 0.0 or bounds.size < 2 or bounds[-1] <= bounds[0]:
            hist_part = 0.0
            if bounds.size >= 1 and hist_mass > 0.0:
                # Degenerate non-MCV remainder: a single value.
                inside = low <= float(bounds[0]) <= high
                hist_part = hist_mass if inside else 0.0
        else:
            n_buckets = bounds.size - 1

            def cdf(value: float, side: str) -> float:
                """Histogram mass below ``value`` — 'right' counts equal
                values as below (<=), 'left' does not (<).  Runs of equal
                bounds are handled by searchsorted's side semantics."""
                index = int(np.searchsorted(bounds, value, side=side))
                if index == 0:
                    return 0.0
                if index >= bounds.size:
                    return 1.0
                left = float(bounds[index - 1])
                right = float(bounds[index])
                if right > left:
                    inner = (value - left) / (right - left)
                else:
                    inner = 1.0 if side == "left" else 0.0
                return ((index - 1) + np.clip(inner, 0.0, 1.0)) / n_buckets

            fraction = cdf(high, "right") - cdf(low, "left")
            hist_part = float(np.clip(fraction, 0.0, 1.0)) * hist_mass
        return float(np.clip(mcv_part + hist_part, 0.0, 1.0))


@dataclass
class TableStats:
    """Statistics for one table."""

    num_rows: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)


def _column_stats(values: np.ndarray, sample_rows: int, rng: np.random.Generator,
                  buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
                  mcv_count: int = DEFAULT_MCV_COUNT) -> ColumnStats:
    values = np.asarray(values)
    if values.dtype == np.int64:
        null_mask = values == NULL_SENTINEL
    else:
        null_mask = ~np.isfinite(values)
    null_frac = float(null_mask.mean()) if values.size else 0.0
    non_null = values[~null_mask].astype(np.float64)
    if non_null.size == 0:
        empty = np.array([])
        return ColumnStats(1.0, 0.0, 0.0, 0.0, empty, empty, empty)

    # ANALYZE-style sampling: statistics come from a bounded sample.
    if non_null.size > sample_rows:
        sample = rng.choice(non_null, size=sample_rows, replace=False)
    else:
        sample = non_null

    unique, counts = np.unique(sample, return_counts=True)
    n_distinct = float(unique.size)
    if sample.size < non_null.size:
        # Duj1 estimator-ish scale-up, as ANALYZE does.
        seen_once = float((counts == 1).sum())
        scale = non_null.size / sample.size
        n_distinct = min(
            float(non_null.size),
            n_distinct + seen_once * (scale - 1.0) * 0.5,
        )

    order = np.argsort(counts)[::-1][:mcv_count]
    mcv_values = unique[order]
    mcv_fractions = counts[order] / sample.size * (1.0 - null_frac)
    # Only keep genuinely common values (PG drops MCVs at average frequency).
    common = mcv_fractions > (1.0 - null_frac) / max(n_distinct, 1.0) * 1.5
    mcv_values, mcv_fractions = mcv_values[common], mcv_fractions[common]

    # The histogram covers the non-MCV remainder only, as ANALYZE does —
    # point masses live in the MCV list, the histogram models the rest.
    remainder = sample[~np.isin(sample, mcv_values)]
    if remainder.size >= 2:
        quantiles = np.linspace(0.0, 1.0, buckets + 1)
        histogram_bounds = np.quantile(remainder, quantiles)
    elif remainder.size == 1:
        histogram_bounds = np.array([remainder[0]])
    else:
        histogram_bounds = np.array([])
    return ColumnStats(
        null_frac=null_frac,
        n_distinct=max(1.0, n_distinct),
        min_value=float(non_null.min()),
        max_value=float(non_null.max()),
        histogram_bounds=histogram_bounds,
        mcv_values=mcv_values,
        mcv_fractions=mcv_fractions,
    )


def collect_table_stats(
    database: Database,
    sample_rows: int = DEFAULT_SAMPLE_ROWS,
    seed: int = 0,
) -> Dict[str, TableStats]:
    """Run ANALYZE over every table of ``database``."""
    rng = np.random.default_rng(seed + 101)
    stats: Dict[str, TableStats] = {}
    for table_name, columns in database.data.items():
        table = database.schema.table(table_name)
        table_stats = TableStats(num_rows=table.num_rows)
        for column_name, values in columns.items():
            table_stats.columns[column_name] = _column_stats(
                values, sample_rows, rng
            )
        stats[table_name] = table_stats
    return stats
