"""The optimizer's cardinality estimator (the *wrong-on-purpose* one).

This mirrors PostgreSQL's selectivity machinery: per-column statistics,
conjunctive predicates combined under the **attribute independence
assumption**, and join selectivity from distinct counts (``eqjoinsel``).
Those assumptions fail on correlated columns and skewed FK fan-outs, and
the resulting systematic errors are precisely the EDQO that DACE learns.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from repro.catalog.stats import TableStats
from repro.sql.query import Join, Predicate, Query

MIN_SELECTIVITY = 1e-7
DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0


class CardinalityEstimator:
    """Estimates scan and join cardinalities from table statistics."""

    def __init__(self, stats: Dict[str, TableStats]) -> None:
        self.stats = stats

    # ------------------------------------------------------------------ #
    # Predicates
    # ------------------------------------------------------------------ #
    def predicate_selectivity(self, predicate: Predicate) -> float:
        table_stats = self.stats.get(predicate.table)
        if table_stats is None or predicate.column not in table_stats.columns:
            return (
                DEFAULT_EQ_SELECTIVITY
                if predicate.op == "="
                else DEFAULT_RANGE_SELECTIVITY
            )
        column = table_stats.columns[predicate.column]
        if predicate.op == "in":
            # Sum of equality selectivities, capped at the non-null mass.
            sel = min(
                sum(column.selectivity_eq(v) for v in predicate.values),
                max(0.0, 1.0 - column.null_frac),
            )
        elif predicate.op == "=":
            sel = column.selectivity_eq(predicate.value)
        elif predicate.op == "!=":
            sel = max(0.0, 1.0 - column.null_frac
                      - column.selectivity_eq(predicate.value))
        elif predicate.op == "<":
            # Exclusive bound: nudge below the value so an MCV exactly at
            # the boundary is not counted.
            sel = column.selectivity_range(
                float("-inf"), float(np.nextafter(predicate.value, -np.inf))
            )
        elif predicate.op == "<=":
            sel = column.selectivity_range(float("-inf"), predicate.value)
        elif predicate.op == ">":
            sel = column.selectivity_range(
                float(np.nextafter(predicate.value, np.inf)), float("inf")
            )
        else:  # ">="
            sel = column.selectivity_range(predicate.value, float("inf"))
        return float(min(max(sel, MIN_SELECTIVITY), 1.0))

    def scan_selectivity(self, predicates: Sequence[Predicate]) -> float:
        """Conjunction under independence (clauselist_selectivity)."""
        selectivity = 1.0
        for predicate in predicates:
            selectivity *= self.predicate_selectivity(predicate)
        return max(selectivity, MIN_SELECTIVITY)

    def scan_rows(self, table: str, predicates: Sequence[Predicate]) -> float:
        rows = self.stats[table].num_rows
        return max(1.0, rows * self.scan_selectivity(predicates))

    # ------------------------------------------------------------------ #
    # Joins
    # ------------------------------------------------------------------ #
    def _column_stats(self, table: str, column: str):
        table_stats = self.stats.get(table)
        if table_stats is None:
            return None
        return table_stats.columns.get(column)

    def join_selectivity(self, join: Join) -> float:
        """PG's eqjoinsel: MCV-list matching plus 1/max(nd) for the rest.

        When both join columns have most-common-value statistics, the
        selectivity of the matching MCV pairs is computed exactly (this is
        what keeps PostgreSQL sane on skewed join keys); the non-MCV
        remainder falls back to the classic ``1 / max(n_distinct)``.
        """
        left = self._column_stats(join.left_table, join.left_column)
        right = self._column_stats(join.right_table, join.right_column)
        if left is None and right is None:
            return DEFAULT_EQ_SELECTIVITY
        if left is None or right is None:
            present = left if left is not None else right
            return 1.0 / max(1.0, present.n_distinct)

        nd1 = max(1.0, left.n_distinct)
        nd2 = max(1.0, right.n_distinct)
        if left.mcv_values.size == 0 or right.mcv_values.size == 0:
            return 1.0 / max(nd1, nd2)

        # Matched MCV mass (exact part of eqjoinsel).
        matched = 0.0
        matched_frac1 = 0.0
        matched_frac2 = 0.0
        right_index = {
            float(v): float(f)
            for v, f in zip(right.mcv_values, right.mcv_fractions)
        }
        for value, frac1 in zip(left.mcv_values, left.mcv_fractions):
            frac2 = right_index.get(float(value))
            if frac2 is not None:
                matched += float(frac1) * frac2
                matched_frac1 += float(frac1)
                matched_frac2 += frac2
        # Remainder: unmatched mass joins under uniformity over the
        # leftover distinct values.
        rest1 = max(0.0, 1.0 - left.null_frac - matched_frac1)
        rest2 = max(0.0, 1.0 - right.null_frac - matched_frac2)
        other_distinct = max(
            nd1 - left.mcv_values.size, nd2 - right.mcv_values.size, 1.0
        )
        remainder = rest1 * rest2 / other_distinct
        return float(min(max(matched + remainder, MIN_SELECTIVITY), 1.0))

    def join_rows(
        self,
        left_rows: float,
        right_rows: float,
        joins: Iterable[Join],
    ) -> float:
        """Cardinality of a join of two intermediate relations.

        ``joins`` are all join clauses connecting the two sides; clause
        selectivities are multiplied (independence again).
        """
        rows = left_rows * right_rows
        for join in joins:
            rows *= self.join_selectivity(join)
        return max(1.0, rows)

    def group_count_estimate(
        self, query: Query, input_rows: float
    ) -> float:
        """Estimated number of GROUP BY groups (PG's estimate_num_groups):
        the group column's distinct count, clamped by the input size."""
        if query.group_by is None:
            return 1.0
        table, column = query.group_by
        table_stats = self.stats.get(table)
        if table_stats is None or column not in table_stats.columns:
            distinct = 200.0  # PG's default
        else:
            distinct = max(1.0, table_stats.columns[column].n_distinct)
        return max(1.0, min(distinct, input_rows))

    # ------------------------------------------------------------------ #
    def estimate_subset_rows(self, query: Query, tables: Sequence[str]) -> float:
        """Estimated rows of joining a connected subset of query tables."""
        table_set = set(tables)
        rows = 1.0
        # Sorted: float multiplication order must not depend on string
        # hash randomization, or cost ties break differently per process.
        for table in sorted(table_set):
            rows *= self.scan_rows(table, query.predicates_on(table))
        for join in query.joins:
            left, right = join.tables()
            if left in table_set and right in table_set:
                rows *= self.join_selectivity(join)
        return max(1.0, rows)
