"""Exact ("actual") cardinalities computed on the generated data.

The workload generator only produces tree-shaped join graphs (each table is
joined in along one FK edge), so exact join cardinalities can be computed
without materializing intermediate results: repeatedly fold leaf tables into
their neighbor by aggregating per-key row weights (a weighted semijoin
message pass).  This is exact for acyclic equi-join queries and runs in
O(rows log rows) per join subtree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.catalog.datagen import NULL_SENTINEL, Database
from repro.sql.query import Join, Predicate, Query


def predicate_mask(values: np.ndarray, predicate: Predicate) -> np.ndarray:
    """Boolean mask of rows satisfying ``predicate`` (NULLs never match)."""
    if values.dtype == np.int64:
        non_null = values != NULL_SENTINEL
    else:
        non_null = np.isfinite(values)
    op, value = predicate.op, predicate.value
    if op == "in":
        matched = np.isin(values, np.asarray(predicate.values))
    elif op == "=":
        matched = values == value
    elif op == "!=":
        matched = values != value
    elif op == "<":
        matched = values < value
    elif op == "<=":
        matched = values <= value
    elif op == ">":
        matched = values > value
    else:  # ">="
        matched = values >= value
    return matched & non_null


class TrueCardinalityCalculator:
    """Computes exact scan and join cardinalities for one database."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._mask_cache: Dict[Tuple, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    def scan_mask(
        self, table: str, predicates: Sequence[Predicate]
    ) -> np.ndarray:
        """Row mask after applying a conjunction of predicates to a table."""
        key = (table, tuple(sorted(
            (p.column, p.op, p.value, p.values or ()) for p in predicates
        )))
        cached = self._mask_cache.get(key)
        if cached is not None:
            return cached
        num_rows = self.database.table_rows(table)
        mask = np.ones(num_rows, dtype=bool)
        for predicate in predicates:
            values = self.database.column_array(table, predicate.column)
            mask &= predicate_mask(values, predicate)
        self._mask_cache[key] = mask
        return mask

    def scan_rows(self, table: str, predicates: Sequence[Predicate]) -> int:
        return int(self.scan_mask(table, predicates).sum())

    # ------------------------------------------------------------------ #
    def subset_rows(
        self,
        query: Query,
        tables: Sequence[str],
        ignore_predicates_on: Optional[str] = None,
    ) -> float:
        """Exact cardinality of joining a connected subset of query tables.

        Folds leaves of the join subtree into their neighbors, carrying a
        per-row weight equal to the number of already-folded join partners.

        ``ignore_predicates_on`` drops the filters of one table — used to
        count the rows an index lookup *fetches* before residual filters.
        """

        weights, root = self._fold_weights(
            query, tables, ignore_predicates_on=ignore_predicates_on
        )
        return float(weights[root].sum())

    def _fold_weights(
        self,
        query: Query,
        tables: Sequence[str],
        root: Optional[str] = None,
        ignore_predicates_on: Optional[str] = None,
    ):
        """Run the semijoin fold; returns (weights dict, surviving table).

        When ``root`` is given, folding eliminates every other table so the
        surviving per-row weights live on ``root``'s rows.
        """

        def predicates_on(table: str):
            if table == ignore_predicates_on:
                return []
            return query.predicates_on(table)

        table_set = set(tables)
        if root is not None and root not in table_set:
            raise ValueError(f"fold root {root!r} not in subset")
        if len(table_set) == 1:
            table = next(iter(table_set))
            mask = self.scan_mask(table, predicates_on(table))
            return {table: mask.astype(np.float64)}, table

        joins = [
            j for j in query.joins
            if j.left_table in table_set and j.right_table in table_set
        ]
        if len(joins) != len(table_set) - 1:
            raise ValueError(
                f"join subtree over {sorted(table_set)} is not a tree "
                f"({len(joins)} joins)"
            )

        # Per-table surviving row weights (0 for filtered-out rows).
        weights: Dict[str, np.ndarray] = {}
        for table in table_set:
            mask = self.scan_mask(table, predicates_on(table))
            weights[table] = mask.astype(np.float64)

        adjacency: Dict[str, List[Join]] = {t: [] for t in table_set}
        for join in joins:
            adjacency[join.left_table].append(join)
            adjacency[join.right_table].append(join)

        remaining_joins = list(joins)
        remaining_tables = set(table_set)
        while remaining_joins:
            # Find a leaf: a table participating in exactly one remaining join.
            degree: Dict[str, int] = {t: 0 for t in remaining_tables}
            for join in remaining_joins:
                degree[join.left_table] += 1
                degree[join.right_table] += 1
            # Sorted so the elimination order — and therefore the float
            # summation order — is identical in every process; a set walk
            # here varies with hash randomization and perturbs labels in
            # the last ulp.
            leaf = next(
                t for t in sorted(remaining_tables)
                if degree[t] == 1 and t != root
            )
            join = next(
                j for j in remaining_joins
                if leaf in (j.left_table, j.right_table)
            )
            if join.left_table == leaf:
                leaf_column, other, other_column = (
                    join.left_column, join.right_table, join.right_column
                )
            else:
                leaf_column, other, other_column = (
                    join.right_column, join.left_table, join.left_column
                )

            leaf_keys = self.database.column_array(leaf, leaf_column)
            leaf_weights = weights[leaf]
            live = leaf_weights > 0
            if leaf_keys.dtype == np.int64:
                live &= leaf_keys != NULL_SENTINEL
            else:
                live &= np.isfinite(leaf_keys)
            live_keys = leaf_keys[live]
            live_weights = leaf_weights[live]

            other_keys = self.database.column_array(other, other_column)
            if live_keys.size == 0:
                weights[other] = np.zeros_like(weights[other])
            else:
                unique_keys, inverse = np.unique(live_keys, return_inverse=True)
                key_weight = np.bincount(
                    inverse, weights=live_weights, minlength=unique_keys.size
                )
                position = np.searchsorted(unique_keys, other_keys)
                position = np.clip(position, 0, unique_keys.size - 1)
                matches = unique_keys[position] == other_keys
                factor = np.where(matches, key_weight[position], 0.0)
                weights[other] = weights[other] * factor

            remaining_tables.discard(leaf)
            remaining_joins.remove(join)

        survivor = next(iter(remaining_tables))
        return weights, survivor

    def group_count(
        self,
        query: Query,
        tables: Sequence[str],
        group_table: str,
        group_column: str,
    ) -> float:
        """Exact number of GROUP BY groups over the joined subset.

        Folds every table into ``group_table``; the groups are the distinct
        non-null values of ``group_column`` among rows that still have
        positive weight (i.e. participate in the join result).
        """
        weights, survivor = self._fold_weights(
            query, tables, root=group_table
        )
        assert survivor == group_table
        values = self.database.column_array(group_table, group_column)
        live = weights[group_table] > 0
        if values.dtype == np.int64:
            live &= values != NULL_SENTINEL
        else:
            live &= np.isfinite(values)
        return float(np.unique(values[live]).size)

