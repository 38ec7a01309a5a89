"""Cost-based query planner (System-R style, PG-flavored).

Produces physical plan trees for SPJ(+aggregate) queries:

- **Access paths** per table: Seq Scan, Index Scan, Bitmap Heap Scan (over a
  Bitmap Index Scan), or Index Only Scan; every table is indexed on its pk,
  its fk columns, and its first attribute column (a fixed, documented rule).
- **Join ordering** by dynamic programming over connected subsets (bushy),
  falling back to a greedy heuristic above ``MAX_DP_TABLES`` tables.
- **Join methods**: Hash Join (with an explicit Hash build node), Nested
  Loop (with an Index Scan inner when the join key is indexed, otherwise a
  Materialize inner), Merge Join (with Sort children).
- Big sequential scans are parallelized under a **Gather** node, and
  aggregate queries get an **Aggregate** root.

Costing uses estimated cardinalities from
:class:`~repro.engine.cardinality.CardinalityEstimator`; all the usual
misestimation pathologies (independence, uniform fan-out) flow through to
the plan's per-node ``est_rows``/``est_cost`` — the features DACE consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.catalog.schema import Schema
from repro.engine.cardinality import CardinalityEstimator
from repro.engine.cost_model import CostModel
from repro.engine.plan import PlanNode
from repro.sql.query import Join, Query

MAX_DP_TABLES = 9
GATHER_MIN_PAGES = 2000  # parallel seq scan threshold (pages)


@dataclass
class _Path:
    """A candidate subplan for a set of tables."""

    node: PlanNode
    rows: float
    cost: float  # cumulative, == node.est_cost


class Planner:
    """Plans queries for one database snapshot."""

    def __init__(
        self,
        schema: Schema,
        estimator: CardinalityEstimator,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.schema = schema
        self.estimator = estimator
        self.cost_model = cost_model if cost_model is not None else CostModel()

    # ------------------------------------------------------------------ #
    # Index inventory
    # ------------------------------------------------------------------ #
    def indexed_columns(self, table: str) -> List[str]:
        """Indexes: every pk/fk column and the first attribute column (a
        fixed documented rule)."""
        schema_table = self.schema.table(table)
        indexed = []
        first_attribute: Optional[str] = None
        for column in schema_table.columns:
            if column.kind in ("pk", "fk"):
                indexed.append(column.name)
            elif first_attribute is None and column.kind in ("int", "float"):
                first_attribute = column.name
        if first_attribute is not None:
            indexed.append(first_attribute)
        return indexed

    # ------------------------------------------------------------------ #
    # Access paths
    # ------------------------------------------------------------------ #
    def _scan_paths(self, query: Query, table: str) -> List[_Path]:
        cm = self.cost_model
        schema_table = self.schema.table(table)
        predicates = query.predicates_on(table)
        out_rows = self.estimator.scan_rows(table, predicates)
        table_rows = float(schema_table.num_rows)
        pages = float(schema_table.num_pages)
        width = schema_table.row_width_bytes
        indexed = set(self.indexed_columns(table))

        paths: List[_Path] = []

        seq_cost = cm.seq_scan(table_rows, pages, len(predicates), out_rows)
        seq_node = PlanNode(
            node_type="Seq Scan",
            est_rows=out_rows,
            est_cost=seq_cost,
            width=width,
            table=table,
            predicates=list(predicates),
        )
        if pages >= GATHER_MIN_PAGES:
            # Parallel scan: 2 workers halve the scan, Gather adds transfer.
            gather_cost = seq_cost / 2.0 + out_rows * cm.constants.cpu_tuple_cost
            parallel_child = PlanNode(
                node_type="Seq Scan",
                est_rows=out_rows,
                est_cost=seq_cost / 2.0,
                width=width,
                table=table,
                predicates=list(predicates),
            )
            gather = PlanNode(
                node_type="Gather",
                est_rows=out_rows,
                est_cost=gather_cost,
                width=width,
                children=[parallel_child],
            )
            paths.append(_Path(gather, out_rows, gather_cost))
        paths.append(_Path(seq_node, out_rows, seq_cost))

        # Index paths driven by the most selective indexed eq/range predicate.
        indexed_predicates = [p for p in predicates if p.column in indexed]
        if indexed_predicates:
            driver = min(
                indexed_predicates,
                key=self.estimator.predicate_selectivity,
            )
            matched = table_rows * self.estimator.predicate_selectivity(driver)
            residual = [p for p in predicates if p is not driver]

            index_cost = cm.index_scan(matched, pages, table_rows, len(residual))
            paths.append(_Path(
                PlanNode(
                    node_type="Index Scan",
                    est_rows=out_rows,
                    est_cost=index_cost,
                    width=width,
                    table=table,
                    predicates=list(predicates),
                    index_column=driver.column,
                ),
                out_rows,
                index_cost,
            ))

            bitmap_index_cost = cm.bitmap_index_scan(matched, table_rows)
            bitmap_index = PlanNode(
                node_type="Bitmap Index Scan",
                est_rows=matched,
                est_cost=bitmap_index_cost,
                width=0,
                table=table,
                index_column=driver.column,
                predicates=[driver],
            )
            bitmap_heap_cost = bitmap_index_cost + cm.bitmap_heap_scan(
                matched, pages, len(residual)
            )
            paths.append(_Path(
                PlanNode(
                    node_type="Bitmap Heap Scan",
                    est_rows=out_rows,
                    est_cost=bitmap_heap_cost,
                    width=width,
                    table=table,
                    predicates=list(predicates),
                    children=[bitmap_index],
                ),
                out_rows,
                bitmap_heap_cost,
            ))
        return paths

    def _best_scan(self, query: Query, table: str) -> _Path:
        return min(self._scan_paths(query, table), key=lambda p: p.cost)

    def _index_lookup_path(
        self, query: Query, table: str, join_column: str
    ) -> Optional[_Path]:
        """Inner side of a nested loop: index scan on the join key."""
        if join_column not in self.indexed_columns(table):
            return None
        cm = self.cost_model
        schema_table = self.schema.table(table)
        predicates = query.predicates_on(table)
        table_rows = float(schema_table.num_rows)
        pages = float(schema_table.num_pages)
        # Average matches per lookup: fan-out of the join key.
        stats = self.estimator.stats.get(table)
        if stats is not None and join_column in stats.columns:
            distinct = max(1.0, stats.columns[join_column].n_distinct)
        else:
            distinct = table_rows
        matches = max(1.0, table_rows / distinct)
        selectivity = self.estimator.scan_selectivity(predicates)
        out_rows = max(matches * selectivity, 1e-6)
        cost = cm.index_scan(matches, pages, table_rows, len(predicates))
        node = PlanNode(
            node_type="Index Scan",
            est_rows=max(out_rows, 1.0),
            est_cost=cost,
            width=schema_table.row_width_bytes,
            table=table,
            predicates=list(predicates),
            index_column=join_column,
        )
        return _Path(node, out_rows, cost)

    # ------------------------------------------------------------------ #
    # Join methods
    # ------------------------------------------------------------------ #
    def _join_paths(
        self,
        query: Query,
        outer: _Path,
        inner: _Path,
        joins: Sequence[Join],
        out_rows: float,
    ) -> List[_Path]:
        cm = self.cost_model
        paths: List[_Path] = []
        join = joins[0]

        # Hash join: build the smaller side.
        build, probe = (inner, outer)
        if build.rows > probe.rows:
            build, probe = probe, build
        hash_self = cm.hash_build(build.rows, build.node.width)
        spill = build.rows * build.node.width > cm.constants.work_mem_kb * 1024
        if spill:
            hash_self *= 3.0
        hash_node = PlanNode(
            node_type="Hash",
            est_rows=build.rows,
            est_cost=build.cost + hash_self,
            width=build.node.width,
            children=[build.node],
        )
        hj_cost = (
            probe.cost
            + hash_node.est_cost
            + cm.hash_join_probe(probe.rows, out_rows)
        )
        paths.append(_Path(
            PlanNode(
                node_type="Hash Join",
                est_rows=out_rows,
                est_cost=hj_cost,
                width=probe.node.width + build.node.width,
                children=[probe.node, hash_node],
                join=join,
            ),
            out_rows,
            hj_cost,
        ))

        # Nested loop with an index inner (only if inner is a single table).
        inner_tables = inner.node.tables_below()
        if len(inner_tables) == 1:
            inner_table = inner_tables[0]
            join_column = (
                join.left_column if join.left_table == inner_table
                else join.right_column
            )
            lookup = self._index_lookup_path(query, inner_table, join_column)
            if lookup is not None:
                nl_cost = outer.cost + cm.nested_loop(
                    outer.rows, lookup.cost, out_rows
                )
                paths.append(_Path(
                    PlanNode(
                        node_type="Nested Loop",
                        est_rows=out_rows,
                        est_cost=nl_cost,
                        width=outer.node.width + lookup.node.width,
                        children=[outer.node.clone(), lookup.node],
                        join=join,
                    ),
                    out_rows,
                    nl_cost,
                ))

        # Nested loop with a materialized inner.
        materialize_self = cm.materialize(inner.rows)
        materialize = PlanNode(
            node_type="Materialize",
            est_rows=inner.rows,
            est_cost=inner.cost + materialize_self,
            width=inner.node.width,
            children=[inner.node.clone()],
        )
        rescan = cm.materialize_rescan(inner.rows)
        nl_mat_cost = outer.cost + materialize.est_cost + cm.nested_loop(
            outer.rows, rescan, out_rows
        )
        paths.append(_Path(
            PlanNode(
                node_type="Nested Loop",
                est_rows=out_rows,
                est_cost=nl_mat_cost,
                width=outer.node.width + inner.node.width,
                children=[outer.node.clone(), materialize],
                join=join,
            ),
            out_rows,
            nl_mat_cost,
        ))

        # Merge join with sorted inputs.
        sort_outer_self = cm.sort(outer.rows, outer.node.width)
        sort_inner_self = cm.sort(inner.rows, inner.node.width)
        sort_outer = PlanNode(
            node_type="Sort", est_rows=outer.rows,
            est_cost=outer.cost + sort_outer_self,
            width=outer.node.width, children=[outer.node.clone()],
        )
        sort_inner = PlanNode(
            node_type="Sort", est_rows=inner.rows,
            est_cost=inner.cost + sort_inner_self,
            width=inner.node.width, children=[inner.node.clone()],
        )
        mj_cost = (
            sort_outer.est_cost
            + sort_inner.est_cost
            + cm.merge_join(outer.rows, inner.rows, out_rows)
        )
        paths.append(_Path(
            PlanNode(
                node_type="Merge Join",
                est_rows=out_rows,
                est_cost=mj_cost,
                width=outer.node.width + inner.node.width,
                children=[sort_outer, sort_inner],
                join=join,
            ),
            out_rows,
            mj_cost,
        ))
        return paths

    # ------------------------------------------------------------------ #
    # Join ordering
    # ------------------------------------------------------------------ #
    def _plan_joins_dp(self, query: Query) -> _Path:
        tables = query.tables
        best: Dict[FrozenSet[str], _Path] = {}
        for table in tables:
            best[frozenset([table])] = self._best_scan(query, table)

        for size in range(2, len(tables) + 1):
            for combo in itertools.combinations(tables, size):
                subset = frozenset(combo)
                candidates: List[_Path] = []
                # All ways to split into two connected, joined halves.
                members = sorted(subset)
                for split_size in range(1, size // 2 + 1):
                    for left_combo in itertools.combinations(members, split_size):
                        left = frozenset(left_combo)
                        right = subset - left
                        if left not in best or right not in best:
                            continue
                        joins = query.joins_between(left, right)
                        if not joins:
                            continue
                        out_rows = self.estimator.estimate_subset_rows(
                            query, list(subset)
                        )
                        candidates.extend(self._join_paths(
                            query, best[left], best[right], joins, out_rows
                        ))
                        candidates.extend(self._join_paths(
                            query, best[right], best[left], joins, out_rows
                        ))
                if candidates:
                    best[subset] = min(candidates, key=lambda p: p.cost)
        full = frozenset(tables)
        if full not in best:
            raise ValueError("query join graph is disconnected")
        return best[full]

    def _plan_joins_greedy(self, query: Query) -> _Path:
        """Greedy pairwise merging for very large table counts."""
        parts: Dict[FrozenSet[str], _Path] = {
            frozenset([t]): self._best_scan(query, t) for t in query.tables
        }
        while len(parts) > 1:
            best_pair = None
            best_path = None
            for left, right in itertools.combinations(parts, 2):
                joins = query.joins_between(left, right)
                if not joins:
                    continue
                out_rows = self.estimator.estimate_subset_rows(
                    query, list(left | right)
                )
                for path in self._join_paths(
                    query, parts[left], parts[right], joins, out_rows
                ):
                    if best_path is None or path.cost < best_path.cost:
                        best_path = path
                        best_pair = (left, right)
            if best_pair is None:
                raise ValueError("query join graph is disconnected")
            left, right = best_pair
            del parts[left]
            del parts[right]
            parts[left | right] = best_path
        return next(iter(parts.values()))

    # ------------------------------------------------------------------ #
    # Multi-candidate enumeration (beam DP) — used for learned plan
    # selection, where a model re-ranks the optimizer's top candidates.
    # ------------------------------------------------------------------ #
    def _candidate_paths(self, query: Query, beam: int) -> List[_Path]:
        """Beam-width DP: keep up to ``beam`` cheapest paths per subset."""
        best: Dict[FrozenSet[str], List[_Path]] = {}
        for table in query.tables:
            paths = sorted(self._scan_paths(query, table),
                           key=lambda p: p.cost)
            best[frozenset([table])] = paths[:beam]

        for size in range(2, len(query.tables) + 1):
            for combo in itertools.combinations(query.tables, size):
                subset = frozenset(combo)
                candidates: List[_Path] = []
                members = sorted(subset)
                for split_size in range(1, size // 2 + 1):
                    for left_combo in itertools.combinations(
                        members, split_size
                    ):
                        left = frozenset(left_combo)
                        right = subset - left
                        if left not in best or right not in best:
                            continue
                        joins = query.joins_between(left, right)
                        if not joins:
                            continue
                        out_rows = self.estimator.estimate_subset_rows(
                            query, list(subset)
                        )
                        for outer in best[left]:
                            for inner in best[right]:
                                candidates.extend(self._join_paths(
                                    query, outer, inner, joins, out_rows
                                ))
                                candidates.extend(self._join_paths(
                                    query, inner, outer, joins, out_rows
                                ))
                if candidates:
                    candidates.sort(key=lambda p: p.cost)
                    best[subset] = candidates[:beam]
        full = frozenset(query.tables)
        if full not in best:
            raise ValueError("query join graph is disconnected")
        return best[full]

    def _finalize(self, query: Query, path: _Path) -> PlanNode:
        root = path.node
        if query.group_by is not None:
            # Hash-style grouped aggregation (PG's HashAggregate); the
            # grouping key adds one hashed operator per input row.
            groups = self.estimator.group_count_estimate(query, path.rows)
            agg_cost = (
                path.cost
                + self.cost_model.aggregate(path.rows, num_aggs=2)
                + groups * self.cost_model.constants.cpu_tuple_cost
            )
            root = PlanNode(
                node_type="Group Aggregate",
                est_rows=groups,
                est_cost=agg_cost,
                width=16,
                children=[root],
            )
        elif query.aggregate:
            agg_cost = path.cost + self.cost_model.aggregate(path.rows)
            root = PlanNode(
                node_type="Aggregate",
                est_rows=1.0,
                est_cost=agg_cost,
                width=8,
                children=[root],
            )
        return root

    def candidate_plans(self, query: Query, k: int = 8) -> List[PlanNode]:
        """Up to ``k`` complete candidate plans, cheapest-estimate first.

        The first candidate is the plan :meth:`plan` would pick.  Only
        available for DP-sized queries (≤ ``MAX_DP_TABLES`` tables).
        """
        query.validate_against(self.schema)
        if len(query.tables) == 1:
            paths = sorted(self._scan_paths(query, query.tables[0]),
                           key=lambda p: p.cost)[:k]
        elif len(query.tables) <= MAX_DP_TABLES:
            paths = self._candidate_paths(query, beam=k)[:k]
        else:
            paths = [self._plan_joins_greedy(query)]
        return [self._finalize(query, path) for path in paths]

    # ------------------------------------------------------------------ #
    def plan(self, query: Query) -> PlanNode:
        """Produce the cheapest physical plan for ``query``."""
        query.validate_against(self.schema)
        if len(query.tables) == 1:
            path = self._best_scan(query, query.tables[0])
        elif len(query.tables) <= MAX_DP_TABLES:
            path = self._plan_joins_dp(query)
        else:
            path = self._plan_joins_greedy(query)
        return self._finalize(query, path)
