"""Simulated query execution: true cardinalities -> per-node latencies.

This substitutes for running EXPLAIN ANALYZE on a real machine.  The
executor walks a physical plan, computes each node's *true* row counts on
the generated data (exact, via
:class:`~repro.engine.true_card.TrueCardinalityCalculator`), then charges
each operator a latency from a :class:`~repro.engine.machines.MachineProfile`
with multiplicative lognormal noise.  The result is an annotated plan whose
``actual_time_ms`` per node plays the role of EXPLAIN ANALYZE's
"actual total time" — the training label for every sub-plan.

Latency depends on true cardinalities and machine constants, while the
optimizer's ``est_cost`` depends on estimated cardinalities and abstract
cost units; the gap between the two is the EDQO the paper's models learn.
"""

from __future__ import annotations

import math

import numpy as np

from repro.catalog.datagen import Database
from repro.engine.machines import M1, MachineProfile
from repro.engine.plan import PlanNode
from repro.engine.true_card import TrueCardinalityCalculator
from repro.sql.query import Query

_INDEX_CACHE_DISCOUNT = 0.2  # repeated NL lookups mostly hit cache


class SimulatedExecutor:
    """Executes plans against one database on one machine profile."""

    def __init__(
        self,
        database: Database,
        machine: MachineProfile = M1,
        seed: int = 0,
    ) -> None:
        self.database = database
        self.machine = machine
        self.calculator = TrueCardinalityCalculator(database)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    def _noise(self) -> float:
        sigma = self.machine.noise_sigma
        if sigma == 0:
            return 1.0
        return float(self._rng.lognormal(0.0, sigma))

    def _tree_height(self, table_rows: float) -> float:
        return max(1.0, math.log(max(table_rows, 2.0), 100.0))

    # ------------------------------------------------------------------ #
    def _annotate_rows(self, node: PlanNode, query: Query) -> float:
        """Fill ``actual_rows`` for the subtree; returns this node's rows."""
        calc = self.calculator
        if node.node_type == "Gather":
            rows = self._annotate_rows(node.children[0], query)
        elif node.node_type == "Aggregate":
            self._annotate_rows(node.children[0], query)
            rows = 1.0
        elif node.node_type == "Group Aggregate":
            self._annotate_rows(node.children[0], query)
            if query.group_by is not None:
                table, column = query.group_by
                rows = calc.group_count(query, query.tables, table, column)
            else:
                rows = self._annotate_rows(node.children[0], query)
        elif node.node_type in ("Hash", "Sort", "Materialize", "Result",
                                "Limit"):
            rows = self._annotate_rows(node.children[0], query)
        elif node.is_join:
            outer, inner = node.children
            self._annotate_rows(outer, query)
            rows = calc.subset_rows(query, node.tables_below())
            if (
                node.node_type == "Nested Loop"
                and inner.node_type == "Index Scan"
                and inner.index_column is not None
            ):
                # The inner is probed once per outer row; its cumulative
                # rows are the join's output, and the rows *fetched* via
                # the index (before residual filters) drive its cost.
                inner.actual_rows = rows
                inner.fetched_rows = calc.subset_rows(
                    query,
                    outer.tables_below() + [inner.table],
                    ignore_predicates_on=inner.table,
                )
            else:
                self._annotate_rows(inner, query)
        elif node.node_type == "Bitmap Index Scan":
            rows = float(calc.scan_rows(node.table, node.predicates))
        elif node.is_scan:
            for child in node.children:
                self._annotate_rows(child, query)
            rows = float(calc.scan_rows(node.table, node.predicates))
        else:
            raise ValueError(f"cannot annotate node type {node.node_type}")
        node.actual_rows = rows
        return rows

    # ------------------------------------------------------------------ #
    def _self_time_us(self, node: PlanNode, loops: float) -> float:
        """Latency (microseconds) charged to this node itself, over all loops."""
        m = self.machine
        if loops <= 0.0:
            return 0.0  # never executed
        rows_out = node.actual_rows or 0.0

        if node.node_type in ("Seq Scan",):
            table = self.database.schema.table(node.table)
            scan = table.num_pages * m.seq_page_us
            scan += table.num_rows * m.cpu_tuple_us
            scan += table.num_rows * len(node.predicates) * m.cpu_operator_us
            scan += rows_out * m.emit_us
            return scan * max(loops, 1.0)

        if node.node_type == "Index Scan":
            table = self.database.schema.table(node.table)
            height = self._tree_height(table.num_rows)
            if node.fetched_rows is not None:
                # Nested-loop inner: `loops` probes fetching `fetched_rows`
                # key-matched rows in total, then residual filters.
                if loops <= 0.0:
                    return 0.0
                lookups = loops * height * m.random_page_us * _INDEX_CACHE_DISCOUNT
                fetch = node.fetched_rows * (
                    m.cpu_tuple_us + m.random_page_us * 0.1
                )
                residual = (
                    node.fetched_rows * len(node.predicates) * m.cpu_operator_us
                )
                return lookups + fetch + residual + rows_out * m.emit_us
            lookup = height * m.random_page_us
            fetch = rows_out * (m.cpu_tuple_us + m.random_page_us * 0.5)
            residual = rows_out * len(node.predicates) * m.cpu_operator_us
            return lookup + fetch + residual

        if node.node_type == "Bitmap Index Scan":
            table = self.database.schema.table(node.table)
            height = self._tree_height(table.num_rows)
            return height * m.random_page_us + rows_out * m.cpu_operator_us

        if node.node_type == "Bitmap Heap Scan":
            table = self.database.schema.table(node.table)
            pages = min(float(table.num_pages), rows_out * 0.3 + 1.0)
            time = pages * (m.seq_page_us + m.random_page_us) / 2.0
            time += rows_out * m.cpu_tuple_us
            time += rows_out * len(node.predicates) * m.cpu_operator_us
            return time

        if node.node_type == "Hash":
            build_rows = node.actual_rows or 0.0
            time = build_rows * m.hash_build_us
            if build_rows * node.width > m.work_mem_kb * 1024:
                time *= m.spill_penalty
            return time

        if node.node_type == "Hash Join":
            probe_rows = node.children[0].actual_rows or 0.0
            build_rows = node.children[1].actual_rows or 0.0
            time = probe_rows * m.hash_probe_us + rows_out * m.emit_us
            if build_rows * node.children[1].width > m.work_mem_kb * 1024:
                time *= m.spill_penalty * 0.5 + 0.5
            return time

        if node.node_type == "Nested Loop":
            return rows_out * m.emit_us

        if node.node_type == "Merge Join":
            left = node.children[0].actual_rows or 0.0
            right = node.children[1].actual_rows or 0.0
            return (left + right) * m.sort_cmp_us + rows_out * m.emit_us

        if node.node_type == "Sort":
            rows = max(node.actual_rows or 0.0, 2.0)
            time = rows * math.log2(rows) * m.sort_cmp_us
            if rows * node.width > m.work_mem_kb * 1024:
                time *= m.spill_penalty
            return time

        if node.node_type == "Materialize":
            rows = node.actual_rows or 0.0
            build = rows * m.cpu_tuple_us * 0.5
            rescans = max(loops - 1.0, 0.0) * rows * m.cpu_tuple_us * 0.15
            return build + rescans

        if node.node_type == "Aggregate":
            in_rows = node.children[0].actual_rows or 0.0
            return in_rows * m.cpu_operator_us

        if node.node_type == "Group Aggregate":
            # Hash the grouping key per input row, emit one row per group.
            in_rows = node.children[0].actual_rows or 0.0
            return (
                in_rows * (m.cpu_operator_us + m.hash_probe_us)
                + rows_out * m.emit_us
            )

        if node.node_type == "Gather":
            return rows_out * m.cpu_tuple_us * 2.0 + 30.0  # worker startup

        if node.node_type in ("Limit", "Result"):
            return m.cpu_tuple_us

        raise ValueError(f"no timing model for node type {node.node_type}")

    def _annotate_time(self, node: PlanNode, loops: float) -> float:
        """Fill ``actual_time_ms`` bottom-up; returns cumulative time (ms)."""
        if node.node_type == "Nested Loop":
            # Children row counts were annotated already; the inner side
            # runs once per outer row (0 outer rows -> never executed).
            outer_rows = node.children[0].actual_rows or 0.0
            child_abs_loops = [loops, loops * outer_rows]
        elif node.node_type in ("Materialize", "Hash"):
            # Builds happen once and are cached across rescans.
            child_abs_loops = [min(loops, 1.0)]
        else:
            child_abs_loops = [loops] * len(node.children)
        children_ms = sum(
            self._annotate_time(child, l)
            for child, l in zip(node.children, child_abs_loops)
        )
        if node.node_type == "Gather":
            # Two workers split the subtree's work; keep the coordination tax.
            children_ms *= 0.55
        self_ms = self._self_time_us(node, loops) / 1000.0 * self._noise()
        node.actual_time_ms = children_ms + self_ms
        return node.actual_time_ms

    # ------------------------------------------------------------------ #
    def execute(self, plan: PlanNode, query: Query) -> PlanNode:
        """Annotate ``plan`` in place with actual rows and latencies.

        Returns the same plan; the root's ``actual_time_ms`` includes the
        machine's fixed per-query startup cost.
        """
        self._annotate_rows(plan, query)
        self._annotate_time(plan, 1.0)
        plan.actual_time_ms += self.machine.startup_ms * self._noise()
        return plan
