"""Relational schema description: columns, tables, foreign keys.

Data is stored column-wise as numpy arrays.  Column kinds:

- ``"pk"``      — integer primary key, ``0..num_rows-1``.
- ``"fk"``      — integer foreign key referencing another table's pk.
- ``"int"``     — integer attribute (categorical codes, counts, years, ...).
- ``"float"``   — continuous numeric attribute.

String-valued attributes of real databases are modelled as integer
categorical codes: every predicate the workloads use (equality, range)
behaves identically on codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import networkx as nx

COLUMN_KINDS = ("pk", "fk", "int", "float")


@dataclass(frozen=True)
class Column:
    """A column: name, kind, and generation parameters.

    Attributes:
        name: column name, unique within its table.
        kind: one of :data:`COLUMN_KINDS`.
        distribution: for data generation — "uniform", "zipf", "normal",
            or "correlated" (value derived from another column plus noise).
        low/high: value range for generated data.
        skew: zipf parameter (>1) when distribution is "zipf".
        correlated_with: source column name when distribution is "correlated".
        null_frac: fraction of NULLs (encoded as a sentinel).
    """

    name: str
    kind: str = "int"
    distribution: str = "uniform"
    low: float = 0.0
    high: float = 100.0
    skew: float = 1.5
    correlated_with: Optional[str] = None
    null_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in COLUMN_KINDS:
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.distribution == "correlated" and not self.correlated_with:
            raise ValueError(f"column {self.name}: correlated needs a source")
        if not 0.0 <= self.null_frac < 1.0:
            raise ValueError(f"column {self.name}: bad null_frac {self.null_frac}")


@dataclass(frozen=True)
class ForeignKey:
    """child.child_column references parent.parent_column (a pk)."""

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str = "id"


@dataclass
class Table:
    """A table: name, ordered columns, and cardinality."""

    name: str
    columns: List[Column]
    num_rows: int
    row_width_bytes: int = 0  # filled in by __post_init__ if left 0

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise ValueError(f"table {self.name}: duplicate column names")
        if self.num_rows <= 0:
            raise ValueError(f"table {self.name}: num_rows must be positive")
        if self.row_width_bytes <= 0:
            # 8 bytes per stored column plus tuple header, like PG's ~24B.
            self.row_width_bytes = 24 + 8 * len(self.columns)

    def column(self, name: str) -> Column:
        for column in self.columns:
            if column.name == name:
                return column
        raise KeyError(f"table {self.name} has no column {name!r}")

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    @property
    def num_pages(self) -> int:
        """Heap pages at the PG default 8 KiB page size."""
        return max(1, (self.num_rows * self.row_width_bytes + 8191) // 8192)


@dataclass
class Schema:
    """A database schema: tables plus its foreign-key join graph."""

    name: str
    tables: Dict[str, Table] = field(default_factory=dict)
    foreign_keys: List[ForeignKey] = field(default_factory=list)

    def add_table(self, table: Table) -> None:
        if table.name in self.tables:
            raise ValueError(f"duplicate table {table.name!r}")
        self.tables[table.name] = table

    def add_foreign_key(self, fk: ForeignKey) -> None:
        child = self.tables[fk.child_table]
        parent = self.tables[fk.parent_table]
        child.column(fk.child_column)  # raises KeyError if absent
        parent.column(fk.parent_column)
        self.foreign_keys.append(fk)

    def table(self, name: str) -> Table:
        if name not in self.tables:
            raise KeyError(f"schema {self.name} has no table {name!r}")
        return self.tables[name]

    def join_graph(self) -> nx.Graph:
        """Undirected FK join graph; edges carry the FK description."""
        graph = nx.Graph()
        graph.add_nodes_from(self.tables)
        for fk in self.foreign_keys:
            graph.add_edge(fk.child_table, fk.parent_table, fk=fk)
        return graph

    def foreign_keys_between(
        self, table_a: str, table_b: str
    ) -> List[ForeignKey]:
        return [
            fk
            for fk in self.foreign_keys
            if {fk.child_table, fk.parent_table} == {table_a, table_b}
        ]

    def validate(self) -> None:
        """Check every FK references existing tables/columns of right kinds."""
        for fk in self.foreign_keys:
            child = self.table(fk.child_table)
            parent = self.table(fk.parent_table)
            child_col = child.column(fk.child_column)
            parent_col = parent.column(fk.parent_column)
            if parent_col.kind != "pk":
                raise ValueError(
                    f"FK {fk} references non-pk column {parent_col.name}"
                )
            if child_col.kind != "fk":
                raise ValueError(f"FK {fk} child column is not kind 'fk'")

    def total_rows(self) -> int:
        return sum(t.num_rows for t in self.tables.values())

    def describe(self) -> str:
        lines = [f"schema {self.name}: {len(self.tables)} tables"]
        for table in self.tables.values():
            lines.append(
                f"  {table.name}({', '.join(table.column_names)}) "
                f"rows={table.num_rows}"
            )
        for fk in self.foreign_keys:
            lines.append(
                f"  fk {fk.child_table}.{fk.child_column} -> "
                f"{fk.parent_table}.{fk.parent_column}"
            )
        return "\n".join(lines)
