"""Synthetic database catalog: schemas, data, statistics, and the 20-db zoo.

This package substitutes for the Zero-Shot benchmark's 20 real databases
(IMDB, TPC-H, ...).  Databases are generated procedurally and
deterministically from per-database seeds with heterogeneous schema shapes,
table sizes, skew, and column correlations — the axes across-database
generalization actually depends on.
"""

from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.catalog.datagen import Database, generate_database
from repro.catalog.stats import ColumnStats, TableStats, collect_table_stats
from repro.catalog.zoo import ZOO_DATABASE_NAMES, load_database

__all__ = [
    "Column",
    "Table",
    "ForeignKey",
    "Schema",
    "Database",
    "generate_database",
    "ColumnStats",
    "TableStats",
    "collect_table_stats",
    "ZOO_DATABASE_NAMES",
    "load_database",
]
