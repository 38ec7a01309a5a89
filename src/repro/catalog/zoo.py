"""The 20-database zoo: a procedurally generated stand-in for the Zero-Shot
benchmark (IMDB, TPC-H, and 18 relational-fit databases).

Every database is generated deterministically from its name.  The zoo varies
the axes that across-database generalization depends on: number of tables,
join-graph shape (star / snowflake / chain), table sizes, column counts,
value skew (uniform vs zipf vs normal), correlations, and null fractions.

``imdb`` and ``tpc_h`` get hand-shaped schemas that mirror the structure of
the real ones (a fact-heavy star around ``title`` / ``lineitem``), because
the paper's workload 3 and the drift experiments are defined against them.
"""

from __future__ import annotations

import zlib
from typing import Dict, List

import numpy as np

from repro.catalog.datagen import Database, generate_database
from repro.catalog.schema import Column, ForeignKey, Schema, Table

# Names follow the Zero-Shot benchmark's database list.
ZOO_DATABASE_NAMES = (
    "airline",
    "accidents",
    "baseball",
    "basketball",
    "carcinogenesis",
    "consumer",
    "credit",
    "employee",
    "financial",
    "fhnk",
    "geneea",
    "genome",
    "hepatitis",
    "imdb",
    "movielens",
    "seznam",
    "ssb",
    "tournament",
    "tpc_h",
    "walmart",
)

# Global size knob: 1.0 gives tables of ~200..8000 rows, which keeps exact
# true-cardinality computation fast while leaving room for large join fan-out.
DEFAULT_SIZE_FACTOR = 1.0


def _attribute_columns(
    rng: np.random.Generator, count: int, prefix: str
) -> List[Column]:
    """Random attribute columns with varied distributions and ranges."""
    columns: List[Column] = []
    for index in range(count):
        kind = "int" if rng.random() < 0.7 else "float"
        distribution = rng.choice(
            ["uniform", "zipf", "normal"], p=[0.45, 0.35, 0.2]
        )
        high = float(rng.choice([9, 49, 99, 499, 1999]))
        null_frac = float(rng.choice([0.0, 0.0, 0.0, 0.05, 0.15]))
        skew = float(rng.uniform(1.1, 2.2))
        columns.append(
            Column(
                name=f"{prefix}{index}",
                kind=kind,
                distribution=str(distribution),
                low=0.0,
                high=high,
                skew=skew,
                null_frac=null_frac,
            )
        )
    # Occasionally add a correlated pair (breaks the optimizer's
    # independence assumption, a key source of EDQO).
    if count >= 2 and rng.random() < 0.6:
        source = columns[0]
        columns.append(
            Column(
                name=f"{prefix}corr",
                kind="int",
                distribution="correlated",
                correlated_with=source.name,
                low=0.0,
                high=99.0,
            )
        )
    return columns


def _build_procedural_schema(name: str, size_factor: float) -> Schema:
    seed = zlib.crc32(name.encode())
    rng = np.random.default_rng(seed)
    schema = Schema(name=name)

    shape = rng.choice(["star", "snowflake", "chain"], p=[0.4, 0.35, 0.25])
    n_dimensions = int(rng.integers(2, 7))
    base = float(rng.choice([400, 1000, 2500, 5000]))

    def rows(scale: float) -> int:
        jitter = float(rng.uniform(0.7, 1.4))
        return max(50, int(base * scale * jitter * size_factor))

    dimension_names = [f"dim{i}" for i in range(n_dimensions)]
    for dim in dimension_names:
        columns = [Column(name="id", kind="pk")]
        columns += _attribute_columns(rng, int(rng.integers(2, 5)), "attr")
        schema.add_table(Table(name=dim, columns=columns, num_rows=rows(0.2)))

    fact_columns = [Column(name="id", kind="pk")]
    fact_fks: List[ForeignKey] = []
    for dim in dimension_names:
        fk_distribution = "zipf" if rng.random() < 0.5 else "uniform"
        fact_columns.append(
            Column(
                name=f"{dim}_id",
                kind="fk",
                distribution=fk_distribution,
                skew=float(rng.uniform(1.2, 2.0)),
            )
        )
        fact_fks.append(ForeignKey("fact", f"{dim}_id", dim, "id"))
    fact_columns += _attribute_columns(rng, int(rng.integers(2, 6)), "meas")
    schema.add_table(Table(name="fact", columns=fact_columns, num_rows=rows(1.0)))
    for fk in fact_fks:
        schema.add_foreign_key(fk)

    if shape == "snowflake":
        # Some dimensions get their own parent (dimension of a dimension).
        for dim in dimension_names[: max(1, n_dimensions // 2)]:
            parent = f"{dim}_group"
            columns = [Column(name="id", kind="pk")]
            columns += _attribute_columns(rng, int(rng.integers(1, 4)), "attr")
            schema.add_table(
                Table(name=parent, columns=columns, num_rows=rows(0.05))
            )
            dim_table = schema.table(dim)
            dim_table.columns.append(Column(name=f"{parent}_id", kind="fk"))
            dim_table.__post_init__()  # recompute row width
            schema.add_foreign_key(ForeignKey(dim, f"{parent}_id", parent, "id"))
    elif shape == "chain":
        # A second fact table hanging off the first (event/detail pattern).
        detail_columns = [
            Column(name="id", kind="pk"),
            Column(
                name="fact_id",
                kind="fk",
                distribution="zipf",
                skew=float(rng.uniform(1.2, 1.9)),
            ),
        ]
        detail_columns += _attribute_columns(rng, int(rng.integers(2, 5)), "det")
        schema.add_table(
            Table(name="detail", columns=detail_columns, num_rows=rows(2.0))
        )
        schema.add_foreign_key(ForeignKey("detail", "fact_id", "fact", "id"))

    schema.validate()
    return schema


def _build_imdb_schema(size_factor: float) -> Schema:
    """An IMDB-shaped schema: title at the center, JOB-light's six tables."""
    schema = Schema(name="imdb")
    f = size_factor

    schema.add_table(Table("title", [
        Column("id", kind="pk"),
        Column("kind_id", kind="int", distribution="zipf", low=1, high=7, skew=1.6),
        Column("production_year", kind="int", distribution="normal",
               low=1880, high=2020, null_frac=0.1),
        Column("season_nr", kind="int", distribution="zipf", low=1, high=50,
               skew=1.8, null_frac=0.6),
        # Strongly correlated with season_nr, as in real IMDB — conjunctive
        # filters over the pair defeat the independence assumption.
        Column("episode_nr", kind="int", distribution="correlated",
               correlated_with="season_nr", low=1, high=200, null_frac=0.6),
    ], num_rows=int(8000 * f)))

    schema.add_table(Table("movie_companies", [
        Column("id", kind="pk"),
        Column("movie_id", kind="fk", distribution="zipf", skew=1.4),
        Column("company_id", kind="int", distribution="zipf", low=1, high=2000,
               skew=1.5),
        # Production companies skew toward one company type (correlated),
        # another realistic independence-assumption breaker.
        Column("company_type_id", kind="int", distribution="correlated",
               correlated_with="company_id", low=1, high=2),
    ], num_rows=int(10000 * f)))

    schema.add_table(Table("cast_info", [
        Column("id", kind="pk"),
        Column("movie_id", kind="fk", distribution="zipf", skew=1.3),
        Column("person_id", kind="int", distribution="zipf", low=1,
               high=40000, skew=1.3),
        Column("role_id", kind="int", distribution="zipf", low=1, high=11,
               skew=1.5),
    ], num_rows=int(14000 * f)))

    schema.add_table(Table("movie_info", [
        Column("id", kind="pk"),
        Column("movie_id", kind="fk", distribution="zipf", skew=1.3),
        Column("info_type_id", kind="int", distribution="zipf", low=1,
               high=110, skew=1.4),
    ], num_rows=int(12000 * f)))

    schema.add_table(Table("movie_info_idx", [
        Column("id", kind="pk"),
        Column("movie_id", kind="fk", distribution="zipf", skew=1.5),
        Column("info_type_id", kind="int", distribution="zipf", low=99,
               high=113, skew=1.3),
    ], num_rows=int(5000 * f)))

    schema.add_table(Table("movie_keyword", [
        Column("id", kind="pk"),
        Column("movie_id", kind="fk", distribution="zipf", skew=1.4),
        Column("keyword_id", kind="int", distribution="zipf", low=1,
               high=30000, skew=1.4),
    ], num_rows=int(11000 * f)))

    for child in ("movie_companies", "cast_info", "movie_info",
                  "movie_info_idx", "movie_keyword"):
        schema.add_foreign_key(ForeignKey(child, "movie_id", "title", "id"))
    schema.validate()
    return schema


def _build_tpch_schema(size_factor: float) -> Schema:
    """A TPC-H-shaped schema: lineitem/orders/customer/part/supplier."""
    schema = Schema(name="tpc_h")
    f = size_factor

    schema.add_table(Table("region", [
        Column("id", kind="pk"),
        Column("r_name", kind="int", distribution="uniform", low=0, high=4),
    ], num_rows=max(5, int(5 * f))))

    schema.add_table(Table("nation", [
        Column("id", kind="pk"),
        Column("region_id", kind="fk"),
        Column("n_name", kind="int", distribution="uniform", low=0, high=24),
    ], num_rows=max(25, int(25 * f))))

    schema.add_table(Table("supplier", [
        Column("id", kind="pk"),
        Column("nation_id", kind="fk"),
        Column("s_acctbal", kind="float", distribution="uniform",
               low=-999, high=9999),
    ], num_rows=int(200 * f)))

    schema.add_table(Table("customer", [
        Column("id", kind="pk"),
        Column("nation_id", kind="fk"),
        Column("c_acctbal", kind="float", distribution="uniform",
               low=-999, high=9999),
        Column("c_mktsegment", kind="int", distribution="uniform",
               low=0, high=4),
    ], num_rows=int(1500 * f)))

    schema.add_table(Table("part", [
        Column("id", kind="pk"),
        Column("p_size", kind="int", distribution="uniform", low=1, high=50),
        Column("p_retailprice", kind="float", distribution="normal",
               low=900, high=2100),
        Column("p_brand", kind="int", distribution="uniform", low=0, high=24),
    ], num_rows=int(2000 * f)))

    schema.add_table(Table("orders", [
        Column("id", kind="pk"),
        Column("customer_id", kind="fk", distribution="zipf", skew=1.2),
        Column("o_orderstatus", kind="int", distribution="zipf", low=0,
               high=2, skew=1.4),
        Column("o_totalprice", kind="float", distribution="normal",
               low=800, high=500000),
        Column("o_orderdate", kind="int", distribution="uniform",
               low=0, high=2405),
    ], num_rows=int(15000 * f)))

    schema.add_table(Table("lineitem", [
        Column("id", kind="pk"),
        Column("order_id", kind="fk", distribution="zipf", skew=1.1),
        Column("part_id", kind="fk", distribution="uniform"),
        Column("supplier_id", kind="fk", distribution="uniform"),
        Column("l_quantity", kind="int", distribution="uniform", low=1, high=50),
        Column("l_extendedprice", kind="float", distribution="normal",
               low=900, high=100000),
        Column("l_discount", kind="float", distribution="uniform",
               low=0.0, high=0.1),
        Column("l_shipdate", kind="int", distribution="uniform",
               low=0, high=2526),
    ], num_rows=int(60000 * f)))

    schema.add_foreign_key(ForeignKey("nation", "region_id", "region", "id"))
    schema.add_foreign_key(ForeignKey("supplier", "nation_id", "nation", "id"))
    schema.add_foreign_key(ForeignKey("customer", "nation_id", "nation", "id"))
    schema.add_foreign_key(ForeignKey("orders", "customer_id", "customer", "id"))
    schema.add_foreign_key(ForeignKey("lineitem", "order_id", "orders", "id"))
    schema.add_foreign_key(ForeignKey("lineitem", "part_id", "part", "id"))
    schema.add_foreign_key(ForeignKey("lineitem", "supplier_id", "supplier", "id"))
    schema.validate()
    return schema


def build_schema(name: str, size_factor: float = DEFAULT_SIZE_FACTOR) -> Schema:
    """Build the (unmaterialized) schema for a zoo database."""
    if name == "imdb":
        return _build_imdb_schema(size_factor)
    if name == "tpc_h":
        return _build_tpch_schema(size_factor)
    if name not in ZOO_DATABASE_NAMES:
        raise KeyError(f"unknown zoo database {name!r}")
    return _build_procedural_schema(name, size_factor)


_DATABASE_CACHE: Dict[tuple, Database] = {}


def load_database(
    name: str,
    size_factor: float = DEFAULT_SIZE_FACTOR,
    use_cache: bool = True,
) -> Database:
    """Materialize one zoo database (cached per (name, size_factor))."""
    key = (name, size_factor)
    if use_cache and key in _DATABASE_CACHE:
        return _DATABASE_CACHE[key]
    schema = build_schema(name, size_factor)
    database = generate_database(schema, seed=zlib.crc32(name.encode()))
    if use_cache:
        _DATABASE_CACHE[key] = database
    return database
