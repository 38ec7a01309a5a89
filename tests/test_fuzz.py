"""Property-based fuzzing across the whole substrate.

Hypothesis generates random schemas, materializes them, generates random
workloads, and checks end-to-end invariants: every query plans, every plan
executes, estimates and labels are finite and positive, and the exact
cardinality machinery agrees with brute force on small cases.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.catalog.datagen import generate_database
from repro.catalog.schema import Column, ForeignKey, Schema, Table
from repro.engine.session import EngineSession
from repro.engine.true_card import TrueCardinalityCalculator
from repro.sql.generator import QueryGenerator, WorkloadSpec

DISTRIBUTIONS = ["uniform", "zipf", "normal"]


@st.composite
def random_schemas(draw):
    """A star schema with 1-3 dimensions and randomized column specs."""
    n_dims = draw(st.integers(min_value=1, max_value=3))
    schema = Schema(name="fuzz")
    for dim in range(n_dims):
        columns = [Column("id", kind="pk")]
        for c in range(draw(st.integers(min_value=1, max_value=3))):
            columns.append(Column(
                name=f"a{c}",
                kind=draw(st.sampled_from(["int", "float"])),
                distribution=draw(st.sampled_from(DISTRIBUTIONS)),
                low=0,
                high=draw(st.integers(min_value=2, max_value=500)),
                skew=draw(st.floats(min_value=1.1, max_value=2.0)),
                null_frac=draw(st.sampled_from([0.0, 0.0, 0.2])),
            ))
        schema.add_table(Table(
            name=f"dim{dim}",
            columns=columns,
            num_rows=draw(st.integers(min_value=30, max_value=400)),
        ))
    fact_columns = [Column("id", kind="pk")]
    for dim in range(n_dims):
        fact_columns.append(Column(
            name=f"dim{dim}_id",
            kind="fk",
            distribution=draw(st.sampled_from(["uniform", "zipf"])),
            skew=draw(st.floats(min_value=1.1, max_value=1.8)),
        ))
    fact_columns.append(Column(
        name="measure", kind="float", distribution="uniform",
        low=0, high=1000,
    ))
    schema.add_table(Table(
        name="fact",
        columns=fact_columns,
        num_rows=draw(st.integers(min_value=100, max_value=1500)),
    ))
    for dim in range(n_dims):
        schema.add_foreign_key(
            ForeignKey("fact", f"dim{dim}_id", f"dim{dim}", "id")
        )
    schema.validate()
    return schema


FUZZ_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestEndToEndFuzz:
    @given(schema=random_schemas(), seed=st.integers(0, 1000))
    @FUZZ_SETTINGS
    def test_every_query_plans_and_executes(self, schema, seed):
        database = generate_database(schema, seed=seed)
        session = EngineSession(database, seed=seed)
        generator = QueryGenerator(
            database,
            WorkloadSpec(max_joins=2, max_predicates=3, min_predicates=0,
                         in_fraction=0.2, group_by_fraction=0.2),
            seed=seed,
        )
        for query in generator.generate_many(6):
            plan = session.explain_analyze(query)
            for node in plan.walk_dfs():
                assert np.isfinite(node.est_cost)
                assert np.isfinite(node.est_rows)
                assert node.est_rows >= 0
                assert node.actual_time_ms is not None
                assert np.isfinite(node.actual_time_ms)
                assert node.actual_time_ms >= 0
                assert node.actual_rows >= 0
            assert plan.actual_time_ms > 0

    @given(schema=random_schemas(), seed=st.integers(0, 1000))
    @FUZZ_SETTINGS
    def test_join_cardinality_matches_brute_force(self, schema, seed):
        database = generate_database(schema, seed=seed)
        calculator = TrueCardinalityCalculator(database)
        generator = QueryGenerator(
            database,
            WorkloadSpec(max_joins=1, max_predicates=2, min_predicates=0),
            seed=seed,
        )
        for query in generator.generate_many(4):
            if query.num_joins != 1:
                continue
            join = query.joins[0]
            got = calculator.subset_rows(query, query.tables)
            left_mask = calculator.scan_mask(
                join.left_table, query.predicates_on(join.left_table)
            )
            right_mask = calculator.scan_mask(
                join.right_table, query.predicates_on(join.right_table)
            )
            left_keys = database.column_array(
                join.left_table, join.left_column
            )[left_mask]
            right_keys = database.column_array(
                join.right_table, join.right_column
            )[right_mask]
            values, counts = np.unique(right_keys, return_counts=True)
            lookup = dict(zip(values.tolist(), counts.tolist()))
            expected = sum(lookup.get(int(k), 0) for k in left_keys)
            assert got == expected

    @given(schema=random_schemas(), seed=st.integers(0, 1000))
    @FUZZ_SETTINGS
    def test_estimates_positive_and_bounded(self, schema, seed):
        from repro.catalog.stats import collect_table_stats
        from repro.engine.cardinality import CardinalityEstimator
        database = generate_database(schema, seed=seed)
        estimator = CardinalityEstimator(
            collect_table_stats(database, seed=seed)
        )
        generator = QueryGenerator(
            database, WorkloadSpec(max_joins=2, min_predicates=1), seed=seed
        )
        for query in generator.generate_many(5):
            for predicate in query.predicates:
                sel = estimator.predicate_selectivity(predicate)
                assert 0.0 < sel <= 1.0
            rows = estimator.estimate_subset_rows(query, query.tables)
            assert rows >= 1.0
            assert np.isfinite(rows)

    @given(schema=random_schemas(), seed=st.integers(0, 200))
    @FUZZ_SETTINGS
    def test_serialization_roundtrip(self, schema, seed, tmp_path_factory):
        from repro.sql.text import parse_query, render_sql
        database = generate_database(schema, seed=seed)
        generator = QueryGenerator(
            database,
            WorkloadSpec(max_joins=2, min_predicates=1, in_fraction=0.3,
                         group_by_fraction=0.3),
            seed=seed,
        )
        for query in generator.generate_many(6):
            sql = render_sql(query)
            parsed = parse_query(sql)
            assert render_sql(parsed) == sql


# ---------------------------------------------------------------------- #
# Resilience under chaos: random plan trees, random fault schedules
# ---------------------------------------------------------------------- #
from repro.bench.chaos import ChaosEstimator  # noqa: E402
from repro.engine.plan import NODE_TYPES, PlanNode  # noqa: E402
from repro.serve import CostFallback, ResilientEstimator  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402

_LEAF_TYPES = [t for t in NODE_TYPES if "Scan" in t] + ["Result"]
_INNER_TYPES = [t for t in NODE_TYPES if "Scan" not in t and t != "Result"]


@st.composite
def random_plan_trees(draw, max_depth=4):
    """A structurally-valid plan tree with random shapes and estimates."""

    def build(depth):
        cost = draw(st.floats(min_value=0.0, max_value=1e9,
                              allow_nan=False, allow_infinity=False))
        rows = draw(st.floats(min_value=0.0, max_value=1e8,
                              allow_nan=False, allow_infinity=False))
        if depth >= max_depth or draw(st.booleans()):
            return PlanNode(draw(st.sampled_from(_LEAF_TYPES)),
                            est_rows=rows, est_cost=cost)
        children = [build(depth + 1)
                    for _ in range(draw(st.integers(1, 2)))]
        return PlanNode(draw(st.sampled_from(_INNER_TYPES)),
                        est_rows=rows, est_cost=cost, children=children)

    return build(0)


class _FuzzClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class _RootCostStub:
    """Answers root est_cost + 1 per plan; the chaos wrapper supplies
    faults."""

    def predict_caught(self, caught):
        return np.array([p.est_costs[0] + 1.0 for p in caught])


def _root_cost_plus_one(plans):
    return np.array([p.est_cost + 1.0 for p in plans])


def _chaos_stack(fault_rate, seed, clock):
    return ResilientEstimator(
        ChaosEstimator.with_fault_rate(
            _RootCostStub(), fault_rate, seed=seed, sleep=clock.sleep
        ),
        fallback=CostFallback(),
        metrics=MetricsRegistry(),
    )


class TestResilienceFuzz:
    """Round-trip random plan trees through the fault-injected serving
    stack: outputs stay finite, each degraded flag marks a fallback
    answer, and the whole run is a deterministic function of the seed."""

    @given(
        plans=st.lists(random_plan_trees(), min_size=1, max_size=8),
        fault_rate=st.floats(min_value=0.0, max_value=1.0,
                             allow_nan=False, allow_infinity=False),
        seed=st.integers(0, 2**32 - 1),
    )
    @FUZZ_SETTINGS
    def test_outputs_finite_and_flags_consistent(self, plans, fault_rate,
                                                 seed):
        clock = _FuzzClock()
        resilient = _chaos_stack(fault_rate, seed, clock)
        fallback = CostFallback()
        for plan in plans:
            values, degraded = resilient.predict_plans_detailed([plan])
            assert np.all(np.isfinite(values))
            assert np.all(values > 0)
            assert degraded.shape == (1,)
            expected = (fallback.predict_plans if degraded[0]
                        else _root_cost_plus_one)
            np.testing.assert_array_equal(values, expected([plan]))
        metrics = resilient.metrics
        assert (metrics.counter("resilience.predictions").value
                == len(plans))
        assert (metrics.counter("resilience.degraded").value
                <= len(plans))
        assert 0.0 <= resilient.degraded_fraction <= 1.0

    @given(
        plans=st.lists(random_plan_trees(), min_size=1, max_size=6),
        fault_rate=st.floats(min_value=0.0, max_value=1.0,
                             allow_nan=False, allow_infinity=False),
        seed=st.integers(0, 2**32 - 1),
    )
    @FUZZ_SETTINGS
    def test_same_seed_is_bit_identical(self, plans, fault_rate, seed):
        runs = []
        for _ in range(2):
            clock = _FuzzClock()
            resilient = _chaos_stack(fault_rate, seed, clock)
            values = np.concatenate(
                [resilient.predict_plans([plan]) for plan in plans]
            )
            runs.append((values, resilient.metrics.counter(
                "resilience.degraded").value))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    @given(plans=st.lists(random_plan_trees(), min_size=1, max_size=8))
    @FUZZ_SETTINGS
    def test_zero_rate_is_passthrough(self, plans):
        clock = _FuzzClock()
        resilient = _chaos_stack(0.0, 0, clock)
        got = resilient.predict_plans(plans)
        expected = _root_cost_plus_one(plans)
        np.testing.assert_array_equal(got, expected)
        assert not resilient.last_degraded.any()
        assert clock.now == 0.0                   # never slept
