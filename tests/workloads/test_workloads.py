"""Dataset containers and workload builders."""

import numpy as np
import pytest

from repro.catalog import load_database
from repro.sql import QueryGenerator, WorkloadSpec
from repro.workloads import (
    PlanDataset,
    build_workload3,
    collect_workload,
    drift_datasets,
    workload1,
    workload2,
)
from repro.workloads.zeroshot import generate_queries


class TestPlanDataset:
    def test_split_partitions(self, imdb_workload):
        train, test = imdb_workload.split(0.7, seed=0)
        assert len(train) + len(test) == len(imdb_workload)
        assert len(train) == round(len(imdb_workload) * 0.7)

    def test_split_bad_fraction(self, imdb_workload):
        with pytest.raises(ValueError):
            imdb_workload.split(1.5)

    def test_shuffle_deterministic(self, imdb_workload):
        a = imdb_workload.shuffled(3)
        b = imdb_workload.shuffled(3)
        assert [s.latency_ms for s in a] == [s.latency_ms for s in b]

    def test_subset(self, imdb_workload):
        subset = imdb_workload.subset(10, seed=0)
        assert len(subset) == 10
        big = imdb_workload.subset(10_000)
        assert len(big) == len(imdb_workload)

    def test_merge(self, imdb_workload):
        merged = PlanDataset.merge([imdb_workload[:5], imdb_workload[5:10]])
        assert len(merged) == 10

    def test_latencies_positive(self, imdb_workload):
        assert (imdb_workload.latencies() > 0).all()


class TestCollect:
    def test_timeout_drops_queries(self):
        database = load_database("imdb")
        queries = QueryGenerator(
            database, WorkloadSpec(max_joins=4), seed=0
        ).generate_many(40)
        full = collect_workload(database, queries, timeout_ms=1e12)
        capped = collect_workload(database, queries, timeout_ms=5.0)
        assert len(capped) < len(full)
        assert (capped.latencies() <= 5.0).all()

    def test_provenance(self):
        database = load_database("credit")
        queries = QueryGenerator(database, seed=0).generate_many(5)
        dataset = collect_workload(database, queries)
        assert dataset.database_names() == ["credit"]


class TestZeroShotWorkloads:
    def test_workload1_and_2_same_statements(self):
        names = ["airline", "credit"]
        w1 = workload1(queries_per_db=20, database_names=names)
        w2 = workload2(queries_per_db=20, database_names=names)
        assert set(w1) == set(w2) == set(names)
        # Same query statements, different machine labels.
        from repro.sql import render_sql
        sql1 = [render_sql(s.query) for s in w1["airline"]]
        sql2 = [render_sql(s.query) for s in w2["airline"]]
        assert sql1 == sql2
        assert not np.allclose(
            w1["airline"].latencies(), w2["airline"].latencies()
        )

    def test_generate_queries_deterministic(self):
        a = generate_queries("credit", 10)
        b = generate_queries("credit", 10)
        from repro.sql import render_sql
        assert [render_sql(q) for q in a] == [render_sql(q) for q in b]


class TestWorkload3:
    @pytest.fixture(scope="class")
    def workload(self):
        return build_workload3(
            train_queries=120,
            synthetic_queries=40,
            scale_queries=40,
            job_light_queries=15,
        )

    def test_split_sizes(self, workload):
        assert len(workload.train) <= 120
        assert len(workload.job_light) <= 15

    def test_train_join_bound(self, workload):
        assert all(s.query.num_joins <= 2 for s in workload.train)

    def test_scale_has_more_joins(self, workload):
        assert all(s.query.num_joins >= 2 for s in workload.scale)
        max_scale = max(s.query.num_joins for s in workload.scale)
        assert max_scale > 2  # drifted beyond the training template

    def test_job_light_star_shape(self, workload):
        for sample in workload.job_light:
            assert "title" in sample.query.tables
            for join in sample.query.joins:
                assert join.right_table == "title" or join.left_table == "title"

    def test_all_on_imdb(self, workload):
        for split in [workload.train, workload.synthetic, workload.scale,
                      workload.job_light]:
            assert split.database_names() == ["imdb"]

    def test_test_splits_mapping(self, workload):
        splits = workload.test_splits()
        assert set(splits) == {"synthetic", "scale", "job_light"}


class TestDrift:
    def test_latency_grows_with_scale(self):
        datasets = drift_datasets(num_queries=40, scale_factors=(1.0, 4.0))
        median_small = np.median(datasets[1.0].latencies())
        median_large = np.median(datasets[4.0].latencies())
        assert median_large > median_small

    def test_same_statement_count(self):
        datasets = drift_datasets(num_queries=25, scale_factors=(1.0, 2.0))
        assert len(datasets[1.0]) == len(datasets[2.0])

    def test_stale_stats_degrade_estimates(self):
        """With stale statistics, the optimizer's cost stays near the base
        scale while latency grows — a wider EDQO than with fresh stats."""
        fresh = drift_datasets(num_queries=40, scale_factors=(4.0,))
        stale = drift_datasets(num_queries=40, scale_factors=(4.0,),
                               stale_stats=True)
        fresh_cost = np.median(fresh[4.0].est_costs())
        stale_cost = np.median(stale[4.0].est_costs())
        # Stale stats still report base-scale row counts -> lower costs.
        assert stale_cost < fresh_cost
