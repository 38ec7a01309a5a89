"""Plan selection and scheduling applications."""

import numpy as np
import pytest

from repro.apps import PlanSelector, WorkloadScheduler
from repro.catalog import load_database
from repro.core import DACE, TrainingConfig
from repro.engine import EngineSession, M1
from repro.serve import CostFallback
from repro.sql import QueryGenerator, WorkloadSpec


@pytest.fixture(scope="module")
def imdb_session():
    return EngineSession(load_database("imdb"), M1, seed=0)


@pytest.fixture(scope="module")
def selection_queries(imdb_session):
    generator = QueryGenerator(
        imdb_session.database,
        WorkloadSpec(max_joins=3, min_predicates=1, max_predicates=3),
        seed=21,
    )
    return [q for q in generator.generate_many(40) if q.num_joins >= 1][:25]


@pytest.fixture(scope="module")
def fitted_dace(train_datasets):
    dace = DACE(
        training=TrainingConfig(epochs=15, batch_size=32, lr=2e-3), seed=0
    )
    dace.fit(train_datasets)
    return dace


class TestCandidatePlans:
    def test_candidates_distinct_and_sorted(self, imdb_session,
                                            selection_queries):
        query = selection_queries[0]
        plans = imdb_session.planner.candidate_plans(query, k=6)
        assert 2 <= len(plans) <= 6
        costs = [p.est_cost for p in plans]
        assert costs == sorted(costs)

    def test_first_candidate_matches_plan(self, imdb_session,
                                          selection_queries):
        for query in selection_queries[:5]:
            best = imdb_session.planner.plan(query)
            candidates = imdb_session.planner.candidate_plans(query, k=4)
            assert candidates[0].est_cost == pytest.approx(best.est_cost)

    def test_candidates_cover_same_tables(self, imdb_session,
                                          selection_queries):
        query = selection_queries[1]
        for plan in imdb_session.planner.candidate_plans(query, k=6):
            assert set(plan.tables_below()) == set(query.tables)

    def test_single_table_candidates(self, imdb_session):
        from repro.sql.query import Predicate, Query
        query = Query(tables=["title"],
                      predicates=[Predicate("title", "kind_id", "=", 2)])
        plans = imdb_session.planner.candidate_plans(query, k=5)
        assert len(plans) >= 2
        types = {p.children[0].node_type for p in plans}
        assert len(types) >= 2  # different access paths


class TestPlanSelector:
    def test_requires_two_candidates(self, imdb_session):
        with pytest.raises(ValueError):
            PlanSelector(imdb_session, CostFallback(), candidates=1)

    def test_bad_scorer_rejected(self, imdb_session):
        with pytest.raises(TypeError):
            PlanSelector(imdb_session, scorer=object())

    def test_cost_scorer_keeps_native_choice(self, imdb_session,
                                             selection_queries):
        # The optimizer's own cost as the score: the native choice.
        selector = PlanSelector(imdb_session, CostFallback(), candidates=5)
        result = selector.evaluate_workload(selection_queries[:10])
        assert result.changed_plans == 0
        assert result.speedup == pytest.approx(1.0)

    def test_oracle_scorer_achieves_oracle(self, imdb_session,
                                           selection_queries):
        """Scoring by true simulated latency reaches the oracle bound."""
        executor = imdb_session.executor
        query_by_id = {}

        def oracle_score(plan):
            # Execute a clone so scoring does not mutate the plan.
            query = query_by_id[id(plan)]
            return executor.execute(plan.clone(), query).actual_time_ms

        total_selected, total_oracle = 0.0, 0.0
        for query in selection_queries[:8]:
            plans = imdb_session.planner.candidate_plans(query, k=4)
            for plan in plans:
                query_by_id[id(plan)] = query
            latencies = [
                executor.execute(p, query).actual_time_ms for p in plans
            ]
            scores = [oracle_score(p) for p in plans]
            chosen = int(np.argmin(scores))
            total_selected += latencies[chosen]
            total_oracle += min(latencies)
        # Noise differs between scoring and measuring runs; stay close.
        assert total_selected <= total_oracle * 1.3

    def test_dace_selection_no_worse_than_native(self, imdb_session,
                                                 selection_queries,
                                                 fitted_dace):
        selector = PlanSelector(imdb_session, fitted_dace, candidates=4)
        result = selector.evaluate_workload(selection_queries)
        assert result.queries == len(selection_queries)
        assert result.oracle_latency_ms <= result.selected_latency_ms + 1e-9
        assert result.oracle_latency_ms <= result.native_latency_ms + 1e-9
        # A sane learned scorer should not regress the workload > 40%.
        assert result.selected_latency_ms <= result.native_latency_ms * 1.4

    def test_select_returns_plan(self, imdb_session, selection_queries,
                                 fitted_dace):
        selector = PlanSelector(imdb_session, fitted_dace, candidates=4)
        plan = selector.select(selection_queries[0])
        assert set(plan.tables_below()) == set(selection_queries[0].tables)


class TestScheduler:
    def test_worker_validation(self):
        with pytest.raises(ValueError):
            WorkloadScheduler(workers=0)

    def test_oracle_sjf_beats_fifo_on_flow_time(self, imdb_workload):
        scheduler = WorkloadScheduler(workers=3)
        fifo = scheduler.fifo(imdb_workload)
        oracle = scheduler.sjf_oracle(imdb_workload)
        assert oracle.mean_flow_time_ms <= fifo.mean_flow_time_ms

    def test_prediction_shape_checked(self, imdb_workload):
        scheduler = WorkloadScheduler()
        with pytest.raises(ValueError):
            scheduler.sjf_predicted(imdb_workload, [1.0, 2.0])

    def test_perfect_predictions_match_oracle(self, imdb_workload):
        scheduler = WorkloadScheduler(workers=2)
        oracle = scheduler.sjf_oracle(imdb_workload)
        perfect = scheduler.sjf_predicted(
            imdb_workload, imdb_workload.latencies()
        )
        assert perfect.mean_flow_time_ms == pytest.approx(
            oracle.mean_flow_time_ms
        )

    def test_dace_sjf_between_fifo_and_oracle(self, imdb_workload,
                                              fitted_dace):
        scheduler = WorkloadScheduler(workers=3)
        predictions = fitted_dace.predict(imdb_workload)
        fifo, model, oracle = scheduler.compare(imdb_workload, predictions)
        assert oracle.mean_flow_time_ms <= model.mean_flow_time_ms * 1.001
        assert model.mean_flow_time_ms <= fifo.mean_flow_time_ms * 1.05

    def test_makespan_at_least_longest_job(self, imdb_workload):
        scheduler = WorkloadScheduler(workers=4)
        result = scheduler.fifo(imdb_workload)
        assert result.makespan_ms >= imdb_workload.latencies().max()
