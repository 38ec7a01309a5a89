"""Plan diagnostics and extended metrics."""

import numpy as np
import pytest

from repro.engine import (
    EngineSession,
    M1,
    diagnose_plan,
    error_by_node_type,
)
from repro.metrics import (
    rank_quality,
    uncertainty_calibration,
    underestimation_fraction,
)
from repro.sql.query import Join, Predicate, Query


@pytest.fixture(scope="module")
def analyzed(tiny_db):
    session = EngineSession(tiny_db, M1, seed=0)
    query = Query(
        tables=["users", "orders"],
        joins=[Join("orders", "user_id", "users", "id")],
        predicates=[Predicate("users", "age", ">", 30)],
    )
    return session.explain_analyze(query), session


class TestDiagnostics:
    def test_one_diagnostic_per_node(self, analyzed):
        plan, _ = analyzed
        diagnostics = diagnose_plan(plan)
        assert len(diagnostics) == plan.num_nodes()

    def test_row_qerror_at_least_one(self, analyzed):
        plan, _ = analyzed
        for diagnostic in diagnose_plan(plan):
            assert diagnostic.row_qerror >= 1.0

    def test_predictions_length_checked(self, analyzed):
        plan, _ = analyzed
        with pytest.raises(ValueError):
            diagnose_plan(plan, predicted_ms=[1.0])

    def test_predictions_attach_time_qerror(self, analyzed):
        plan, _ = analyzed
        predictions = [n.actual_time_ms * 2 for n in plan.walk_dfs()]
        diagnostics = diagnose_plan(plan, predicted_ms=predictions)
        for diagnostic in diagnostics:
            assert diagnostic.time_qerror == pytest.approx(2.0, rel=1e-6)

    def test_unexecuted_plan_rejected(self, analyzed, tiny_db):
        session = EngineSession(tiny_db, M1, seed=0)
        plan = session.explain(Query(tables=["users"]))
        with pytest.raises(ValueError):
            diagnose_plan(plan)

    def test_error_by_node_type(self, analyzed, tiny_db):
        _, session = analyzed
        from repro.sql.generator import QueryGenerator, WorkloadSpec
        generator = QueryGenerator(
            tiny_db, WorkloadSpec(max_joins=2, min_predicates=1), seed=9
        )
        plans = [
            session.explain_analyze(q) for q in generator.generate_many(15)
        ]
        summary = error_by_node_type(plans)
        assert "Seq Scan" in summary or "Bitmap Heap Scan" in summary
        for stats in summary.values():
            assert stats["count"] >= 1
            assert stats["max_qerror"] >= stats["median_qerror"] >= 1.0


class TestExtendedMetrics:
    def test_rank_quality_perfect(self):
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        quality = rank_quality(actual * 10, actual)
        assert quality.spearman == pytest.approx(1.0)
        assert quality.pairwise_accuracy == pytest.approx(1.0)

    def test_rank_quality_inverted(self):
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        quality = rank_quality(-actual, actual)
        assert quality.spearman == pytest.approx(-1.0)
        assert quality.pairwise_accuracy == pytest.approx(0.0)

    def test_rank_quality_validates(self):
        with pytest.raises(ValueError):
            rank_quality(np.array([1.0]), np.array([1.0]))

    def test_underestimation_balanced(self):
        actual = np.array([1.0, 2.0, 3.0, 4.0])
        est = np.array([0.5, 3.0, 2.0, 5.0])
        assert underestimation_fraction(est, actual) == pytest.approx(0.5)

    def test_underestimation_validates(self):
        with pytest.raises(ValueError):
            underestimation_fraction(np.array([]), np.array([]))

    def test_calibration_positive_when_informative(self):
        rng = np.random.default_rng(0)
        actual = rng.lognormal(0, 1, 300)
        sigma = rng.uniform(0.1, 1.0, 300)
        noise = rng.normal(0, 1, 300) * sigma  # error scales with sigma
        est = actual * np.exp(noise)
        assert uncertainty_calibration(sigma, est, actual) > 0.2

    def test_calibration_zero_for_constant_sigma(self):
        actual = np.array([1.0, 2.0, 3.0])
        est = np.array([2.0, 1.0, 4.0])
        assert uncertainty_calibration(
            np.ones(3), est, actual
        ) == pytest.approx(0.0)
