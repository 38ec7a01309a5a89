"""Sum-Product Network cardinality estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cardest import (
    SPNCardinalityEstimator,
    SPNTableEstimator,
    build_spn_estimators,
    learned_session,
)
from repro.catalog import collect_table_stats, load_database
from repro.engine import EngineSession
from repro.engine.true_card import TrueCardinalityCalculator
from repro.sql.query import Predicate


@pytest.fixture(scope="module")
def imdb():
    return load_database("imdb")


@pytest.fixture(scope="module")
def spns(imdb):
    return build_spn_estimators(imdb, seed=0)


@pytest.fixture(scope="module")
def truth(imdb):
    return TrueCardinalityCalculator(imdb)


def estimate_rows(spn, predicates) -> float:
    """The SPN's row estimate, floored at one row."""
    return max(1.0, spn.num_rows * spn.selectivity(predicates))


class TestSPNBasics:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SPNTableEstimator(["a", "b"], np.zeros((10, 3)))

    def test_empty_conjunction_is_one(self, spns):
        assert spns["title"].selectivity([]) == 1.0

    def test_unknown_column_raises(self, spns):
        with pytest.raises(KeyError):
            spns["title"].selectivity([Predicate("title", "nope", "=", 1)])

    def test_selectivity_in_unit_interval(self, spns, imdb):
        rng = np.random.default_rng(3)
        for _ in range(50):
            value = float(rng.integers(0, 100))
            op = str(rng.choice(["=", "<", ">", "<=", ">="]))
            sel = spns["title"].selectivity(
                [Predicate("title", "kind_id", op, value)]
            )
            assert 0.0 <= sel <= 1.0

    @given(cut=st.integers(min_value=1880, max_value=2020))
    @settings(max_examples=25, deadline=None)
    def test_monotone_ranges(self, spns, cut):
        narrow = spns["title"].selectivity(
            [Predicate("title", "production_year", "<", cut)]
        )
        wide = spns["title"].selectivity(
            [Predicate("title", "production_year", "<", cut + 20)]
        )
        assert wide >= narrow - 1e-9


class TestSPNAccuracy:
    @pytest.mark.parametrize("table,column,op,value", [
        ("title", "kind_id", "=", 1),
        ("title", "production_year", ">", 2000),
        ("movie_info", "info_type_id", "=", 1),
        ("movie_companies", "company_id", "=", 1),
        ("cast_info", "role_id", "<=", 2),
    ])
    def test_single_predicates_within_2x(self, spns, truth,
                                         table, column, op, value):
        predicate = Predicate(table, column, op, value)
        est = estimate_rows(spns[table], [predicate])
        actual = truth.scan_rows(table, [predicate])
        if actual < 20:
            assert est < 200  # tiny counts: just no blow-up
        else:
            assert est / actual < 2.0
            assert actual / est < 2.0

    def test_correlated_pair_beats_independence(self, imdb, spns, truth):
        """The SPN must capture the season/episode correlation that the
        independence assumption misses."""
        plain = EngineSession(imdb, seed=0).estimator
        predicates = [
            Predicate("title", "season_nr", "<=", 2),
            Predicate("title", "episode_nr", "<=", 20),
        ]
        actual = truth.scan_rows("title", predicates)
        independent = plain.scan_rows("title", predicates)
        learned = estimate_rows(spns["title"], predicates)

        def qerror(est):
            return max(est / max(actual, 1), max(actual, 1) / est)

        assert qerror(learned) <= qerror(independent)

    def test_in_predicates(self, spns, truth):
        predicate = Predicate("title", "kind_id", "in", values=(1.0, 2.0))
        est = estimate_rows(spns["title"], [predicate])
        actual = truth.scan_rows("title", [predicate])
        assert est / actual < 2.0 and actual / est < 2.0


class TestEstimatorIntegration:
    def test_fallback_to_stats(self, imdb, spns):
        stats = collect_table_stats(imdb, seed=0)
        estimator = SPNCardinalityEstimator(stats, {})
        sel = estimator.predicate_selectivity(
            Predicate("title", "kind_id", "=", 1)
        )
        assert 0 < sel <= 1  # falls back to the MCV machinery

    def test_learned_session_plans(self, imdb):
        session = learned_session(imdb, seed=0)
        from repro.sql.query import Join, Query
        query = Query(
            tables=["title", "movie_info"],
            joins=[Join("movie_info", "movie_id", "title", "id")],
            predicates=[
                Predicate("title", "season_nr", "<=", 2),
                Predicate("title", "episode_nr", "<=", 20),
            ],
        )
        plan = session.explain_analyze(query)
        assert plan.actual_time_ms > 0

    def test_learned_estimates_improve_scan_rows(self, imdb, truth):
        """Across multi-predicate scans, learned estimates should beat the
        independence assumption in aggregate."""
        from repro.sql import QueryGenerator, WorkloadSpec
        plain = EngineSession(imdb, seed=0)
        learned = learned_session(imdb, seed=0)
        generator = QueryGenerator(
            imdb, WorkloadSpec(max_joins=0, min_predicates=2,
                               max_predicates=3), seed=7
        )
        plain_q, learned_q = [], []
        for query in generator.generate_many(80):
            table = query.tables[0]
            predicates = query.predicates_on(table)
            if len(predicates) < 2:
                continue
            actual = truth.scan_rows(table, predicates)
            if actual == 0:
                continue
            for estimator, acc in [(plain.estimator, plain_q),
                                   (learned.estimator, learned_q)]:
                est = estimator.scan_rows(table, predicates)
                acc.append(max(est / actual, actual / est))
        assert np.median(learned_q) <= np.median(plain_q)
