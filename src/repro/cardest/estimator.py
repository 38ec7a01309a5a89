"""Drop-in learned cardinality estimation for the engine.

:class:`SPNCardinalityEstimator` subclasses the optimizer's
:class:`~repro.engine.cardinality.CardinalityEstimator` and answers
single-table conjunctive selectivities from per-table SPNs — *jointly*, so
correlated predicates no longer multiply independently.  Join estimation
keeps the statistics-based MCV machinery (DeepDB's fan-out SPNs are out of
scope).

``learned_session`` builds an :class:`~repro.engine.session.EngineSession`
whose planner (and therefore every plan's ``est_rows``/``est_cost``) uses
the learned estimates — the substrate for the paper's future-work variant
DACE-D (better general knowledge without true cardinalities).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.catalog.datagen import NULL_SENTINEL, Database
from repro.catalog.stats import TableStats
from repro.cardest.spn import SPNTableEstimator
from repro.engine.cardinality import MIN_SELECTIVITY, CardinalityEstimator
from repro.engine.machines import M1, MachineProfile
from repro.engine.session import EngineSession
from repro.sql.query import Predicate


def build_spn_estimators(
    database: Database,
    sample_rows: int = 5000,
    seed: int = 0,
) -> Dict[str, SPNTableEstimator]:
    """Learn one SPN per table over its filterable (int/float) columns."""
    rng = np.random.default_rng(seed + 211)
    estimators: Dict[str, SPNTableEstimator] = {}
    for table_name, table in database.schema.tables.items():
        columns = [
            c.name for c in table.columns if c.kind in ("int", "float")
        ]
        if not columns:
            continue
        matrix = np.empty((table.num_rows, len(columns)))
        for index, column in enumerate(columns):
            values = database.column_array(table_name, column).astype(
                np.float64
            )
            if database.column_array(table_name, column).dtype == np.int64:
                values = np.where(
                    database.column_array(table_name, column)
                    == NULL_SENTINEL,
                    np.nan,
                    values,
                )
            matrix[:, index] = values
        if table.num_rows > sample_rows:
            take = rng.choice(table.num_rows, size=sample_rows, replace=False)
            sample = matrix[take]
        else:
            sample = matrix
        spn = SPNTableEstimator(columns, sample, seed=seed)
        spn.num_rows = table.num_rows  # scale up from the training sample
        estimators[table_name] = spn
    return estimators


class SPNCardinalityEstimator(CardinalityEstimator):
    """CardinalityEstimator with SPN-powered single-table selectivities."""

    def __init__(
        self,
        stats: Dict[str, TableStats],
        spns: Dict[str, SPNTableEstimator],
    ) -> None:
        super().__init__(stats)
        self.spns = spns

    def scan_selectivity(self, predicates: Sequence[Predicate]) -> float:
        """Joint selectivity from the table's SPN (captures correlations);
        falls back to the independence assumption when no SPN covers the
        table or a column."""
        if not predicates:
            return 1.0
        table = predicates[0].table
        spn = self.spns.get(table)
        if spn is not None and all(
            p.column in spn.column_index for p in predicates
        ):
            return max(spn.selectivity(predicates), MIN_SELECTIVITY)
        return super().scan_selectivity(predicates)

    def predicate_selectivity(self, predicate: Predicate) -> float:
        spn = self.spns.get(predicate.table)
        if spn is not None and predicate.column in spn.column_index:
            return max(spn.selectivity([predicate]), MIN_SELECTIVITY)
        return super().predicate_selectivity(predicate)


def learned_session(
    database: Database,
    machine: MachineProfile = M1,
    seed: int = 0,
    sample_rows: int = 5000,
) -> EngineSession:
    """An EngineSession whose optimizer uses SPN cardinalities.

    Plans produced by this session carry learned estimates in their
    ``est_rows``/``est_cost`` — feeding them to DACE yields the DACE-D
    variant (better general knowledge, still no true cardinalities).
    """
    session = EngineSession(database, machine, seed=seed)
    spns = build_spn_estimators(database, sample_rows=sample_rows, seed=seed)
    learned = SPNCardinalityEstimator(session.stats, spns)
    session.estimator = learned
    session.planner.estimator = learned
    return session
