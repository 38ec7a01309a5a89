"""MSCN (Kipf et al., CIDR 2019) — the query-driven set-convolution model.

MSCN never sees the execution plan: it featurizes the *query statement* as
three sets — tables, joins, predicates — runs each element through a shared
per-set MLP, average-pools, concatenates the pooled vectors, and predicts
with a final MLP (here: log latency, the paper's cost-estimation usage).

The featurizer's vocabulary (table names, FK join edges, filterable
columns) comes from the target database's schema, which is what makes MSCN
a within-database model.  Knowledge integration (paper eq. 9) appends a
pre-trained DACE's 64-dim plan embedding ``w_E`` to the concatenation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import LearnedBaseline, log_labels
from repro.catalog.datagen import NULL_SENTINEL, Database
from repro.nn import Module, Tensor
from repro.nn.layers import Linear, ReLU, Sequential
from repro.nn.losses import log_qerror_loss
from repro.sql.query import COMPARISON_OPS, Query
from repro.workloads.dataset import PlanDataset

HIDDEN = 128


class MSCNFeaturizer:
    """Schema-derived set featurization of query statements."""

    def __init__(self, database: Database) -> None:
        schema = database.schema
        self.table_index: Dict[str, int] = {
            name: i for i, name in enumerate(sorted(schema.tables))
        }
        joins = sorted(
            f"{fk.child_table}.{fk.child_column}="
            f"{fk.parent_table}.{fk.parent_column}"
            for fk in schema.foreign_keys
        )
        self.join_index: Dict[str, int] = {j: i for i, j in enumerate(joins)}
        columns: List[Tuple[str, str]] = []
        self.column_range: Dict[Tuple[str, str], Tuple[float, float]] = {}
        for table_name in sorted(schema.tables):
            table = schema.table(table_name)
            for column in table.columns:
                if column.kind not in ("int", "float"):
                    continue
                key = (table_name, column.name)
                columns.append(key)
                values = database.column_array(table_name, column.name)
                if values.dtype == np.int64:
                    live = values[values != NULL_SENTINEL]
                else:
                    live = values[np.isfinite(values)]
                if live.size:
                    self.column_range[key] = (float(live.min()),
                                              float(live.max()))
                else:
                    self.column_range[key] = (0.0, 1.0)
        self.column_index = {key: i for i, key in enumerate(columns)}
        self.op_index = {op: i for i, op in enumerate(COMPARISON_OPS)}

    # Feature dimensions ------------------------------------------------ #
    @property
    def table_dim(self) -> int:
        return len(self.table_index)

    @property
    def join_dim(self) -> int:
        return max(len(self.join_index), 1)

    @property
    def predicate_dim(self) -> int:
        return len(self.column_index) + len(self.op_index) + 1

    # ------------------------------------------------------------------ #
    def featurize(self, query: Query):
        """Three element-feature matrices for one query."""
        tables = np.zeros((len(query.tables), self.table_dim))
        for row, table in enumerate(query.tables):
            tables[row, self.table_index[table]] = 1.0

        join_rows = max(len(query.joins), 1)
        joins = np.zeros((join_rows, self.join_dim))
        for row, join in enumerate(query.joins):
            key = (f"{join.left_table}.{join.left_column}="
                   f"{join.right_table}.{join.right_column}")
            index = self.join_index.get(key)
            if index is None:  # try the reversed direction
                key = (f"{join.right_table}.{join.right_column}="
                       f"{join.left_table}.{join.left_column}")
                index = self.join_index.get(key)
            if index is not None:
                joins[row, index] = 1.0

        pred_rows = max(len(query.predicates), 1)
        predicates = np.zeros((pred_rows, self.predicate_dim))
        for row, predicate in enumerate(query.predicates):
            key = (predicate.table, predicate.column)
            column_pos = self.column_index.get(key)
            # IN lists are summarized by their mean literal (and their own
            # op slot), like MSCN's expansion of IN into disjunctions.
            literal = (
                float(np.mean(predicate.values))
                if predicate.op == "in" else predicate.value
            )
            if column_pos is not None:
                predicates[row, column_pos] = 1.0
                low, high = self.column_range[key]
                span = high - low if high > low else 1.0
                value = (literal - low) / span
            else:
                value = 0.5
            predicates[row, len(self.column_index)
                       + self.op_index[predicate.op]] = 1.0
            predicates[row, -1] = float(np.clip(value, -1.0, 2.0))
        return tables, joins, predicates


def _pad_sets(elements: Sequence[np.ndarray]):
    """Stack variable-length element sets into (B, S, d) plus a mask."""
    batch = len(elements)
    max_rows = max(e.shape[0] for e in elements)
    dim = elements[0].shape[1]
    out = np.zeros((batch, max_rows, dim))
    mask = np.zeros((batch, max_rows, 1))
    for index, matrix in enumerate(elements):
        out[index, : matrix.shape[0]] = matrix
        mask[index, : matrix.shape[0], 0] = 1.0
    return out, mask


class _MSCNNet(Module):
    def __init__(self, featurizer: MSCNFeaturizer, hidden: int,
                 context_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.table_mlp = Sequential(
            Linear(featurizer.table_dim, hidden, rng=rng), ReLU(),
            Linear(hidden, hidden, rng=rng), ReLU(),
        )
        self.join_mlp = Sequential(
            Linear(featurizer.join_dim, hidden, rng=rng), ReLU(),
            Linear(hidden, hidden, rng=rng), ReLU(),
        )
        self.pred_mlp = Sequential(
            Linear(featurizer.predicate_dim, hidden, rng=rng), ReLU(),
            Linear(hidden, hidden, rng=rng), ReLU(),
        )
        self.out_mlp = Sequential(
            Linear(3 * hidden + context_dim, hidden, rng=rng), ReLU(),
            Linear(hidden, 1, rng=rng),
        )

    @staticmethod
    def _pool(mlp: Module, padded: np.ndarray, mask: np.ndarray) -> Tensor:
        hidden = mlp(Tensor(padded)) * Tensor(mask)
        counts = np.maximum(mask.sum(axis=1), 1.0)
        return hidden.sum(axis=1) * Tensor(1.0 / counts)

    def forward(self, sets, context: Optional[np.ndarray] = None) -> Tensor:
        (tables, tables_mask), (joins, joins_mask), (preds, preds_mask) = sets
        pooled = [
            self._pool(self.table_mlp, tables, tables_mask),
            self._pool(self.join_mlp, joins, joins_mask),
            self._pool(self.pred_mlp, preds, preds_mask),
        ]
        if context is not None:
            pooled.append(Tensor(context))
        out = self.out_mlp(Tensor.concat(pooled, axis=1))
        return out.reshape(out.shape[0])


class MSCNModel(LearnedBaseline):
    """MSCN with the fit/predict interface (and optional DACE context)."""

    name = "MSCN"
    batch_size = 128

    def __init__(
        self,
        database: Database,
        context_dim: int = 0,
        epochs: int = 40,
        seed: int = 0,
    ) -> None:
        super().__init__(epochs, seed)
        self.featurizer = MSCNFeaturizer(database)
        self.context_dim = context_dim
        self.net = _MSCNNet(
            self.featurizer, HIDDEN, context_dim, np.random.default_rng(seed)
        )

    # ------------------------------------------------------------------ #
    def _inputs(self, dataset: PlanDataset, fit: bool) -> list:
        # Statements, not plans; training labels come in one pass over
        # the whole set.
        labels = log_labels(dataset) if fit else [None] * len(dataset)
        return [(sample.query, label)
                for sample, label in zip(dataset, labels)]

    def _epoch(self, inputs: list, rng: np.random.Generator):
        order = rng.permutation(len(inputs))
        return [order[start:start + self.batch_size]
                for start in range(0, len(order), self.batch_size)]

    def _batch(self, inputs: list, rows, with_labels: bool):
        tables, joins, preds = [], [], []
        for index in rows:
            t, j, p = self.featurizer.featurize(inputs[index][0])
            tables.append(t)
            joins.append(j)
            preds.append(p)
        sets = (_pad_sets(tables), _pad_sets(joins), _pad_sets(preds))
        labels = (np.array([inputs[index][1] for index in rows])
                  if with_labels else None)
        return sets, labels

    def _loss(self, batch, context) -> Tensor:
        sets, labels = batch
        return log_qerror_loss(self.net(sets, context), labels)

    def _readout(self, batch, context) -> Tensor:
        return self.net(batch[0], context)
