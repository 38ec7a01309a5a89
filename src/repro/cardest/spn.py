"""Sum-Product Networks over single tables, DeepDB-style.

Structure learning follows the classic LearnSPN recipe, simplified:

- **Sum nodes** split *rows* into clusters (2-means on standardized
  columns) so multi-modal joint distributions decompose into simpler
  per-cluster ones.
- **Product nodes** split *columns* into groups that are approximately
  independent *within the current row cluster* (connected components of
  the |correlation| > threshold graph).
- **Leaves** are per-column equi-width histograms (plus exact point masses
  for low-cardinality columns) over the cluster's rows.

Inference answers conjunctive range/equality/IN queries: a leaf returns
the fraction of its mass inside the predicate's region, product nodes
multiply their children (independence holds by construction), sum nodes
mix children by cluster weight.  Because correlated columns end up in the
same leaf group only if splitting fails, correlation is captured through
the *row clustering*: clusters condition the joint, which is where the
independence assumption's error goes to die.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sql.query import Predicate

MIN_CLUSTER_ROWS = 200      # stop splitting rows below this
CORRELATION_THRESHOLD = 0.3
MAX_DEPTH = 6
LEAF_BINS = 32
DISTINCT_AS_EXACT = 64      # columns with <= this many values: exact pmf


# --------------------------------------------------------------------- #
# Predicate regions
# --------------------------------------------------------------------- #
def _predicate_interval(predicate: Predicate) -> Tuple[float, float]:
    """[low, high] interval for a comparison predicate."""
    value = predicate.value
    if predicate.op == "=":
        return value, value
    if predicate.op == "<":
        return -np.inf, float(np.nextafter(value, -np.inf))
    if predicate.op == "<=":
        return -np.inf, value
    if predicate.op == ">":
        return float(np.nextafter(value, np.inf)), np.inf
    if predicate.op == ">=":
        return value, np.inf
    raise ValueError(f"unsupported op {predicate.op!r} for interval")


# --------------------------------------------------------------------- #
# Leaves
# --------------------------------------------------------------------- #
class _Leaf:
    """Univariate distribution of one column over a row cluster.

    Hybrid representation (the same trick as ANALYZE statistics): the most
    common values are stored as exact point masses — so equality queries on
    skewed columns never return measure zero — and the remaining mass lives
    in an equi-width histogram.  Columns with few distinct values are fully
    exact.
    """

    def __init__(self, values: np.ndarray) -> None:
        finite = values[np.isfinite(values)]
        self.total = values.size
        self.null_frac = 1.0 - (finite.size / values.size) if values.size else 1.0
        self.exact: Dict[float, float] = {}
        self.bin_edges: Optional[np.ndarray] = None
        self.bin_mass: Optional[np.ndarray] = None
        self.remainder_distinct = 0
        if finite.size == 0:
            return
        unique, counts = np.unique(finite, return_counts=True)
        if unique.size <= DISTINCT_AS_EXACT:
            self.exact = {
                float(v): c / values.size for v, c in zip(unique, counts)
            }
            return
        # Top values become exact point masses; the rest a histogram.
        order = np.argsort(counts)[::-1][:DISTINCT_AS_EXACT // 2]
        top = set(order.tolist())
        self.exact = {
            float(unique[i]): counts[i] / values.size for i in top
        }
        keep = np.isin(finite, unique[order], invert=True)
        remainder = finite[keep]
        self.remainder_distinct = unique.size - len(top)
        if remainder.size:
            edges = np.histogram_bin_edges(remainder, bins=LEAF_BINS)
            histogram, _ = np.histogram(remainder, bins=edges)
            self.bin_edges = edges
            self.bin_mass = histogram / values.size

    def _histogram_interval(self, low: float, high: float) -> float:
        if self.bin_edges is None:
            return 0.0
        edges, mass = self.bin_edges, self.bin_mass
        clamped_low = max(low, float(edges[0]))
        clamped_high = min(high, float(edges[-1]))
        if clamped_high < clamped_low:
            return 0.0
        total = 0.0
        for index in range(mass.size):
            left, right = float(edges[index]), float(edges[index + 1])
            if right < clamped_low or left > clamped_high:
                continue
            width = right - left
            if width <= 0:
                overlap = 1.0
            else:
                overlap = (
                    min(right, clamped_high) - max(left, clamped_low)
                ) / width
                overlap = min(max(overlap, 0.0), 1.0)
            total += mass[index] * overlap
        return float(total)

    def _histogram_point(self, value: float) -> float:
        """Point mass of a non-MCV value: its bin's mass spread uniformly
        over the remainder's distinct values in that bin (approximated by
        the global remainder distinct count scaled by bin share)."""
        if self.bin_edges is None or self.remainder_distinct <= 0:
            return 0.0
        edges = self.bin_edges
        index = int(np.searchsorted(edges, value, side="right")) - 1
        if index < 0 or index >= self.bin_mass.size:
            return 0.0
        # Distinct values expected in this bin ~ remainder_distinct / bins.
        per_bin_distinct = max(self.remainder_distinct / self.bin_mass.size,
                               1.0)
        return float(self.bin_mass[index] / per_bin_distinct)

    def probability_interval(self, low: float, high: float) -> float:
        """P(low <= X <= high), NULLs never match."""
        if high < low:
            return 0.0
        exact_part = sum(
            mass for value, mass in self.exact.items()
            if low <= value <= high
        )
        if low == high:
            if low in self.exact:
                return float(exact_part)
            return self._histogram_point(low)
        return float(exact_part + self._histogram_interval(low, high))

    def probability_in(self, values: Sequence[float]) -> float:
        return sum(self.probability_interval(v, v) for v in values)

    def probability(self, predicates: Sequence[Predicate]) -> float:
        """Conjunction over this single column (intersect intervals)."""
        low, high = -np.inf, np.inf
        in_sets: List[Sequence[float]] = []
        exclusions: List[float] = []
        for predicate in predicates:
            if predicate.op == "in":
                in_sets.append(predicate.values)
            elif predicate.op == "!=":
                exclusions.append(predicate.value)
            else:
                p_low, p_high = _predicate_interval(predicate)
                low, high = max(low, p_low), min(high, p_high)
        if in_sets:
            allowed = set(in_sets[0])
            for other in in_sets[1:]:
                allowed &= set(other)
            allowed = [v for v in allowed if low <= v <= high
                       and v not in exclusions]
            return self.probability_in(sorted(allowed))
        base = self.probability_interval(low, high)
        for value in exclusions:
            if low <= value <= high:
                base -= self.probability_interval(value, value)
        return max(base, 0.0)


# --------------------------------------------------------------------- #
# Internal nodes
# --------------------------------------------------------------------- #
@dataclass
class _Product:
    groups: List[Tuple[Tuple[int, ...], "object"]]  # (column ids, child)


@dataclass
class _Sum:
    children: List[Tuple[float, "object"]]  # (weight, child)


@dataclass
class _LeafGroup:
    """Fallback multivariate leaf: independent per-column leaves."""

    leaves: Dict[int, _Leaf]


def _two_means(rows: np.ndarray, rng: np.random.Generator,
               iterations: int = 8) -> np.ndarray:
    """2-means cluster labels over standardized rows."""
    std = rows.std(axis=0)
    std[std == 0] = 1.0
    normalized = (rows - rows.mean(axis=0)) / std
    start = rng.choice(len(normalized), size=2, replace=False)
    centers = normalized[start].copy()
    labels = np.zeros(len(normalized), dtype=np.int64)
    for _ in range(iterations):
        distances = np.stack([
            ((normalized - center) ** 2).sum(axis=1) for center in centers
        ])
        labels = distances.argmin(axis=0)
        for k in range(2):
            members = normalized[labels == k]
            if len(members):
                centers[k] = members.mean(axis=0)
    return labels


def _independent_groups(rows: np.ndarray,
                        threshold: float) -> List[List[int]]:
    """Connected components of the |corr| > threshold column graph."""
    n_cols = rows.shape[1]
    if n_cols == 1:
        return [[0]]
    with np.errstate(invalid="ignore"):
        corr = np.corrcoef(rows, rowvar=False)
    corr = np.nan_to_num(corr)
    adjacency = np.abs(corr) > threshold
    seen = set()
    groups: List[List[int]] = []
    for start in range(n_cols):
        if start in seen:
            continue
        stack, component = [start], []
        while stack:
            col = stack.pop()
            if col in seen:
                continue
            seen.add(col)
            component.append(col)
            stack.extend(
                j for j in range(n_cols)
                if adjacency[col, j] and j not in seen
            )
        groups.append(sorted(component))
    return groups


class SPNTableEstimator:
    """An SPN over one table's filterable columns."""

    def __init__(
        self,
        column_names: Sequence[str],
        data: np.ndarray,
        seed: int = 0,
        min_cluster_rows: int = MIN_CLUSTER_ROWS,
        correlation_threshold: float = CORRELATION_THRESHOLD,
    ) -> None:
        """``data``: (rows, columns) float array; NULLs encoded as nan."""
        if data.ndim != 2 or data.shape[1] != len(column_names):
            raise ValueError("data must be (rows, len(column_names))")
        self.column_index = {name: i for i, name in enumerate(column_names)}
        self.num_rows = data.shape[0]
        self._min_cluster_rows = min_cluster_rows
        self._correlation_threshold = correlation_threshold
        rng = np.random.default_rng(seed)
        self.root = self._learn(data, tuple(range(data.shape[1])), rng, 0)

    # ------------------------------------------------------------------ #
    # Structure learning
    # ------------------------------------------------------------------ #
    def _learn(self, rows: np.ndarray, columns: Tuple[int, ...],
               rng: np.random.Generator, depth: int):
        filled = np.nan_to_num(rows, nan=0.0)
        if len(columns) == 1 or depth >= MAX_DEPTH:
            return _LeafGroup({
                col: _Leaf(rows[:, index])
                for index, col in enumerate(columns)
            })
        groups = _independent_groups(filled, self._correlation_threshold)
        if len(groups) > 1:
            children = []
            for group in groups:
                sub_columns = tuple(columns[i] for i in group)
                child = self._learn(
                    rows[:, group], sub_columns, rng, depth + 1
                )
                children.append((sub_columns, child))
            return _Product(groups=children)
        if rows.shape[0] >= 2 * self._min_cluster_rows:
            labels = _two_means(filled, rng)
            sizes = np.bincount(labels, minlength=2)
            if sizes.min() >= self._min_cluster_rows // 2:
                children = []
                for k in range(2):
                    member_rows = rows[labels == k]
                    child = self._learn(member_rows, columns, rng, depth + 1)
                    children.append((sizes[k] / rows.shape[0], child))
                return _Sum(children=children)
        return _LeafGroup({
            col: _Leaf(rows[:, index]) for index, col in enumerate(columns)
        })

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def _evaluate(self, node, by_column: Dict[int, List[Predicate]]) -> float:
        if isinstance(node, _LeafGroup):
            probability = 1.0
            for col, predicates in by_column.items():
                leaf = node.leaves.get(col)
                if leaf is None:
                    continue
                probability *= leaf.probability(predicates)
            return probability
        if isinstance(node, _Product):
            probability = 1.0
            for sub_columns, child in node.groups:
                relevant = {
                    col: preds for col, preds in by_column.items()
                    if col in sub_columns
                }
                if relevant:
                    probability *= self._evaluate(child, relevant)
            return probability
        if isinstance(node, _Sum):
            return sum(
                weight * self._evaluate(child, by_column)
                for weight, child in node.children
            )
        raise TypeError(f"unknown SPN node {type(node)}")

    def selectivity(self, predicates: Sequence[Predicate]) -> float:
        """Joint selectivity of a conjunction over this table's columns."""
        if not predicates:
            return 1.0
        by_column: Dict[int, List[Predicate]] = {}
        for predicate in predicates:
            index = self.column_index.get(predicate.column)
            if index is None:
                raise KeyError(
                    f"column {predicate.column!r} not modelled by this SPN"
                )
            by_column.setdefault(index, []).append(predicate)
        return float(np.clip(self._evaluate(self.root, by_column), 0.0, 1.0))
