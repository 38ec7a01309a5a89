"""The information catcher (paper Fig 3, Sec. IV-B).

Walks a query-plan tree by pre-order DFS and extracts, per node:

- the node type and the DBMS-estimated cardinality and cost (features),
- the reflexive-transitive partial-order adjacency matrix ``A(p)`` where
  ``A[i, j] = 1`` iff node ``i`` is an ancestor of node ``j`` or ``i == j``
  (eq. 2–3) — the tree-structured attention mask,
- node heights, defined as *the length of the path from the node to the
  root* (used by the loss adjuster),
- the actual per-sub-plan execution times when the plan was executed
  (labels).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.engine.plan import NODE_TYPE_INDEX, PlanNode


# str(dtype) costs ~µs per call, which would dominate the warm-cache
# serving path (fingerprints are recomputed per lookup): memoize it.
_DTYPE_BYTES: dict = {}


def _hash_field(digest, tag: bytes, array: np.ndarray) -> None:
    """Frame one array as ``tag:dtype:length:bytes`` inside the digest."""
    dtype_bytes = _DTYPE_BYTES.get(array.dtype)
    if dtype_bytes is None:
        dtype_bytes = str(array.dtype).encode("ascii")
        _DTYPE_BYTES[array.dtype] = dtype_bytes
    digest.update(
        tag + b":" + dtype_bytes + b":" + struct.pack("<q", array.size)
    )
    digest.update(array.tobytes())


@dataclass
class CaughtPlan:
    """Everything the encoder needs from one plan."""

    nodes: List[PlanNode]            # pre-order DFS sequence
    node_type_ids: np.ndarray        # (n,) int
    est_rows: np.ndarray             # (n,) float
    est_costs: np.ndarray            # (n,) float, cumulative per node
    adjacency: np.ndarray            # (n, n) bool, ancestor-or-self
    heights: np.ndarray              # (n,) int, distance to root
    parents: np.ndarray              # (n,) int, parent DFS index (-1 root)
    actual_times: Optional[np.ndarray]  # (n,) float ms, None if not executed
    actual_rows: Optional[np.ndarray]   # (n,) float, None if not executed
    _fingerprint: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def fingerprint(self) -> str:
        """Stable content hash of everything the DACE encoding consumes.

        Covers node types, tree structure (parent links), and the DBMS
        estimates — plus the actual cardinalities when present, so the
        ``card_source="actual"`` oracle variant never aliases.  Two plans
        with the same fingerprint produce the same encoded features, which
        makes this the key for serving-time encoding/prediction caches.

        Each field is framed with a tag, its dtype, and its length before
        the raw bytes, so differently-shaped field splits whose
        concatenated bytes happen to coincide can never collide.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            _hash_field(digest, b"types", self.node_type_ids)
            _hash_field(digest, b"parents", self.parents)
            _hash_field(digest, b"rows", self.est_rows)
            _hash_field(digest, b"costs", self.est_costs)
            if self.actual_rows is not None:
                _hash_field(digest, b"arows", self.actual_rows)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def distance_matrix(self) -> np.ndarray:
        """Tree path length between every node pair (QueryFormer's bias)."""
        n = self.num_nodes
        depths = self.heights
        # Ancestor sets are encoded in `adjacency`; LCA depth for (i, j) is
        # the max depth among common ancestors (including i or j itself).
        distances = np.zeros((n, n), dtype=np.int64)
        ancestors = [np.nonzero(self.adjacency[:, j])[0] for j in range(n)]
        for i in range(n):
            set_i = set(ancestors[i].tolist())
            for j in range(i + 1, n):
                common = [a for a in ancestors[j] if a in set_i]
                lca_depth = max(depths[a] for a in common)
                d = depths[i] + depths[j] - 2 * lca_depth
                distances[i, j] = d
                distances[j, i] = d
        return distances


def catch_plan(plan: PlanNode) -> CaughtPlan:
    """Extract features, tree structure, and labels from a plan tree."""
    nodes: List[PlanNode] = []
    heights: List[int] = []
    parents: List[int] = []  # parent index per DFS position (-1 for root)

    def visit(node: PlanNode, height: int, parent_index: int) -> None:
        index = len(nodes)
        nodes.append(node)
        heights.append(height)
        parents.append(parent_index)
        for child in node.children:
            visit(child, height + 1, index)

    visit(plan, 0, -1)
    n = len(nodes)

    adjacency = np.zeros((n, n), dtype=bool)
    for index in range(n):
        adjacency[index, index] = True  # reflexivity
        ancestor = parents[index]
        while ancestor >= 0:  # transitivity up the parent chain
            adjacency[ancestor, index] = True
            ancestor = parents[ancestor]

    executed = all(node.actual_time_ms is not None for node in nodes)
    actual = (
        np.array([node.actual_time_ms for node in nodes], dtype=np.float64)
        if executed
        else None
    )
    actual_rows = (
        np.array([node.actual_rows for node in nodes], dtype=np.float64)
        if executed
        else None
    )
    return CaughtPlan(
        nodes=nodes,
        node_type_ids=np.array(
            [NODE_TYPE_INDEX[node.node_type] for node in nodes], dtype=np.int64
        ),
        est_rows=np.array([node.est_rows for node in nodes], dtype=np.float64),
        est_costs=np.array([node.est_cost for node in nodes], dtype=np.float64),
        adjacency=adjacency,
        heights=np.array(heights, dtype=np.int64),
        parents=np.array(parents, dtype=np.int64),
        actual_times=actual,
        actual_rows=actual_rows,
    )
