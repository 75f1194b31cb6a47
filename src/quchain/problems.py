"""QUBO builders for common combinatorial problems and Ising conversion.

Every builder returns a :class:`QuboMatrix` in *minimize* form; problems that
are natively maximizations (max cut, set packing) are negated at build time
and record ``sense="max"`` so reports can restore the original objective.
:func:`weight_graph_from_qubo` turns a QUBO into the Ising weight graph the
rest of the pipeline consumes, keeping constant terms in ``offset``, so

    qubo.value(x) == graph.energy(2x - 1) + graph.offset

holds for all binary assignments ``x`` (exactly for dyadic coefficients).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModelError
from .graph import WeightGraph
from .validate import as_index


@dataclass
class QuboMatrix:
    """Dense symmetric QUBO: minimize ``x^T q x + offset`` over binary x.

    Asymmetric input is symmetrized as ``(Q + Q^T)/2``, which preserves the
    quadratic form and the diagonal.
    """

    q: np.ndarray
    sense: str = "min"
    offset: float = 0.0

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ModelError(f"QUBO matrix must be square, got shape {q.shape}")
        if q.shape[0] < 1:
            raise ModelError("QUBO needs at least one variable")
        bad = np.argwhere(~np.isfinite(q))
        if bad.size:
            i, j = bad[0]
            raise ModelError(f"QUBO entry [{i}, {j}] must be finite, got {q[i, j]}")
        if self.sense not in ("min", "max"):
            raise ModelError(f"sense must be 'min' or 'max', got {self.sense!r}")
        self.q = (q + q.T) / 2.0
        self.offset = float(self.offset)
        if not math.isfinite(self.offset):
            raise ModelError(f"QUBO offset must be finite, got {self.offset}")

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.q @ x) + self.offset


def _as_edge_list(graph):
    """Accept a networkx graph or an iterable of (u, v[, w]) tuples.

    Every label, a networkx node or a listed endpoint, must be a non-negative
    int (:func:`~quchain.validate.as_index`: NumPy ints count, bools do not),
    and the labels must be exactly 0..n-1.
    """
    if hasattr(graph, "edges"):
        labels = list(graph.nodes)
        edges = [(u, v, float(data.get("weight", 1.0))) for u, v, data in graph.edges(data=True)]
    else:
        edges = [(e[0], e[1], 1.0 if len(e) == 2 else float(e[2])) for e in graph]
        labels = [x for u, v, _ in edges for x in (u, v)]
    for x in labels:
        if as_index(x) is None:
            raise ModelError(f"node labels must be non-negative integers, got {x!r}")
    nodes = sorted(set(labels))
    if nodes != list(range(len(nodes))):
        raise ModelError(f"node labels must be 0..n-1, got {nodes}")
    return len(nodes), [(int(u), int(v), w) for u, v, w in edges]


def qubo_from_maxcut(graph) -> QuboMatrix:
    """Max cut as a minimization: ``sum_(u,v) w_uv (2 x_u x_v - x_u - x_v)``.

    For every assignment the objective equals minus the weight of the cut, so
    minimizing recovers the maximum cut.
    """
    n, edges = _as_edge_list(graph)
    if not edges:
        raise ModelError("max cut needs a graph with at least one edge")
    q = np.zeros((n, n))
    for u, v, w in edges:
        if u == v:
            raise ModelError(f"self loop on node {u}")
        q[u, v] += w
        q[v, u] += w
        q[u, u] -= w
        q[v, v] -= w
    return QuboMatrix(q=q, sense="max")


def qubo_from_number_partition(numbers) -> QuboMatrix:
    """Two-way partition of positive integers, minimizing the squared residue.

    The objective is ``(sum_i n_i s_i)^2`` with ``s = 2x - 1``; expanded over
    binary variables this gives diagonal ``4 n_i^2 - 4 S n_i``, pair
    coefficient ``8 n_i n_j`` and constant ``S^2`` (stored in ``offset``).
    The minimum is 0 exactly when a perfect partition exists.
    """
    numbers = list(numbers)
    if not numbers:
        raise ModelError("number partition needs a non-empty list")
    for v in numbers:
        if as_index(v) in (None, 0):  # bools are not integers here
            raise ModelError(f"numbers must be positive integers, got {v!r}")
    numbers = [int(v) for v in numbers]
    exact = sum(numbers)
    if 4 * exact * exact > sys.float_info.max:  # bounds every coefficient and the offset
        i = numbers.index(max(numbers))
        raise ModelError(f"numbers[{i}] is too large: the QUBO coefficients overflow a float")
    n = len(numbers)
    total = float(exact)
    q = np.zeros((n, n))
    for i in range(n):
        q[i, i] = 4.0 * numbers[i] ** 2 - 4.0 * total * numbers[i]
        for jj in range(i + 1, n):
            q[i, jj] = 4.0 * numbers[i] * numbers[jj]
            q[jj, i] = q[i, jj]
    return QuboMatrix(q=q, sense="min", offset=total * total)


def qubo_from_graph_coloring(graph, k: int) -> QuboMatrix:
    """One-hot k-coloring penalty model with variable layout ``v*k + c``.

    Objective: ``sum_v (1 - sum_c x_{v,c})^2 + sum_{(u,v) in E} sum_c
    x_{u,c} x_{v,c}``; the minimum (after offset) is 0 iff the graph is
    k-colorable.  Variable ``v*k + c`` means "vertex v gets color c".
    """
    if k < 1:
        raise ModelError("color count must be at least 1")
    nv, edges = _as_edge_list(graph)
    if nv < 1:
        raise ModelError("graph coloring needs at least one vertex")
    n = nv * k
    q = np.zeros((n, n))
    for v in range(nv):
        for c in range(k):
            q[v * k + c, v * k + c] -= 1.0
            for c2 in range(c + 1, k):
                q[v * k + c, v * k + c2] += 1.0
                q[v * k + c2, v * k + c] += 1.0
    for u, v, _ in edges:
        for c in range(k):
            q[u * k + c, v * k + c] += 0.5
            q[v * k + c, u * k + c] += 0.5
    return QuboMatrix(q=q, sense="min", offset=float(nv))


def qubo_from_set_packing(sets, penalty: float = 2.0) -> QuboMatrix:
    """Maximum set packing: ``-sum_i x_i + P * sum_{overlapping i<j} x_i x_j``.

    With ``penalty > 1`` the minimum selects a maximum pairwise-disjoint
    subfamily.  Set elements must be non-negative integers (bools are not);
    only which sets share one matters, so no universe size is needed.
    """
    if not (math.isfinite(penalty) and penalty > 1):
        raise ConfigError(f"penalty must be finite and exceed 1 to dominate, got {penalty}")
    sets = [frozenset(s) for s in sets]
    if not sets:
        raise ModelError("set packing needs at least one set")
    for s in sets:
        for e in s:
            if as_index(e) is None:
                raise ModelError(f"element {e!r} is not a non-negative integer")
    n = len(sets)
    q = np.zeros((n, n))
    for i in range(n):
        q[i, i] = -1.0
        for jj in range(i + 1, n):
            if sets[i] & sets[jj]:
                q[i, jj] = penalty / 2.0
                q[jj, i] = penalty / 2.0
    return QuboMatrix(q=q, sense="max")


def weight_graph_from_qubo(qubo: QuboMatrix) -> WeightGraph:
    """Spin substitution ``s = 2x - 1`` applied to a QUBO, as a weight graph.

    With symmetric ``Q``: couplings ``J = triu(Q + Q^T, 1)/4`` become edges
    (zero couplings are dropped), biases ``h = diag(Q)/2`` plus the row and
    column sums of ``J`` become node weights (zero-weight nodes retained),
    and ``offset = qubo.offset + tr(Q)/2 + sum(J)``.  Then
    ``energy(2x - 1) + offset == qubo.value(x)`` for every binary ``x``.
    """
    q = qubo.q
    j = np.triu(q + q.T, 1) / 4.0
    h = np.diag(q) / 2.0 + j.sum(axis=0) + j.sum(axis=1)
    offset = qubo.offset + np.trace(q) / 2.0 + j.sum()
    u, v = np.nonzero(j)
    return WeightGraph(
        nodes=list(enumerate(h.tolist())),
        edges=list(zip(u.tolist(), v.tolist(), j[u, v].tolist())),
        offset=float(offset),
    )
