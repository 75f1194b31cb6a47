"""QUBO builders for common combinatorial problems and Ising conversion.

Every builder returns a :class:`QuboMatrix` in *minimize* form; problems that
are natively maximizations (max cut, set packing) are negated at build time
and record ``sense="max"`` so reports can restore the original objective.
The graph builders (max cut, coloring) take a :class:`WeightGraph`, a
networkx graph or an edge list, and ``WeightGraph`` judges each of them.
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

from .errors import ConfigError, ModelError, ParseError
from .graph import WEIGHT_LIMIT, WeightGraph
from .validate import as_index, is_integer, is_real


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


def _problem_graph(graph) -> WeightGraph:
    """``graph`` as the :class:`WeightGraph` that judges it.

    A ``WeightGraph`` is returned as it is.  A networkx graph, or an iterable
    of ``(u, v[, w])`` with ``w`` 1.0 when absent, becomes one with zero node
    weights: its labels (a networkx graph's nodes, or the listed endpoints)
    in first-seen order, its edges as given.  ``WeightGraph`` then rejects a
    label that is not an int 0..n-1, a self loop, a duplicate edge and a
    weight that is not a finite real, and its located ``ParseError`` is
    raised again as :class:`ModelError`.
    """
    if isinstance(graph, WeightGraph):
        return graph
    if hasattr(graph, "edges"):
        labels = graph.nodes
        edges = [(u, v, data.get("weight", 1.0)) for u, v, data in graph.edges(data=True)]
    else:
        edges = [(e[0], e[1], 1.0 if len(e) == 2 else e[2]) for e in graph]
        labels = [x for u, v, _ in edges for x in (u, v)]
    try:
        return WeightGraph(nodes=[(x, 0.0) for x in dict.fromkeys(labels)], edges=edges)
    except ParseError as exc:
        raise ModelError(str(exc)) from None


def qubo_from_maxcut(graph) -> QuboMatrix:
    """Max cut as a minimization: ``sum_(u,v) w_uv (2 x_u x_v - x_u - x_v)``.

    ``graph`` is a :class:`WeightGraph`, a networkx graph or an edge list
    (see :func:`_problem_graph`).  For every assignment the objective equals
    minus the weight of the cut, so minimizing recovers the maximum cut.
    """
    g = _problem_graph(graph)
    if not g.edges:
        raise ModelError("max cut needs a graph with at least one edge")
    q = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
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
    The minimum is 0 exactly when a perfect partition exists.  Its Ising
    graph's sum of |w| plus |offset| is ``S^2``, so numbers whose sum squared
    nears ``WEIGHT_LIMIT`` raise :class:`ModelError` naming the largest.
    """
    numbers = list(numbers)
    if not numbers:
        raise ModelError("number partition needs a non-empty list")
    for v in numbers:
        if as_index(v) in (None, 0):  # bools are not integers here
            raise ModelError(f"numbers must be positive integers, got {v!r}")
    numbers = [int(v) for v in numbers]
    exact = sum(numbers)
    # The Ising graph's sum of |w| plus |offset| is S^2 exactly; its float sum
    # of about n^2/2 rounded terms stays within (n + 2)^2 eps of S^2.
    if exact * exact > WEIGHT_LIMIT / (1 + (len(numbers) + 2) ** 2 * sys.float_info.epsilon):
        i = numbers.index(max(numbers))
        raise ModelError(f"numbers[{i}] is too large: the model's weights sum past "
                         f"the limit of {WEIGHT_LIMIT:g}")
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
    ``graph`` is read as :func:`qubo_from_maxcut` reads it; ``k`` must be an
    int of at least 1 (a NumPy integer counts, a bool does not).
    """
    if not is_integer(k) or k < 1:
        raise ModelError(f"k: color count must be an int of at least 1, got {k!r}")
    g = _problem_graph(graph)
    nv = g.n
    n = nv * k
    q = np.zeros((n, n))
    for v in range(nv):
        for c in range(k):
            q[v * k + c, v * k + c] -= 1.0
            for c2 in range(c + 1, k):
                q[v * k + c, v * k + c2] += 1.0
                q[v * k + c2, v * k + c] += 1.0
    for u, v, _ in g.edges:
        for c in range(k):
            q[u * k + c, v * k + c] += 0.5
            q[v * k + c, u * k + c] += 0.5
    return QuboMatrix(q=q, sense="min", offset=float(nv))


def qubo_from_set_packing(sets, penalty: float = 2.0) -> QuboMatrix:
    """Maximum set packing: ``-sum_i x_i + P * sum_{overlapping i<j} x_i x_j``.

    With ``penalty > 1`` the minimum selects a maximum pairwise-disjoint
    subfamily.  Set elements must be non-negative integers (bools are not);
    only which sets share one matters, so no universe size is needed.  With
    m overlapping pairs among n sets, the Ising graph's sum of |w| plus
    |offset| is at most ``m * penalty + n``; a penalty that takes this past
    ``WEIGHT_LIMIT`` raises :class:`ConfigError` naming ``penalty``.
    """
    if not (is_real(penalty) and penalty > 1):
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
    pairs = int(np.count_nonzero(np.triu(q, 1)))
    # The bound's float sum of about n + 3m rounded terms, as for partition.
    if pairs * penalty + n > WEIGHT_LIMIT / (1 + (n + 3 * pairs + 2) * sys.float_info.epsilon):
        raise ConfigError(f"penalty {penalty:g} is too large: the model's weights sum past "
                          f"the limit of {WEIGHT_LIMIT:g}")
    return QuboMatrix(q=q, sense="max")


def weight_graph_from_qubo(qubo: QuboMatrix) -> WeightGraph:
    """Spin substitution ``s = 2x - 1`` applied to a QUBO, as a weight graph.

    With symmetric ``Q``: couplings ``J = triu(Q + Q^T, 1)/4`` become edges
    (zero couplings are dropped), biases ``h = diag(Q)/2`` plus the row and
    column sums of ``J`` become node weights (zero-weight nodes retained),
    and ``offset = qubo.offset + tr(Q)/2 + sum(J)``.  Then
    ``energy(2x - 1) + offset == qubo.value(x)`` for every binary ``x``.
    A bias within the rounding of the terms summed into it, |h_i| at most
    ``4 n eps`` times the sum of their magnitudes, is set to 0.0: it is
    exactly 0 in a number partition, whose terms cancel.
    """
    q = qubo.q
    j = np.triu(q + q.T, 1) / 4.0
    h = np.diag(q) / 2.0 + j.sum(axis=0) + j.sum(axis=1)
    scale = np.abs(np.diag(q)) / 2.0 + np.abs(j).sum(axis=0) + np.abs(j).sum(axis=1)
    h[np.abs(h) <= 4 * len(h) * sys.float_info.epsilon * scale] = 0.0
    offset = qubo.offset + np.trace(q) / 2.0 + j.sum()
    u, v = np.nonzero(j)
    return WeightGraph(
        nodes=list(enumerate(h.tolist())),
        edges=list(zip(u.tolist(), v.tolist(), j[u, v].tolist())),
        offset=float(offset),
    )
