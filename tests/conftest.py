"""Shared fixtures and independent brute-force oracles.

Oracles here enumerate assignments directly and never call the code paths
they check.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import settings

from quchain import QaoaParams, WeightGraph, qubo_from_maxcut, weight_graph_from_qubo

# Property tests draw the same examples on every run and keep no example
# database; a test's own ``settings`` only choose how many it draws.
settings.register_profile("quchain", derandomize=True, database=None, deadline=None)
settings.load_profile("quchain")

DEMO6_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 4), (1, 3)]


@pytest.fixture
def demo6_graph() -> WeightGraph:
    """Weight graph of the six-node max-cut demo instance."""
    return weight_graph_from_qubo(qubo_from_maxcut(DEMO6_EDGES))


@pytest.fixture
def k2_graph() -> WeightGraph:
    return WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 1.0)])


def brute_force_qubo_min(q: np.ndarray, offset: float = 0.0) -> float:
    n = q.shape[0]
    best = None
    for bits in itertools.product((0, 1), repeat=n):
        x = np.asarray(bits, dtype=float)
        val = float(x @ q @ x) + offset
        best = val if best is None else min(best, val)
    return best


def brute_force_maxcut(edges, n: int):
    """Returns (max cut value, set of optimal partitions as frozenset pairs)."""
    best, parts = None, set()
    for bits in itertools.product((0, 1), repeat=n):
        cut = sum(w for u, v, w in edges if bits[u] != bits[v])
        if best is None or cut > best:
            best, parts = cut, set()
        if cut == best:
            side = frozenset(i for i in range(n) if bits[i] == 1)
            parts.add(frozenset({side, frozenset(range(n)) - side}))
    return best, parts


def graph_energy_min_max(g: WeightGraph):
    values = []
    for spins in itertools.product((-1, 1), repeat=g.n):
        values.append(g.energy(spins))
    return min(values), max(values)


def random_graph(rng, n_lo=2, n_hi=7, weighted=True, with_bias=True) -> WeightGraph:
    n = int(rng.integers(n_lo, n_hi + 1))
    pairs = list(itertools.combinations(range(n), 2))
    m = int(rng.integers(1, len(pairs) + 1)) if pairs else 0
    chosen = rng.choice(len(pairs), size=m, replace=False) if m else []
    edges = [
        (*pairs[int(i)], float(rng.normal()) if weighted else 1.0)
        for i in sorted(int(i) for i in chosen)
    ]
    nodes = [
        (i, float(rng.normal()) if with_bias and rng.random() < 0.5 else 0.0)
        for i in range(n)
    ]
    return WeightGraph(nodes=nodes, edges=edges)


def random_qaoa_params(rng, p: int) -> QaoaParams:
    return QaoaParams(
        gamma=tuple(rng.uniform(0.0, np.pi, size=p)),
        beta=tuple(rng.uniform(0.0, np.pi / 2.0, size=p)),
    )
