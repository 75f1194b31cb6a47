"""The p=1 line identity behind ``optimize``'s scan and line search.

At p=1, E(gamma, beta) = A sin 4beta + B sin^2 2beta + C sin 2beta exactly,
with fields too, so three evaluations fix a whole line of fixed gamma.  The
fitted lines are checked against direct light-cone energies, and the beta
period against the kernel: pi on every graph, but not pi/2 once the graph
has fields.
"""

import networkx as nx
import numpy as np
import pytest

import quchain.engine as engine
from quchain import (
    QaoaParams,
    WeightGraph,
    decompose,
    expectation_decomposed,
    optimize,
    qubo_from_graph_coloring,
    weight_graph_from_qubo,
)

from conftest import random_graph
from oracles import expectation_full


def _graphs() -> dict:
    """name -> graph: seeded random graphs with fields, a triangle with
    fields, a graph with an isolated node and a zero-weight edge, and a
    weighted 3-regular graph of 16 nodes whose terms have light cones."""
    rng = np.random.default_rng(2806)
    graphs = {f"random{k}": random_graph(rng, 3, 8) for k in range(6)}
    graphs["triangle"] = WeightGraph(nodes=[(0, 0.4), (1, -0.7), (2, 0.0)],
                                     edges=[(0, 1, 1.0), (1, 2, -0.5), (0, 2, 0.8)])
    graphs["isolated_zero"] = WeightGraph(nodes=[(0, 0.3), (1, 0.0), (2, -0.2), (3, 0.5)],
                                          edges=[(0, 2, 1.2), (0, 3, 0.0)])
    reg3 = nx.random_regular_graph(3, 16, seed=5)
    graphs["reg3_16"] = WeightGraph(
        nodes=[(i, 0.1 * (i % 3)) for i in range(16)],
        edges=[(u, v, 1.0 - 0.03 * (u + v)) for u, v in reg3.edges()],
    )
    return graphs


GRAPHS = _graphs()


def _scale(g: WeightGraph) -> float:
    """A bound on |E|: the sum of the absolute weights, at least 1."""
    return max(1.0, sum(abs(w) for *_, w in g.edges) + sum(abs(w) for _, w in g.nodes))


def _energies(g: WeightGraph, gammas, betas) -> np.ndarray:
    """Direct light-cone energies, shape (len(gammas), len(betas))."""
    points = [QaoaParams(gamma=(gm,), beta=(bt,)) for gm in gammas for bt in betas]
    return np.reshape(engine._Objective(g, len(points)).batch(points), (len(gammas), -1))


def _fieldless(g: WeightGraph) -> WeightGraph:
    return WeightGraph(nodes=[(i, 0.0) for i, _ in g.nodes], edges=g.edges)


def test_the_light_cone_graph_has_many_cones():
    assert len(decompose(GRAPHS["reg3_16"], 1)) > 1


@pytest.mark.parametrize("name", list(GRAPHS))
def test_fitted_line_equals_direct_energies(name):
    g = GRAPHS[name]
    rng = np.random.default_rng(len(name))
    gammas = rng.uniform(-1.0, 4.0, size=4)
    betas = rng.uniform(-np.pi, 2.0 * np.pi, size=9)
    coeffs = engine._fit_lines(engine._Objective(g, 12), gammas)
    fitted = coeffs @ engine._line_basis(betas).T
    assert np.max(np.abs(fitted - _energies(g, gammas, betas))) <= 1e-12 * _scale(g)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_beta_period_is_pi(name):
    g = GRAPHS[name]
    rng = np.random.default_rng(7 + len(name))
    gammas, betas = rng.uniform(0.0, np.pi, size=3), rng.uniform(0.0, np.pi, size=5)
    shifted = _energies(g, gammas, betas + np.pi)
    assert np.max(np.abs(shifted - _energies(g, gammas, betas))) <= 1e-12 * _scale(g)


@pytest.mark.parametrize("name", [n for n, g in GRAPHS.items() if any(w for _, w in g.nodes)])
def test_half_a_period_is_a_period_only_without_fields(name):
    # beta -> beta + pi/2 keeps A and B and flips the sign of C, the part
    # linear in the fields: a search over beta in [0, pi/2) misses half of
    # every line of a graph with fields.
    g = GRAPHS[name]
    rng = np.random.default_rng(11 + len(name))
    gammas, betas = rng.uniform(0.1, 3.0, size=3), rng.uniform(0.1, 1.4, size=5)
    half = _energies(g, gammas, betas + np.pi / 2.0)
    assert np.max(np.abs(half - _energies(g, gammas, betas))) > 1e-3
    g0 = _fieldless(g)
    half = _energies(g0, gammas, betas + np.pi / 2.0)
    assert np.max(np.abs(half - _energies(g0, gammas, betas))) <= 1e-12 * _scale(g0)


@pytest.mark.parametrize("name", list(GRAPHS))
def test_line_minimum_is_the_minimum_over_the_period(name):
    g = GRAPHS[name]
    gammas = np.linspace(0.2, 3.0, 4)
    betas, values = engine._line_minima(engine._fit_lines(engine._Objective(g, 12), gammas))
    assert np.all((0.0 <= betas) & (betas <= np.pi))
    dense = _energies(g, gammas, np.linspace(0.0, np.pi, 512, endpoint=False))
    assert np.all(values <= dense.min(axis=1) + 1e-12 * _scale(g))
    at_minima = [expectation_decomposed(g, QaoaParams(gamma=(gm,), beta=(bt,)))
                 for gm, bt in zip(gammas, betas)]
    assert np.max(np.abs(np.array(at_minima) - values)) <= 1e-12 * _scale(g)


@pytest.mark.parametrize("coeffs", [
    (0.0, 0.0, 1.0), (0.0, 0.0, -2.0), (0.0, 0.0, 0.0), (1e-14, -1e-14, 1.0),
    (1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.3, 1.0, -0.2), (-2.0, 0.5, 3.0),
])
def test_line_minima_of_edge_case_lines(coeffs):
    betas, values = engine._line_minima(np.array([coeffs]))
    dense = engine._line_basis(np.linspace(0.0, np.pi, 100001)) @ np.array(coeffs)
    assert values[0] <= dense.min() + 1e-15
    assert abs(engine._line_basis(betas) @ np.array(coeffs) - values)[0] <= 1e-15


def test_coloring_triangle_reaches_the_second_half_of_the_period():
    # A triangle, three colours, nine qubits: with beta confined to
    # [0, pi/2) the p=1 estimate was 4.72 against an optimum of 0.
    triangle = nx.Graph([(0, 1), (1, 2), (0, 2)])
    g = weight_graph_from_qubo(qubo_from_graph_coloring(triangle, 3))
    res = optimize(g, p=1, grid_size=8, seed=1)
    assert res.energy + g.offset <= 1.7
    assert res.params.beta[0] > np.pi / 2.0
    assert abs(expectation_full(g, res.params) - res.energy) <= 1e-12 * _scale(g)


def test_line_search_walks_past_its_bracket():
    # One edge of weight 0.05: the lowest line minimum is -0.05, first at
    # gamma = pi / (4 * 0.05) = 5 pi, far beyond the scanned [0, pi).
    g = WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 0.05)])
    res = optimize(g, p=1, grid_size=8)
    assert res.converged
    assert res.energy == pytest.approx(-0.05, abs=1e-12)
    assert res.params.gamma[0] == pytest.approx(5.0 * np.pi, abs=1e-4)


#: Unit edges, a field on every node, and node 3 isolated.  Its p=1
#: landscape has two basins: one of -5.28 at gamma = 0.25 and one of -6.13
#: at gamma = 3.18, just past the scanned [0, pi).
TWO_BASINS = WeightGraph(
    nodes=[(0, 1.15), (1, 0.13), (2, 1.67), (3, -1.8), (4, 0.42), (5, 1.6), (6, 1.83),
           (7, -0.54)],
    edges=[(u, v, 1.0) for u, v in [(0, 1), (0, 2), (0, 5), (0, 6), (0, 7), (1, 4), (1, 5),
                                    (4, 5), (4, 6), (4, 7), (5, 6), (5, 7)]],
)


def test_the_second_lowest_local_minimum_is_searched_too():
    # Of the 8 lines the first (-5.11) is the lowest and leads to -5.28; the
    # last (-3.72) is the second lowest local minimum and leads to -6.13.
    res = optimize(TWO_BASINS, p=1, grid_size=8)
    assert res.converged
    assert res.energy < -6.12 and res.params.gamma[0] > np.pi


def test_a_start_point_is_searched_around():
    # Four lines miss the deeper basin; a start point in it competes with
    # the scan's local minima, and the line search around it finds -6.13.
    start = QaoaParams(gamma=(3.0,), beta=(0.7,))
    assert optimize(TWO_BASINS, p=1, grid_size=4).energy > -5.3
    res = optimize(TWO_BASINS, p=1, grid_size=4, init=start)
    assert res.energy < -6.12


@pytest.mark.parametrize("max_evals", [1, 2, 3])
def test_a_budget_without_room_for_one_line_and_its_minimum(k2_graph, max_evals):
    with pytest.raises(ValueError, match="no depth-p evaluations"):
        optimize(k2_graph, p=1, method="grid+simplex", max_evals=max_evals)
