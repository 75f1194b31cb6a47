"""Benchmark harness: random instance generation and metric properties."""

import pytest

from quchain.bench import BenchRow, cell_means, random_weight_graph, run_bench


def test_random_graph_edge_count_and_weights():
    g = random_weight_graph(12, 0.5, seed=4)
    assert g.n == 12
    assert len(g.edges) == int(0.5 * 66)
    assert all(w == 1.0 for _, _, w in g.edges)
    assert all(w == 0.0 for _, w in g.nodes)


def test_random_graph_deterministic_per_seed():
    a = random_weight_graph(10, 0.4, seed=9)
    b = random_weight_graph(10, 0.4, seed=9)
    assert a == b
    assert a != random_weight_graph(10, 0.4, seed=10)


def test_zero_density_graph_compiles():
    rows = run_bench([5], [0.0], [1], reps=1, seed=0)
    assert rows[0].depth_pre == 0
    assert rows[0].cnot_count == 0


def test_depth_pre_never_exceeds_complete_graph_bound():
    rows = run_bench([6, 9, 12], [0.3, 0.7, 1.0], [1], reps=3, seed=5)
    for r in rows:
        bound = 2 * r.n - 2 if r.n % 2 == 0 else 2 * r.n - 1
        assert 0 <= r.depth_pre <= bound
        if r.d == 1.0:
            assert r.depth_pre == bound


def test_depth_scales_with_p():
    one = run_bench([8], [0.8], [1], reps=1, seed=2)[0]
    two = run_bench([8], [0.8], [2], reps=1, seed=2)[0]
    assert two.depth_pre == 2 * one.depth_pre
    assert two.cnot_count > one.cnot_count


def test_cell_means_aggregate_per_cell():
    rows = [
        BenchRow(5, 0.5, 1, 0, 1.0, 4, 10, 12),
        BenchRow(5, 0.5, 1, 1, 3.0, 6, 14, 16),
    ]
    (mean,) = cell_means(rows)
    assert mean[:4] == (5, 0.5, 1, "mean")
    assert mean[4:] == (2.0, 5.0, 12.0, 14.0)


@pytest.mark.parametrize("density", [-0.1, 1.5, float("nan")])
def test_random_weight_graph_rejects_density_outside_unit_interval(density):
    with pytest.raises(ValueError, match="density"):
        random_weight_graph(5, density, seed=0)
