"""QUBO builders, Ising conversion and the exact energy identities."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quchain import (
    ConfigError,
    ModelError,
    QuboMatrix,
    qubo_from_graph_coloring,
    qubo_from_maxcut,
    qubo_from_number_partition,
    qubo_from_set_packing,
    weight_graph_from_qubo,
)

from conftest import DEMO6_EDGES, brute_force_maxcut, brute_force_qubo_min


def test_qubo_symmetrizes_and_validates():
    q = QuboMatrix(q=np.array([[1.0, 2.0], [0.0, -1.0]]))
    assert np.allclose(q.q, q.q.T)
    assert q.q[0, 1] == 1.0
    assert np.allclose(np.diag(q.q), [1.0, -1.0])
    with pytest.raises(ModelError):
        QuboMatrix(q=np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_qubo_rejects_non_finite_entries_and_offset(bad):
    with pytest.raises(ModelError, match=r"entry \[1, 0\] must be finite"):
        QuboMatrix(q=np.array([[1.0, 0.0], [bad, -1.0]]))
    with pytest.raises(ModelError, match="offset must be finite"):
        QuboMatrix(q=np.eye(2), offset=bad)


def test_maxcut_rejects_non_finite_weight():
    with pytest.raises(ModelError, match="must be finite"):
        qubo_from_maxcut([(0, 1, float("nan"))])


@given(st.integers(1, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_symmetrization_preserves_objective(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n))
    q = QuboMatrix(q=raw)
    for bits in itertools.product((0, 1), repeat=n):
        x = np.asarray(bits, dtype=float)
        assert q.value(x) == pytest.approx(float(x @ raw @ x), abs=1e-12)


class TestMaxCut:
    def test_single_edge(self):
        q = qubo_from_maxcut([(0, 1, 1.0)])
        vals = {bits: q.value(bits) for bits in itertools.product((0, 1), repeat=2)}
        assert min(vals.values()) == -1
        assert vals[(0, 1)] == -1 and vals[(1, 0)] == -1
        assert vals[(0, 0)] == 0 and vals[(1, 1)] == 0

    def test_demo6_instance(self):
        q = qubo_from_maxcut(DEMO6_EDGES)
        assert q.sense == "max"
        assert brute_force_qubo_min(q.q, q.offset) == -6
        cut, parts = brute_force_maxcut([(u, v, 1.0) for u, v in DEMO6_EDGES], 6)
        assert cut == 6
        want = {
            frozenset({frozenset({1, 4}), frozenset({0, 2, 3, 5})}),
            frozenset({frozenset({1, 2, 4}), frozenset({0, 3, 5})}),
        }
        assert parts == want

    def test_objective_is_negated_cut(self):
        rng = np.random.default_rng(3)
        edges = [(0, 1, 1.5), (1, 2, 0.5), (0, 2, 2.0), (2, 3, 1.0)]
        q = qubo_from_maxcut(edges)
        for bits in itertools.product((0, 1), repeat=4):
            cut = sum(w for u, v, w in edges if bits[u] != bits[v])
            assert q.value(bits) == pytest.approx(-cut, abs=1e-12)

    def test_triangle(self):
        q = qubo_from_maxcut([(0, 1), (1, 2), (0, 2)])
        assert brute_force_qubo_min(q.q, q.offset) == -2

    def test_empty_graph_rejected(self):
        with pytest.raises(ModelError):
            qubo_from_maxcut([])

    def test_networkx_input(self):
        import networkx as nx

        pg = nx.Graph()
        pg.add_nodes_from(range(6))
        pg.add_edges_from(DEMO6_EDGES)
        q = qubo_from_maxcut(pg)
        assert brute_force_qubo_min(q.q, q.offset) == -6


class TestNumberPartition:
    def test_reference_list_has_perfect_partition(self):
        q = qubo_from_number_partition([13, 7, 5, 2, 34, 21, 9, 45])
        assert brute_force_qubo_min(q.q, q.offset) == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_pair(self):
        q = qubo_from_number_partition([1, 1])
        assert brute_force_qubo_min(q.q, q.offset) == pytest.approx(0.0)

    def test_odd_residue(self):
        q = qubo_from_number_partition([3, 1, 1])
        assert brute_force_qubo_min(q.q, q.offset) == pytest.approx(1.0)

    def test_objective_is_squared_residue(self):
        nums = [4, 7, 2]
        q = qubo_from_number_partition(nums)
        for bits in itertools.product((0, 1), repeat=3):
            s = sum(v if b else -v for v, b in zip(nums, bits))
            assert q.value(bits) == pytest.approx(s * s, abs=1e-9)

    def test_rejects_bad_input(self):
        with pytest.raises(ModelError):
            qubo_from_number_partition([])
        with pytest.raises(ModelError):
            qubo_from_number_partition([3, -1])

    @pytest.mark.parametrize("exponent", [200, 400, 5000])
    def test_rejects_numbers_whose_coefficients_overflow(self, exponent):
        with pytest.raises(ModelError, match=r"numbers\[1\] is too large"):
            qubo_from_number_partition([3, 10**exponent])

    def test_numpy_integers_do_not_wrap(self):
        wide = qubo_from_number_partition([np.int64(10**10), np.int64(3)])
        exact = qubo_from_number_partition([10**10, 3])
        assert np.array_equal(wide.q, exact.q) and wide.offset == exact.offset


class TestGraphColoring:
    def test_triangle_three_colors(self):
        q = qubo_from_graph_coloring(TRIANGLE, 3)
        assert brute_force_qubo_min(q.q, q.offset) == pytest.approx(0.0)

    def test_triangle_two_colors(self):
        q = qubo_from_graph_coloring(TRIANGLE, 2)
        assert brute_force_qubo_min(q.q, q.offset) == pytest.approx(1.0)

    def test_single_node_one_color(self):
        import networkx as nx

        pg = nx.Graph()
        pg.add_node(0)
        q = qubo_from_graph_coloring(pg, 1)
        assert q.value((1,)) == pytest.approx(0.0)
        assert brute_force_qubo_min(q.q, q.offset) == pytest.approx(0.0)

    def test_variable_layout(self):
        # variable v*k+c: coloring vertex v with color c must zero the penalty
        q = qubo_from_graph_coloring([(0, 1)], 2)
        x = [0, 0, 0, 0]
        x[0 * 2 + 0] = 1  # vertex 0 -> color 0
        x[1 * 2 + 1] = 1  # vertex 1 -> color 1
        assert q.value(x) == pytest.approx(0.0)

    def test_zero_colors_rejected(self):
        with pytest.raises(ModelError):
            qubo_from_graph_coloring([(0, 1)], 0)


TRIANGLE = [(0, 1), (1, 2), (0, 2)]


class TestSetPacking:
    def test_three_sets(self):
        q = qubo_from_set_packing([{1}, {2}, {1, 2}], penalty=2.0)
        assert q.sense == "max"
        assert brute_force_qubo_min(q.q, q.offset) == pytest.approx(-2.0)

    def test_single_set(self):
        q = qubo_from_set_packing([{1}], penalty=2.0)
        assert brute_force_qubo_min(q.q, q.offset) == pytest.approx(-1.0)

    def test_identical_sets_conflict(self):
        q = qubo_from_set_packing([{1}, {1}], penalty=2.0)
        assert brute_force_qubo_min(q.q, q.offset) == pytest.approx(-1.0)

    def test_penalty_must_dominate(self):
        with pytest.raises(ConfigError):
            qubo_from_set_packing([{1}], penalty=1.0)

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf")])
    def test_penalty_must_be_finite(self, penalty):
        with pytest.raises(ConfigError, match="penalty"):
            qubo_from_set_packing([{1}], penalty=penalty)

    @pytest.mark.parametrize("element", [-1, 1.5])
    def test_element_must_be_a_non_negative_integer(self, element):
        with pytest.raises(ModelError, match=f"element {element!r} "):
            qubo_from_set_packing([{0}, {element}])

    def test_elements_need_no_universe_bound(self):
        q = qubo_from_set_packing([{10**6}, {10**6, 3}, {3}])
        assert brute_force_qubo_min(q.q, q.offset) == pytest.approx(-2.0)


class TestIsingConversion:
    def test_worked_two_by_two(self):
        g = weight_graph_from_qubo(QuboMatrix(q=np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert g.edges == [(0, 1, 0.5)]
        assert np.allclose([w for _, w in g.nodes], [0.5, 0.5])
        assert g.offset == pytest.approx(0.5)

    def test_zero_matrix(self):
        g = weight_graph_from_qubo(QuboMatrix(q=np.zeros((3, 3))))
        assert g.edges == [] and np.allclose([w for _, w in g.nodes], 0) and g.offset == 0

    def test_single_diagonal(self):
        g = weight_graph_from_qubo(QuboMatrix(q=np.array([[1.0]])))
        assert [w for _, w in g.nodes][0] == pytest.approx(0.5)
        assert g.offset == pytest.approx(0.5)
        assert g.energy([-1]) + g.offset == pytest.approx(0.0)
        assert g.energy([1]) + g.offset == pytest.approx(1.0)

    @given(st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=60)
    def test_energy_identity_random(self, n, seed):
        rng = np.random.default_rng(seed)
        qubo = QuboMatrix(q=rng.normal(size=(n, n)), offset=float(rng.normal()))
        g = weight_graph_from_qubo(qubo)
        for bits in itertools.product((0, 1), repeat=n):
            spins = [2 * b - 1 for b in bits]
            assert g.energy(spins) + g.offset == pytest.approx(
                qubo.value(bits), abs=1e-12
            )


class TestWeightGraph:
    def test_direct_transcription(self):
        # J = 0.5, h = (0.5, 0.5), offset 0.5 become one edge and two node weights
        g = weight_graph_from_qubo(QuboMatrix(q=np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert g.nodes == [(0, 0.5), (1, 0.5)]
        assert g.edges == [(0, 1, 0.5)]
        assert g.offset == 0.5

    def test_bias_only_graph_is_edgeless(self):
        g = weight_graph_from_qubo(QuboMatrix(q=np.diag([2.0, -4.0, 0.0])))
        assert [w for _, w in g.nodes] == [1.0, -2.0, 0.0]
        assert g.edges == []
        assert g.n == 3  # zero-weight nodes retained

    def test_complete_coupling_gives_k3(self):
        q = 2.0 * (np.ones((3, 3)) - np.eye(3))
        g = weight_graph_from_qubo(QuboMatrix(q=q))
        assert g.edges == [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]

    def test_zero_couplings_are_not_edges(self):
        q = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        g = weight_graph_from_qubo(QuboMatrix(q=q))
        assert g.edges == [(0, 1, 0.5)]

    def test_matches_elementwise_substitution(self):
        # the substitution written term by term, as a reference for the
        # vectorized transform: equal bit for bit on dyadic coefficients
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            q = rng.integers(-16, 17, size=(n, n)) / 8.0
            qubo = QuboMatrix(q=q, offset=float(rng.integers(-8, 9)) / 4.0)
            qs = qubo.q
            h = [qs[i, i] / 2.0 for i in range(n)]
            offset = qubo.offset + sum(qs[i, i] / 2.0 for i in range(n))
            edges = []
            for i, j in itertools.combinations(range(n), 2):
                c = (qs[i, j] + qs[j, i]) / 4.0
                h[i] += c
                h[j] += c
                offset += c
                if c != 0.0:
                    edges.append((i, j, c))
            g = weight_graph_from_qubo(qubo)
            assert [w for _, w in g.nodes] == h
            assert g.edges == edges
            assert g.offset == offset

    def test_graph_energy_matches_qubo_for_builders(self):
        # end-to-end energy identity through both conversion hops
        builders = [
            qubo_from_maxcut(DEMO6_EDGES),
            qubo_from_number_partition([3, 1, 1]),
            qubo_from_graph_coloring(TRIANGLE, 2),
            qubo_from_set_packing([{1}, {2}, {1, 2}], penalty=2.0),
        ]
        for qubo in builders:
            g = weight_graph_from_qubo(qubo)
            for bits in itertools.product((0, 1), repeat=qubo.n):
                spins = [2 * b - 1 for b in bits]
                assert g.energy(spins) + g.offset == pytest.approx(
                    qubo.value(bits), abs=1e-12
                )
