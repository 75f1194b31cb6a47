"""Expectations, light-cone decomposition and the parameter optimizers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quchain import (
    QaoaParams,
    WeightGraph,
    build_qaoa_circuit,
    decompose,
    energy_table,
    expectation_decomposed,
    interp_initialize,
    optimize,
    simulate,
)
from quchain.simulator import diagonal, qaoa_state

from conftest import (
    graph_energy_min_max,
    random_graph,
    random_qaoa_params,
)
from oracles import expectation_full, row_energies


def edge_expectation_oracle(gamma, beta, j):
    """Analytic p=1 single-edge <ZZ>, derived independently of the simulator:
    conjugating ZZ by the mixer leaves cross terms Z(x)Y whose RZZ rotation
    contributes sin(2*gamma*J), weighted by 2 sin(2b)cos(2b) = sin(4b)."""
    return np.sin(4.0 * beta) * np.sin(2.0 * gamma * j)


class TestEnergyOfBitstring:
    def test_k2_aligned(self, k2_graph):
        assert k2_graph.energy([1, 1]) == 1.0

    def test_k2_anti_aligned(self, k2_graph):
        assert k2_graph.energy([1, -1]) == -1.0

    def test_demo6_partition_energy(self, demo6_graph):
        spins = [1, -1, 1, 1, -1, 1]  # partition {1,4}
        assert demo6_graph.energy(spins) == pytest.approx(-2.5)
        assert demo6_graph.energy(spins) + demo6_graph.offset == pytest.approx(-6.0)

    def test_length_mismatch(self, demo6_graph):
        with pytest.raises(ValueError):
            demo6_graph.energy([1, -1])


class TestScoring:
    """``WeightGraph.energies`` and ``WeightGraph.objective``, the one copy of
    each scoring rule that ``energy``, ``process_results`` and ``solve`` use."""

    @pytest.mark.parametrize("seed", range(8))
    def test_energies_equal_the_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))

        def draw():
            return float(rng.choice([0.1, 0.3, 1 / 3, -0.7]) if seed % 2 else rng.normal())

        edges = [(u, v, draw()) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        nodes = [(i, draw() if rng.random() < 0.5 else 0.0) for i in range(n)]
        g = WeightGraph(nodes=nodes, edges=edges, offset=float(rng.normal()))
        spins = 1 - 2 * rng.integers(0, 2, size=(int(rng.integers(1, 40)), n))
        assert repr(g.energies(spins).tolist()) == repr(row_energies(g, spins.tolist()))

    def test_edgeless_graph_energies_are_the_node_sums(self):
        g = WeightGraph(nodes=[(0, 0.1), (1, 0.0), (2, -1 / 3)])
        spins = [[1, 1, 1], [-1, 1, 1], [1, -1, -1], [-1, -1, -1]]
        assert repr(g.energies(spins).tolist()) == repr(row_energies(g, spins))

    @pytest.mark.parametrize("shape", [(3, 5), (3, 7), (6,)])
    def test_energies_reject_a_width_other_than_n(self, demo6_graph, shape):
        with pytest.raises(ValueError, match="6 spins"):
            demo6_graph.energies(np.ones(shape))

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_objective_folds_negative_zero(self, sense):
        g = WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 0.0)])
        for energy in (0.0, -0.0):
            value = g.objective(energy, sense)
            assert value == 0.0 and not np.signbit(value)
        values = g.objective(np.array([0.0, -0.0]), sense)
        assert values.tolist() == [0.0, 0.0] and not np.signbit(values).any()

    def test_objective_adds_offset_and_negates_max(self):
        g = WeightGraph(nodes=[(0, 0.0)], offset=2.5)
        assert g.objective(1.0, "min") == 3.5
        assert g.objective(1.0, "max") == -3.5
        assert g.objective(np.array([1.0, -2.5]), "max").tolist() == [-3.5, 0.0]

    def test_objective_rejects_an_unknown_sense(self, k2_graph):
        with pytest.raises(ValueError, match=r"^sense must be 'min' or 'max', got 'maximize'$"):
            k2_graph.objective(0.0, "maximize")


class TestExpectationFull:
    def test_zero_angles_give_zero(self, demo6_graph):
        e = expectation_full(demo6_graph, QaoaParams(gamma=(0.0,), beta=(0.0,)))
        assert e == pytest.approx(0.0, abs=1e-12)

    def test_single_edge_matches_analytic(self, k2_graph):
        for gamma, beta in [(np.pi / 8, np.pi / 8), (0.3, 0.2), (1.1, 0.7), (2.0, 1.2)]:
            e = expectation_full(k2_graph, QaoaParams(gamma=(gamma,), beta=(beta,)))
            assert e == pytest.approx(edge_expectation_oracle(gamma, beta, 1.0), abs=1e-12)

    def test_weighted_edge_matches_analytic(self):
        g = WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 0.5)])
        e = expectation_full(g, QaoaParams(gamma=(0.9,), beta=(0.4,)))
        assert e == pytest.approx(0.5 * edge_expectation_oracle(0.9, 0.4, 0.5), abs=1e-12)

    def test_beta_zero_uniform_magnitudes(self, demo6_graph):
        e = expectation_full(demo6_graph, QaoaParams(gamma=(0.8,), beta=(0.0,)))
        assert e == pytest.approx(0.0, abs=1e-12)

    def test_bounds_by_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            g = random_graph(rng, 2, 6)
            lo, hi = graph_energy_min_max(g)
            params = random_qaoa_params(rng, int(rng.integers(1, 3)))
            e = expectation_full(g, params)
            assert lo - 1e-9 <= e <= hi + 1e-9

    def test_cost_layer_commutation(self):
        # permuting RZZ/RZ gates inside one cost layer leaves the state unchanged
        rng = np.random.default_rng(5)
        g = random_graph(rng, 4, 6)
        params = random_qaoa_params(rng, 1)
        circ = build_qaoa_circuit(g, params)
        ref = simulate(circ)
        diag = [gt for gt in circ.gates if gt.kind in ("rzz", "rz")]
        others = [gt for gt in circ.gates if gt.kind not in ("rzz", "rz")]
        n_h = g.n  # H block first, then shuffled diagonal block, then mixers

        shuffled = list(diag)
        rng.shuffle(shuffled)
        resim = simulate(
            type(circ)(n=g.n, gates=others[:n_h] + shuffled + others[n_h:])
        )
        assert np.max(np.abs(ref - resim)) < 1e-9


def _ring(n: int) -> WeightGraph:
    return WeightGraph(nodes=[(i, 0.0) for i in range(n)],
                       edges=[(i, (i + 1) % n, 1.0 + 0.01 * i) for i in range(n)])


def _kept(cones) -> list[bool]:
    """Per cone, whether the evaluator keeps its arrays: a cone in a stack
    with no blocks rebuilds them on every evaluation."""
    import quchain.engine as engine

    kept = [False] * len(cones)
    for stack in engine._ConeStacks(cones).stacks:
        for i in stack[0]:
            kept[i] = stack[2] is not None
    return kept


class TestDecomposition:
    def test_path_one_hop_closure(self):
        g = WeightGraph(nodes=[(0, 0.0), (1, 0.0), (2, 0.0)], edges=[(0, 1, 1.0), (1, 2, 1.0)])
        cones = decompose(g, 1)
        first = next(c for c in cones if ((0, 1), 1.0) in c.terms)
        assert first.index_map == (0, 1, 2)
        assert first.subgraph.n == 3

    def test_edgeless_graph_single_vertex_terms(self):
        g = WeightGraph(nodes=[(0, 1.0), (1, 0.0), (2, -0.5)], edges=[])
        cones = decompose(g, 1)
        assert len(cones) == 2  # only nonzero-weight nodes
        assert all(c.subgraph.n == 1 for c in cones)

    def test_ring_of_eight(self):
        # Eight 4-qubit cones cost 8 * 2**4 = 128 < 2**8: the cones stay.
        cones = decompose(_ring(8), 1)
        assert len(cones) == 8
        for c in cones:
            assert c.subgraph.n == 4  # 1-hop closure of an edge on a ring is a 4-path
            assert len(c.subgraph.edges) == 3

    def test_subproblem_count(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_graph(rng, 2, 8)
            cones = decompose(g, 1)
            terms = [t for c in cones for t in c.terms]
            # every Hamiltonian term covered exactly once
            expected = [((u, v), w) for u, v, w in g.edges]
            expected += [((i,), w) for i, w in g.nodes if w != 0.0]
            assert sorted(terms) == sorted(expected)
            # distinct cones
            assert len({c.index_map for c in cones}) == len(cones)

    def test_matches_full_expectation(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            g = random_graph(rng, 2, 8)
            p = int(rng.integers(1, 3))
            params = random_qaoa_params(rng, p)
            full = expectation_full(g, params)
            split = expectation_decomposed(g, params)
            assert split == pytest.approx(full, abs=1e-9)

    def test_k2_single_subproblem(self, k2_graph):
        cones = decompose(k2_graph, 1)
        assert len(cones) == 1
        assert cones[0].subgraph.n == 2

    def test_disconnected_union_is_additive(self):
        ga = WeightGraph(nodes=[(0, 0.3), (1, 0.0)], edges=[(0, 1, 0.8)])
        gb = WeightGraph(nodes=[(0, 0.0), (1, -0.4)], edges=[(0, 1, -0.6)])
        union = WeightGraph(
            nodes=[(0, 0.3), (1, 0.0), (2, 0.0), (3, -0.4)],
            edges=[(0, 1, 0.8), (2, 3, -0.6)],
        )
        params = QaoaParams(gamma=(0.7,), beta=(0.3,))
        assert expectation_decomposed(union, params) == pytest.approx(
            expectation_full(ga, params) + expectation_full(gb, params), abs=1e-12
        )

    def test_oversized_light_cone_names_the_term(self):
        from quchain import CapacityError

        star = WeightGraph(
            nodes=[(i, 0.0) for i in range(30)],
            edges=[(0, i, 1.0) for i in range(1, 30)],
        )
        params = QaoaParams(gamma=(0.2,), beta=(0.1,))
        with pytest.raises(CapacityError) as err:
            expectation_decomposed(star, params)
        assert "(0, 1)" in str(err.value)

    def test_terms_with_one_cone_share_it(self):
        k8 = WeightGraph(
            nodes=[(i, 0.1 * i) for i in range(8)],
            edges=[(u, v, 1.0 + u - v) for u in range(8) for v in range(u + 1, 8)],
        )
        cones = decompose(k8, 1)
        assert len(cones) == 1
        assert len(cones[0].terms) == 28 + 7
        params = QaoaParams(gamma=(0.4,), beta=(0.3,))
        assert expectation_decomposed(k8, params) == pytest.approx(
            expectation_full(k8, params), abs=1e-12
        )

    def test_dense_graph_memory_does_not_grow_with_term_count(self):
        import tracemalloc

        k14 = WeightGraph(
            nodes=[(i, 0.0) for i in range(14)],
            edges=[(u, v, 1.0) for u in range(14) for v in range(u + 1, 14)],
        )
        params = QaoaParams(gamma=(0.4,), beta=(0.3,))
        tracemalloc.start()
        try:
            expectation_decomposed(k14, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One 14-qubit cone for all 91 terms: a few 2**14 arrays, not 91 pairs.
        assert peak < 40 * (1 << 14) * 8

    def test_cones_beyond_the_budget_are_rebuilt(self, monkeypatch):
        import quchain.engine as engine

        ring = WeightGraph(
            nodes=[(i, 0.3 if i % 3 == 0 else 0.0) for i in range(24)],
            edges=[(i, (i + 1) % 24, 1.0 - 0.05 * i) for i in range(24)],
        )
        params = QaoaParams(gamma=(0.4, 0.8, 0.2), beta=(0.3, 0.1, 0.5))
        cached = expectation_decomposed(ring, params)
        budget = 5 * 16 * (1 << 8)  # five 8-qubit cones
        monkeypatch.setattr(engine, "CONE_CACHE_BYTES", budget)
        cones = decompose(ring, 3)
        kept = [c for c, k in zip(cones, _kept(cones)) if k]
        assert len(kept) == 5 < len(cones)
        assert sum(16 << c.subgraph.n for c in kept) <= budget
        assert expectation_decomposed(ring, params) == cached  # same arithmetic


def _sparse_graph(rng, n: int) -> WeightGraph:
    """Random graph of mean degree about 2.4 with normal weights and fields."""
    edges = [(u, v, float(rng.normal()))
             for u in range(n) for v in range(u + 1, n) if rng.random() < 2.4 / n]
    nodes = [(i, float(rng.normal()) if rng.random() < 0.5 else 0.0) for i in range(n)]
    return WeightGraph(nodes=nodes, edges=edges)


class TestWholeGraphRule:
    """``decompose`` returns one whole-graph cone when the distinct cones
    together hold more amplitudes than the register, Σ 2**|cone| > 2**n,
    and the register fits the simulator."""

    def test_ring_of_six_is_one_cone(self, monkeypatch):
        import quchain.engine as engine

        g = _ring(6)  # six 4-qubit cones: 6 * 2**4 = 96 > 2**6
        (cone,) = decompose(g, 1)
        assert cone.index_map == tuple(range(6))
        assert list(cone.terms) == engine._terms(g)
        assert cone.subgraph == g and _kept([cone]) == [True]
        monkeypatch.setattr(engine, "CONE_CACHE_BYTES", 0)
        assert _kept(decompose(g, 1)) == [False]  # the cache rule still decides

    def test_whole_graph_observable_is_its_cost_diagonal(self):
        import quchain.engine as engine

        (stack,) = engine._ConeStacks(decompose(_ring(6), 1)).stacks
        tables, observables = stack[2]
        assert np.shares_memory(tables, observables)
        assert np.array_equal(observables[0, :, 0], diagonal(6, engine._terms(_ring(6))))

    def test_whole_graph_cone_counts_one_array_against_the_cache(self, monkeypatch):
        import quchain.engine as engine

        monkeypatch.setattr(engine, "CONE_CACHE_BYTES", 8 << 6)
        assert _kept(decompose(_ring(6), 1)) == [True]
        monkeypatch.setattr(engine, "CONE_CACHE_BYTES", (8 << 6) - 1)
        assert _kept(decompose(_ring(6), 1)) == [False]

    def test_budget_counts_what_the_stacks_store(self, monkeypatch):
        import quchain.engine as engine

        # Five disjoint K4s at p=1: each is one cone serving every term of
        # its subgraph, so it stores its cost diagonal alone, 8 << 4 bytes.
        k4s = WeightGraph(
            nodes=[(i, 0.1 * i) for i in range(20)],
            edges=[(4 * c + u, 4 * c + v, 1.0 + 0.1 * c + 0.01 * (u + v))
                   for c in range(5) for u in range(4) for v in range(u + 1, 4)],
        )
        points = [QaoaParams(gamma=(0.4,), beta=(0.3,)), QaoaParams(gamma=(1.1,), beta=(0.2,))]
        at_default = engine._Objective(k4s, 2).batch(points)
        cones = decompose(k4s, 1)
        assert len(cones) == 5
        for budget, kept in ((5 * (8 << 4), [True] * 5), (5 * (8 << 4) - 1, [True] * 4 + [False])):
            monkeypatch.setattr(engine, "CONE_CACHE_BYTES", budget)
            assert _kept(cones) == kept
            assert engine._Objective(k4s, 2).batch(points) == at_default

    def test_three_regular_graph_keeps_its_cones(self):
        import networkx as nx

        reg3 = nx.random_regular_graph(3, 16, seed=3)
        g = WeightGraph(nodes=[(i, 0.0) for i in range(16)],
                        edges=[(u, v, 1.0) for u, v in reg3.edges()])
        cones = decompose(g, 1)
        assert len(cones) == 24
        assert sum(1 << c.subgraph.n for c in cones) <= 1 << 16

    def test_register_above_the_limit_keeps_its_cones(self):
        from quchain import CapacityError
        from quchain.simulator import QUBIT_LIMIT

        # Each edge of a 25-ring has a 24-qubit cone at p=11: 25 * 2**24 > 2**25,
        # but the whole register would not fit the simulator.
        assert QUBIT_LIMIT == 24
        cones = decompose(_ring(25), 11)
        assert len(cones) == 25
        assert {c.subgraph.n for c in cones} == {24}
        with pytest.raises(CapacityError, match="25-qubit light cone"):
            decompose(_ring(25), 12)  # a cone above the limit still raises

    @pytest.mark.parametrize("p", [1, 2])
    def test_cone_route_matches_full_expectation(self, p):
        rng = np.random.default_rng(160 + p)
        checked = 0
        while checked < 6:
            g = _sparse_graph(rng, int(rng.integers(10, 15)))
            cones = decompose(g, p)
            if any(c.subgraph.n == g.n for c in cones):
                continue  # a whole-graph cone, by the rule or by reach
            params = random_qaoa_params(rng, p)
            full = expectation_full(g, params)
            split = expectation_decomposed(g, params)
            assert split == pytest.approx(full, abs=1e-9)
            checked += 1


class TestQaoaStateKernel:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_gate_by_gate_simulation(self, p):
        rng = np.random.default_rng(40 + p)
        for _ in range(20):
            g = random_graph(rng, 1, 7)
            params = random_qaoa_params(rng, p)
            kernel = qaoa_state(energy_table(g), [params])[0]
            reference = simulate(build_qaoa_circuit(g, params))
            assert np.max(np.abs(kernel - reference)) <= 1e-12  # no phase alignment


def _dyadic_graph(rng, n: int, density: float = 0.6) -> WeightGraph:
    """Random graph with node fields; multiples of 1/8 keep every sum exact."""
    edges = [(u, v, int(rng.integers(-16, 17)) / 8.0)
             for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    nodes = [(i, int(rng.integers(-8, 9)) / 8.0) for i in range(n)]
    return WeightGraph(nodes=nodes, edges=edges)


class TestEnergyTable:
    def test_table_matches_energy(self, demo6_graph):
        rng = np.random.default_rng(33)
        graphs = [
            demo6_graph,
            *(_dyadic_graph(rng, n) for n in (2, 3, 5, 7, 9)),
            WeightGraph(nodes=[(0, 0.5), (1, 0.0), (2, -1.25)], edges=[]),  # edgeless
            WeightGraph(nodes=[(0, -0.75)], edges=[]),
        ]
        for g in graphs:
            table = energy_table(g)
            assert table.shape == (1 << g.n,)
            for z in range(1 << g.n):
                spins = [1 - 2 * ((z >> i) & 1) for i in range(g.n)]
                assert table[z] == g.energy(spins)


class TestInterp:
    def test_depth_one_to_two(self):
        params = QaoaParams(gamma=(0.7,), beta=(0.2,))
        out = interp_initialize(params)
        assert out.gamma == pytest.approx((0.7, 0.7))
        assert out.beta == pytest.approx((0.2, 0.2))

    def test_zero_params(self):
        out = interp_initialize(QaoaParams(gamma=(0.0, 0.0), beta=(0.0, 0.0)))
        assert out.gamma == (0.0, 0.0, 0.0)

    def test_depth_two_to_three(self):
        out = interp_initialize(QaoaParams(gamma=(0.4, 0.9), beta=(0.1, 0.3)))
        assert out.gamma == pytest.approx((0.4, 0.65, 0.9))
        assert out.beta == pytest.approx((0.1, 0.2, 0.3))


class TestOptimize:
    def test_importing_quchain_skips_scipy_optimize(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = "import sys, quchain, quchain.cli; assert 'scipy.optimize' not in sys.modules"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_simplex_refines_to_tolerance(self):
        g = WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 0.5)])
        res = optimize(g, p=1, method="grid+simplex", seed=1)
        assert res.energy == pytest.approx(-0.5, abs=1e-4)
        assert res.converged

    def test_zero_graph_returns_init(self):
        g = WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 0.0)])
        res = optimize(g, p=1)
        assert res.energy == 0.0

    def test_edgeless_zero_graph_has_no_cones_and_zero_energy(self):
        g = WeightGraph(nodes=[(0, 0.0)], edges=[])
        assert decompose(g, 1) == []
        e = expectation_decomposed(g, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        assert e == 0.0 and isinstance(e, float)
        res = optimize(g, p=2, grid_size=4)
        assert res.energy == 0.0 and isinstance(res.energy, float)
        assert all(isinstance(e, float) for _, e in res.trace)

    def test_large_grid_builds_only_the_points_in_budget(self, k2_graph):
        import quchain.engine as engine

        res = optimize(k2_graph, p=1, grid_size=20000, max_evals=100)
        # 33 whole lines and the evaluation of the lowest line minimum: the scan
        # spends the budget, so no line search runs.
        assert res.evaluations == 100 and not res.converged
        gammas = (np.arange(33) + 0.5) * (np.pi / 20000)
        assert [params for params, _ in res.trace[:99]] == [
            QaoaParams(gamma=(gm,), beta=(bt,)) for gm in gammas for bt in engine.LINE_BETAS]
        assert res.trace[99][0].gamma == (gammas[-1],)  # the lines deepen with gamma

    @pytest.mark.parametrize("max_evals", [1, 2, 3])
    def test_budget_below_one_line_at_depth_two_raises(self, k2_graph, max_evals):
        with pytest.raises(ValueError, match="no depth-p evaluations"):
            optimize(k2_graph, p=2, max_evals=max_evals)

    def test_budget_spent_by_the_interpolated_point_runs_no_simplex(self):
        # Depth 1 spends four evaluations (one line and its minimum) and depth
        # 2 the fifth on the interpolated point; the simplex then has none
        # left, so it evaluates nothing and the run is not converged.
        path3 = WeightGraph(nodes=[(0, 0.0), (1, 0.0), (2, 0.0)],
                            edges=[(0, 1, 1.0), (1, 2, 1.0)])
        res = optimize(path3, p=2, grid_size=1, max_evals=5)
        assert res.evaluations == len(res.trace) == 5 and not res.converged
        assert [len(params.gamma) for params, _ in res.trace] == [1, 1, 1, 1, 2]

    def test_deterministic_under_seed(self, k2_graph):
        a = optimize(k2_graph, p=1, method="grid+simplex", seed=5)
        b = optimize(k2_graph, p=1, method="grid+simplex", seed=5)
        assert a.params == b.params and a.energy == b.energy

    def test_budget_exhaustion_flags_nonconverged(self, k2_graph):
        res = optimize(k2_graph, p=1, method="grid+simplex", max_evals=50)
        assert not res.converged
        assert res.evaluations <= 50
        assert np.isfinite(res.energy)

    def test_interp_chain_improves_depth_two(self, demo6_graph):
        res1 = optimize(demo6_graph, p=1, method="grid+simplex", seed=1, grid_size=16)
        res2 = optimize(demo6_graph, p=2, method="grid+simplex", seed=1, grid_size=16)
        assert res2.params.p == 2
        assert res2.energy <= res1.energy + 1e-9

    def test_decomposes_once_per_depth(self, demo6_graph, monkeypatch):
        import quchain.engine as engine

        depths = []

        def counting_decompose(g, p):
            depths.append(p)
            return decompose(g, p)

        monkeypatch.setattr(engine, "decompose", counting_decompose)
        res = optimize(demo6_graph, p=3, seed=2, grid_size=4)
        assert res.evaluations > 3
        assert depths == [1, 2, 3]

    def test_keeps_only_the_current_depths_cones(self, demo6_graph, monkeypatch):
        import weakref

        import quchain.engine as engine

        refs = {}

        def tracking_decompose(g, p):
            # Cones of depths below p - 1 must be gone before depth p is built.
            assert all(r() is None for d, rs in refs.items() if d < p - 1 for r in rs)
            cones = decompose(g, p)
            refs[p] = [weakref.ref(c) for c in cones]
            return cones

        monkeypatch.setattr(engine, "decompose", tracking_decompose)
        optimize(demo6_graph, p=3, seed=2, grid_size=4)
        assert sorted(refs) == [1, 2, 3]
        assert all(r() is None for rs in refs.values() for r in rs)

    @pytest.mark.parametrize("kwargs,name", [
        ({"p": 0}, "p"), ({"p": -2}, "p"), ({"grid_size": 0}, "grid_size"),
        ({"grid_size": -3}, "grid_size"), ({"max_evals": 0}, "max_evals"),
    ])
    def test_rejects_bad_numeric_arguments(self, k2_graph, monkeypatch, kwargs, name):
        import quchain.engine as engine

        def no_evaluation(*args):
            pytest.fail("optimize evaluated before rejecting its arguments")

        monkeypatch.setattr(engine, "decompose", no_evaluation)
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            optimize(k2_graph, **kwargs)

    @pytest.mark.parametrize("kwargs,name", [
        ({"p": 1.5}, "p"), ({"p": True}, "p"),
        ({"grid_size": 2.5}, "grid_size"), ({"grid_size": True}, "grid_size"),
        ({"max_evals": float("nan")}, "max_evals"), ({"max_evals": 2.5}, "max_evals"),
        ({"max_evals": True}, "max_evals"),
        ({"p": "2"}, "p"), ({"grid_size": None}, "grid_size"), ({"max_evals": "100"}, "max_evals"),
    ])
    def test_rejects_malformed_arguments(self, k2_graph, monkeypatch, kwargs, name):
        import quchain.engine as engine

        def no_evaluation(*args):
            pytest.fail("optimize evaluated before rejecting its arguments")

        monkeypatch.setattr(engine, "decompose", no_evaluation)
        with pytest.raises(ValueError, match=f"^{name} "):
            optimize(k2_graph, **{"grid_size": 4, **kwargs})

    @pytest.mark.parametrize("gamma,beta,name", [
        ((float("nan"),), (0.1,), "gamma"), ((0.2,), (float("inf"),), "beta"),
        ((0.2, float("-inf")), (0.1, 0.3), "gamma"),
    ])
    def test_params_reject_non_finite_angles(self, gamma, beta, name):
        k = len(gamma) - 1  # the bad angle is last, and gamma and beta are as long
        with pytest.raises(ValueError, match=rf"^{name}\[{k}\]: expected a finite number"):
            QaoaParams(gamma=gamma, beta=beta)


def _cone_by_cone(g: WeightGraph, params: QaoaParams) -> float:
    """The light-cone energy one point and one cone at a time: a 1-D kernel
    call and one dot per cone, summed in cone order.  The observable is the
    energy table of the cone's own terms, exact for dyadic weights."""
    energies = []
    for cone in decompose(g, params.p):
        pos = {orig: i for i, orig in enumerate(cone.index_map)}
        fields = {pos[s[0]]: w for s, w in cone.terms if len(s) == 1}
        terms = WeightGraph(
            nodes=[(i, fields.get(i, 0.0)) for i in range(cone.subgraph.n)],
            edges=[(pos[s[0]], pos[s[1]], w) for s, w in cone.terms if len(s) == 2],
        )
        state = qaoa_state(energy_table(cone.subgraph), [params])[0]
        energies.append(float(np.abs(state) ** 2 @ energy_table(terms)))
    return sum(energies)


def _mixed_width_graphs():
    """Seeded sparse dyadic graphs with fields whose cones span several widths
    at p=1 and more than one at p=2, where the whole-graph rule does not fire."""
    rng = np.random.default_rng(909)
    graphs = []
    while len(graphs) < 6:
        g = _dyadic_graph(rng, int(rng.integers(6, 11)), density=0.3)
        if (len({c.subgraph.n for c in decompose(g, 1)}) >= 3
                and len({c.subgraph.n for c in decompose(g, 2)}) >= 2):
            graphs.append(g)
    return graphs


class TestBatchedEvaluation:
    """The width stacks and the batched kernel against the cone-by-cone route."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_batch_equals_cone_by_cone(self, p):
        import quchain.engine as engine

        rng = np.random.default_rng(70 + p)
        for g in _mixed_width_graphs():
            points = [random_qaoa_params(rng, p) for _ in range(9)]
            if p == 1:  # and the three points that fix a p=1 line
                points += [QaoaParams(gamma=(0.7,), beta=(bt,)) for bt in engine.LINE_BETAS]
            reference = [_cone_by_cone(g, pt) for pt in points]
            assert engine._Objective(g, len(points)).batch(points) == reference
            assert [expectation_decomposed(g, pt) for pt in points] == reference

    def test_cones_beyond_the_budget_and_small_chunks(self, monkeypatch):
        import quchain.engine as engine

        rng = np.random.default_rng(77)
        for g in _mixed_width_graphs():
            cones = decompose(g, 2)
            # What the stacks store: one array for a cone serving every term
            # of its subgraph, two for any other.
            serves_all = [len(c.terms) == len(engine._terms(c.subgraph)) for c in cones]
            total = sum((8 if s else 16) << c.subgraph.n for c, s in zip(cones, serves_all))
            monkeypatch.setattr(engine, "CONE_CACHE_BYTES", total // 2)
            kept = _kept(cones)
            assert any(kept) and not all(kept)
            points = [random_qaoa_params(rng, 2) for _ in range(11)]  # several chunks
            reference = [_cone_by_cone(g, pt) for pt in points]
            assert engine._Objective(g, len(points)).batch(points) == reference
            monkeypatch.undo()

    def test_cones_beyond_the_budget_are_built_one_at_a_time(self, monkeypatch):
        import tracemalloc

        import quchain.engine as engine

        ring = _ring(40)
        params = QaoaParams(gamma=(0.3,) * 5, beta=(0.2,) * 5)
        monkeypatch.setattr(engine, "CONE_CACHE_BYTES", 0)
        cones = decompose(ring, 5)
        assert len(cones) == 40 and {c.subgraph.n for c in cones} == {12}
        assert not any(_kept(cones))
        tracemalloc.start()
        try:
            expectation_decomposed(ring, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One 12-qubit cone's arrays (64 KiB) and state with its temporaries
        # at a time, not the 40 cones' 2.5 MiB of arrays.
        assert peak < 1 << 20

    def test_budget_ending_mid_grid_matches_the_point_loop(self):
        import quchain.engine as engine

        g = _mixed_width_graphs()[0]
        # Six whole lines fit with one evaluation to spare, and no line search.
        res = optimize(g, p=1, method="grid+simplex", grid_size=8, max_evals=20)
        gammas = (np.arange(6) + 0.5) * (np.pi / 8)
        points = [QaoaParams(gamma=(gm,), beta=(bt,)) for gm in gammas for bt in engine.LINE_BETAS]
        assert res.trace[:18] == [(params, _cone_by_cone(g, params)) for params in points]
        last, e = res.trace[18]
        assert e == _cone_by_cone(g, last)
        assert (res.params, res.energy) == min(res.trace, key=lambda t: t[1])
        assert not res.converged and res.evaluations == 19
        # The last point is the lowest line minimum over the whole beta period.
        dense = [QaoaParams(gamma=(gm,), beta=(bt,))
                 for gm in gammas for bt in np.linspace(0.0, np.pi, 256, endpoint=False)]
        assert e <= min(engine._Objective(g, len(dense)).batch(dense)) + 1e-12

    @pytest.mark.parametrize("cap", ["CONE_CACHE_BYTES", "CHUNK_BYTES"])
    def test_grid_state_stays_within_the_byte_bound(self, monkeypatch, cap):
        import tracemalloc

        import quchain.engine as engine

        k12 = WeightGraph(
            nodes=[(i, 0.1 * i) for i in range(12)],
            edges=[(u, v, 1.0 + 0.01 * (u - v)) for u in range(12) for v in range(u + 1, 12)],
        )
        row = 16 << 12  # one point's complex 12-qubit state
        bound = 4 * row
        monkeypatch.setattr(engine, cap, bound)  # the smaller cap sets the chunk
        tracemalloc.start()
        try:
            res = optimize(k12, p=1, grid_size=8, max_evals=25)  # the scan alone
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.evaluations == 25  # eight lines in six chunks of four rows, then one point
        # The chunk's states and one temporary of their size (the phase factor
        # or mix's flipped copy), plus a fixed slack: the cone's table and
        # observable (one row), NumPy's iterator buffers (two operands of
        # 8192 complex elements, 256 KiB) and 128 KiB of trace and
        # bookkeeping.  All 24 rows at once would hold 1.5 MiB of state.
        assert peak <= 2 * bound + row + (256 << 10) + (128 << 10)
