"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance and time budget is asserted in the test body.
"""

import itertools
import time

import networkx as nx
import numpy as np
import pytest

from quchain import (
    LocalSampler,
    QaoaParams,
    WeightGraph,
    build_qaoa_circuit,
    build_template,
    compile_graph,
    emit,
    expectation_decomposed,
    optimize,
    parse,
    process_results,
    qubo_from_graph_coloring,
    qubo_from_maxcut,
    qubo_from_number_partition,
    qubo_from_set_packing,
    schedule,
    search_initial_mapping,
    simulate,
    simulate_gates,
    weight_graph_from_qubo,
)
from quchain.bench import cell_means, random_weight_graph, run_bench

from conftest import DEMO6_EDGES, random_graph, random_qaoa_params
from oracles import expectation_full, four_step_walk, permute_qubits, states_equal_up_to_phase


def report(num, label, elapsed, budget):
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s (budget {budget}s)"
    print(f"ACCEPTANCE {num:>2} PASS ({elapsed:6.2f}s / {budget}s): {label}")


def test_criterion_01_template_law():
    t0 = time.perf_counter()
    for n in range(2, 41):
        want = 2 * n - 2 if n % 2 == 0 else 2 * n - 1
        t = build_template(n)
        assert t.cycles == want
        # the last cycle holds a meeting, except n=2's second RZZ, which has no pair
        assert t.table.max() == (want if n > 2 else 1)
    report(1, "template cycle count is 2n-2 (even) / 2n-1 (odd) for n in [2,40]",
           time.perf_counter() - t0, 1.0)


def test_criterion_02_pair_completeness():
    t0 = time.perf_counter()
    for n in range(2, 13):
        table, _, _ = four_step_walk(n)  # asserts that no pair meets twice
        assert (table + np.eye(n, dtype=int) > 0).all(), f"a pair never meets at n={n}"
        assert (build_template(n).table == table).all()
    report(2, "template RZZ layers enumerate each pair exactly once (n <= 12)",
           time.perf_counter() - t0, 1.0)


def test_criterion_03_compiled_circuit_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(50):
        g = random_graph(rng, 2, 6)
        p = int(rng.integers(1, 3))
        params = random_qaoa_params(rng, p)
        pc = compile_graph(g, params)
        reference = simulate(build_qaoa_circuit(g, params))
        unpermuted = permute_qubits(
            simulate_gates(pc.n, list(pc.gates())), pc.final_layout
        )
        assert states_equal_up_to_phase(reference, unpermuted, 1e-9)
    report(3, "50 compiled circuits match uncompiled statevectors within 1e-9",
           time.perf_counter() - t0, 30.0)


def test_criterion_04_decomposition_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        pairs = list(itertools.combinations(range(n), 2))
        m = int(rng.integers(1, len(pairs) + 1)) if pairs else 0
        keep = rng.random(len(pairs)) < 0.35
        edges = [
            (*pairs[i], float(rng.normal()))
            for i in range(len(pairs))
            if keep[i]
        ][: max(1, m)]
        if not edges:
            edges = [(*pairs[int(rng.integers(len(pairs)))], 1.0)]
        nodes = [(i, float(rng.normal()) if rng.random() < 0.4 else 0.0) for i in range(n)]
        g = WeightGraph(nodes=nodes, edges=edges)
        p = int(rng.integers(1, 3))
        params = random_qaoa_params(rng, p)
        assert abs(
            expectation_decomposed(g, params) - expectation_full(g, params)
        ) < 1e-9
    report(4, "expectation_decomposed equals expectation_full on 200 graphs",
           time.perf_counter() - t0, 60.0)


def test_criterion_05_qubo_ising_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)

    def check(qubo):
        g = weight_graph_from_qubo(qubo)
        n = qubo.n
        assert n <= 12
        bits = np.array(list(itertools.product((0, 1), repeat=n)), dtype=float)
        qvals = np.einsum("bi,ij,bj->b", bits, qubo.q, bits) + qubo.offset
        spins = 2.0 * bits - 1.0
        ivals = np.full(len(bits), g.offset)
        ivals += spins @ np.array([w for _, w in g.nodes])
        for i, j, c in g.edges:
            ivals += c * spins[:, i] * spins[:, j]
        assert np.max(np.abs(qvals - ivals)) < 1e-12

    for _ in range(25):  # max cut
        n = int(rng.integers(2, 13))
        pg = nx.Graph()
        pg.add_nodes_from(range(n))
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.5:
                pg.add_edge(u, v, weight=float(rng.uniform(0.5, 2.0)))
        if pg.number_of_edges() == 0:
            pg.add_edge(0, 1, weight=1.0)
        check(qubo_from_maxcut(pg))
    for _ in range(25):  # number partition
        k = int(rng.integers(1, 13))
        check(qubo_from_number_partition([int(rng.integers(1, 50)) for _ in range(k)]))
    for _ in range(25):  # graph coloring, nv*k <= 12
        nv = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        pg = nx.Graph()
        pg.add_nodes_from(range(nv))
        pg.add_edges_from(
            (u, v) for u, v in itertools.combinations(range(nv), 2) if rng.random() < 0.5
        )
        check(qubo_from_graph_coloring(pg, k))
    for _ in range(25):  # set packing
        ns = int(rng.integers(1, 13))
        sets = [
            {int(e) for e in rng.choice(6, size=rng.integers(1, 4), replace=False)}
            for _ in range(ns)
        ]
        check(qubo_from_set_packing(sets, penalty=2.0))
    report(5, "energy identity f(x) = H(2x-1)+offset exact to 1e-12, 100 instances",
           time.perf_counter() - t0, 30.0)


def test_criterion_06_maxcut_demo_end_to_end():
    t0 = time.perf_counter()
    g = weight_graph_from_qubo(qubo_from_maxcut(DEMO6_EDGES))
    result = optimize(g, p=1, method="grid+simplex", seed=1)
    pc = compile_graph(g, result.params)
    counts = LocalSampler().run(emit(pc), 10000, seed=11)
    assert sum(counts.values()) == 10000
    ranked = process_results(counts, g, top=4, sense="max")

    # brute-force oracle: optimal cut value and partitions
    best_cut, opt_parts = None, set()
    for bits in itertools.product((0, 1), repeat=6):
        cut = sum(1 for u, v in DEMO6_EDGES if bits[u] != bits[v])
        if best_cut is None or cut > best_cut:
            best_cut, opt_parts = cut, set()
        if cut == best_cut:
            side = frozenset(i for i in range(6) if bits[i] == 1)
            opt_parts.add(frozenset({side, frozenset(range(6)) - side}))
    assert best_cut == 6 and len(opt_parts) == 2

    lowest = [r for r in ranked.rows if abs(r.energy - ranked.rows[0].energy) < 1e-12]
    sampled_parts = set()
    for r in lowest:
        side = frozenset(i for i, b in enumerate(r.bitstring) if b == "1")
        sampled_parts.add(frozenset({side, frozenset(range(6)) - side}))
    assert sampled_parts == opt_parts
    assert all(r.objective == pytest.approx(6.0) for r in lowest)

    # determinism of the whole pipeline
    counts2 = LocalSampler().run(emit(pc), 10000, seed=11)
    assert counts2 == counts
    report(6, "six-node max-cut demo recovers exactly the two max-cut partitions (cut 6)",
           time.perf_counter() - t0, 60.0)


def test_criterion_07_mapping_cost_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    for _ in range(100):  # predicted == realized
        g = random_graph(rng, 2, 10, weighted=False, with_bias=False)
        mapping, predicted = search_initial_mapping(g, g.n)
        sched = schedule(g, mapping, QaoaParams(gamma=(0.3,), beta=(0.2,)), n_positions=g.n)
        assert sched.cost_cycles == predicted  # p=1: the last RZZ cycle

    hits = 0
    for _ in range(100):  # heuristic within 2 cycles of the factorial optimum
        g = random_graph(rng, 2, 7, weighted=False, with_bias=False)
        n = g.n
        _, found = search_initial_mapping(g, n, b_max=5)
        exer = build_template(n).table if n >= 2 else None
        best = min(
            max((exer[p[u], p[v]] for u, v, _ in g.edges), default=0)
            for p in itertools.permutations(range(n))
        )
        assert found >= best  # search can never beat the optimum
        if found <= best + 2:
            hits += 1
    assert hits >= 90, f"only {hits}/100 within 2 cycles of optimal"
    report(7, f"predicted cycle exact on 100 graphs; {hits}/100 within 2 of optimum",
           time.perf_counter() - t0, 120.0)


def test_criterion_08_subchain_oracle():
    from quchain import ChipModel, Coupler, Qubit, build_subchain_library

    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    checked = 0
    while checked < 50:
        n = int(rng.integers(4, 11))
        couplers = [
            (a, b, float(rng.uniform(0.8, 0.999)))
            for a, b in itertools.combinations(range(n), 2)
            if rng.random() < 0.35
        ]
        if not couplers:
            continue
        chip = ChipModel(
            qubits=tuple(Qubit(i, 30.0, 3.0, 0.999) for i in range(n)),
            couplers=tuple(Coupler(a, b, f) for a, b, f in couplers),
        )
        lib = build_subchain_library(chip)

        # independent oracle: exhaustive simple-path argmax via networkx
        pg = nx.Graph()
        pg.add_nodes_from(range(n))
        for a, b, f in couplers:
            pg.add_edge(a, b, f=f)
        best_by_len: dict[int, float] = {}
        for s, t in itertools.combinations(range(n), 2):
            for path in nx.all_simple_paths(pg, s, t):
                f = 1.0
                for a, b in zip(path, path[1:]):
                    f *= pg.edges[a, b]["f"]
                k = len(path)
                if f > best_by_len.get(k, -1.0):
                    best_by_len[k] = f
        for k, paths in lib.entries.items():
            if k in best_by_len:
                assert paths, f"beam found no {k}-chain but one exists"
                assert lib.fidelity(paths[0]) == pytest.approx(best_by_len[k], abs=1e-12)
            else:
                assert paths == []
        checked += 1
    report(8, "library heads match exhaustive path argmax on 50 random chips",
           time.perf_counter() - t0, 30.0)


def test_criterion_09_benchmark_trends():
    t0 = time.perf_counter()
    # linear growth of mean depth_pre with n at d=0.8
    rows = run_bench([10, 20, 30, 40], [0.8], [1], reps=20, seed=0)
    means = {m.n: m.depth_pre for m in cell_means(rows)}
    ns = np.array(sorted(means), dtype=float)
    ys = np.array([means[n] for n in sorted(means)])
    design = np.vstack([ns, np.ones_like(ns)]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ coef
    r2 = 1.0 - float(resid @ resid) / float(((ys - ys.mean()) ** 2).sum())
    assert r2 >= 0.99, f"depth_pre vs n fit has R^2={r2:.4f}"

    # monotone depth_post in density at n=100; complete-graph law at d=1
    rows2 = run_bench([100], [0.2, 0.4, 0.6, 0.8, 1.0], [1], reps=20, seed=0)
    cells = {m.d: (m.depth_pre, m.depth_post) for m in cell_means(rows2)}
    posts = [cells[d][1] for d in sorted(cells)]
    assert all(a <= b + 1e-9 for a, b in zip(posts, posts[1:])), posts
    kn = random_weight_graph(100, 1.0, 0)
    direct = compile_graph(kn, QaoaParams(gamma=(0.5,), beta=(0.3,)))
    assert cells[1.0][0] == 2 * 100 - 2
    assert cells[1.0][1] == direct.depth
    report(9, f"depth_pre linear (R^2={r2:.4f}); depth_post monotone, d=1 at law",
           time.perf_counter() - t0, 600.0)


def test_criterion_10_qasm_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    for _ in range(100):
        g = random_graph(rng, 2, 6)
        params = random_qaoa_params(rng, int(rng.integers(1, 3)))
        pc = compile_graph(g, params)
        back = parse(emit(pc))
        assert back.n == pc.n
        assert back.final_layout == pc.final_layout
        assert list(back.gates()) == list(pc.gates())
    report(10, "parse(emit(c)) identity on 100 random compiled circuits",
           time.perf_counter() - t0, 10.0)
