"""Template, ExeR table, mapping search, scheduling and peephole passes."""

import hashlib
import itertools

import numpy as np
import pytest

from quchain import (
    CapacityError,
    Gate,
    PhysicalCircuit,
    QaoaParams,
    WeightGraph,
    build_qaoa_circuit,
    build_template,
    compile_graph,
    decompose_gates,
    layout_document,
    optimize_circuit,
    schedule,
    search_initial_mapping,
    simulate,
    simulate_gates,
)

from quchain import compiler
from quchain.bench import random_weight_graph

from conftest import random_graph, random_qaoa_params
from oracles import (
    exhaustive_best_mapping, four_step_walk, permute_qubits, states_equal_up_to_phase,
)

# seed -> digest of ``schedule`` on a seeded graph with fields, a chain of
# g.n to g.n + 3 positions and a shuffled mapping (see TestSchedule)
WIDE_SCHEDULES = {
    0: '593f2eb637e54703',
    1: 'ef84699d2e09470e',
    2: '404435f352c9ec95',
    3: 'e89f4a0c9d5dce51',
    4: 'b4659cc2a4a341cc',
    5: '8ac0e0fbefe5af3e',
    6: 'c164c74dbe98395c',
    7: '4192dd39e8d9a33c',
    8: '46151429622b8008',
    9: 'c87428324eed3598',
    10: '7e071f0865dc2ff9',
    11: '8843d289102f4944',
    12: '97e72c65bbb6103d',
    13: '6cb6e4452f68bf84',
    14: '908a45bcddcdee26',
    15: 'ec6f324a9cf9fc05',
}


class TestTemplate:
    def test_layer_counts_small(self):
        for n, rzz, swap in ((5, 5, 4), (6, 6, 4)):
            t = build_template(n)
            assert t.cycles == rzz + swap
            kinds = [compiler._step(c, n)[0] for c in range(1, t.cycles + 1)]
            assert kinds.count("rzz") == rzz and kinds.count("swap") == swap
            # every RZZ cycle holds a meeting, and only SWAP cycles move positions
            met = {c for c, kind in enumerate(kinds, start=1) if kind == "rzz"}
            assert set(np.unique(t.table).tolist()) == {0} | met
            moved = {c for c in range(1, t.cycles + 1) if (t.order[c] != t.order[c - 1]).any()}
            assert moved == set(range(1, t.cycles + 1)) - met

    def test_n2_single_meeting(self):
        t = build_template(2)
        assert t.cycles == 2
        assert len(compiler._step(2, 2)[1]) == 0  # second rzz cycle is structurally empty
        assert (t.order == [0, 1]).all()  # no SWAP moves a position
        assert t.table.tolist() == [[0, 1], [1, 0]]  # the one pair meets in cycle 1

    def test_rejects_single_position(self):
        with pytest.raises(ValueError):
            build_template(1)

    def test_pair_completeness(self):
        for n in range(2, 13):
            table, _, _ = four_step_walk(n)  # asserts no pair meets twice
            assert (table + np.eye(n, dtype=int) > 0).all()  # and every pair meets
            assert (build_template(n).table == table).all()

    def test_four_step_structure(self):
        t = build_template(6)
        steps = [compiler._step(c, 6) for c in range(1, t.cycles + 1)]
        assert [kind for kind, _ in steps] == ["rzz", "rzz", "swap", "swap"] * 2 + ["rzz", "rzz"]
        assert [lo.tolist() for _, lo in steps[:4]] == [[0, 2, 4], [1, 3], [1, 3], [0, 2, 4]]
        assert all((lo == steps[c % 4][1]).all() for c, (_, lo) in enumerate(steps))


class TestExeRTable:
    def test_first_cycle_pair(self):
        for n in (2, 4, 7):
            assert build_template(n).table[0, 1] == 1

    def test_hand_simulated_n4(self):
        ex = build_template(4)
        assert ex.table[0, 2] == 5
        assert ex.table[1, 3] == 5
        assert ex.table[0, 3] == 6
        assert ex.table[1, 2] == 2

    def test_symmetry_and_range(self):
        for n in (3, 6, 9):
            ex = build_template(n)
            bound = ex.cycles
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    assert ex.table[a, b] == ex.table[b, a]
                    assert 1 <= ex.table[a, b] <= bound

    def test_matches_independent_simulation(self):
        for n in range(2, 41):
            table, where, order = four_step_walk(n)
            ex = build_template(n)
            assert ex.n == n and ex.cycles == len(order) - 1
            assert (ex.where == ex.where.T).all()
            for got, want in ((ex.table, table), (ex.where, where), (ex.order, order)):
                assert got.shape == want.shape and (got == want).all(), n
            assert ex.order.dtype == np.int32

    def test_cached_arrays_are_read_only(self):
        for n in range(2, 41):
            ex = build_template(n)
            for arr in (ex.table, ex.where, ex.order):
                with pytest.raises(ValueError):
                    arr[0, 1] = 1
        g = WeightGraph(nodes=[(i, 0.0) for i in range(3)], edges=[(0, 2, 1.0)])
        sched = schedule(g, (0, 1, 2), QaoaParams(gamma=(0.3,), beta=(0.2,)))
        table, where, _ = four_step_walk(3)
        cycle, pos = table[0, 2], where[0, 2]
        assert sched.cost_cycles == cycle == 5  # p=1: the last RZZ cycle
        rzz = [gt for layer in sched.layers for gt in layer if gt.kind == "rzz"]
        assert [gt.qubits for gt in rzz] == [(pos, pos + 1)]


class TestMappingSearch:
    def test_path_graph_centers_high_degree_vertex(self):
        g = WeightGraph(
            nodes=[(0, 0.0), (1, 0.0), (2, 0.0)], edges=[(0, 1, 1.0), (1, 2, 1.0)]
        )
        mapping, cost = search_initial_mapping(g, 3)
        assert cost == 2
        assert mapping[1] == 1  # degree-2 vertex in the middle
        _, best = exhaustive_best_mapping(g, 3)
        assert cost == best

    def test_complete_graph_mapping_independent(self):
        for n in range(2, 7):
            edges = [(u, v, 1.0) for u, v in itertools.combinations(range(n), 2)]
            g = WeightGraph(nodes=[(i, 0.0) for i in range(n)], edges=edges)
            exer = build_template(n).table
            costs = {
                max(exer[p[u], p[v]] for u, v, _ in g.edges)
                for p in itertools.permutations(range(n))
            }
            assert len(costs) == 1  # every placement costs the same
            _, found = search_initial_mapping(g, n)
            assert found == costs.pop() == int(exer.max())
            if n >= 3:
                assert found == build_template(n).cycles

    def test_single_edge_identity(self):
        g = WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 1.0)])
        mapping, cost = search_initial_mapping(g, 2)
        assert mapping == (0, 1)
        assert cost == 1

    def test_graph_larger_than_chain(self):
        g = WeightGraph(nodes=[(i, 0.0) for i in range(4)], edges=[(0, 1, 1.0)])
        with pytest.raises(CapacityError):
            search_initial_mapping(g, 3)

    def test_edgeless_graph_costs_zero(self):
        g = WeightGraph(nodes=[(0, 1.0), (1, -1.0)], edges=[])
        mapping, cost = search_initial_mapping(g, 2)
        assert cost == 0
        assert sorted(mapping) == [0, 1]

    def test_cost_dtype_is_int16_while_the_sentinel_fits(self):
        assert compiler._cost_dtype(2) is np.int16
        assert compiler._cost_dtype(3276) is np.int16  # sentinel 32,767
        assert compiler._cost_dtype(3277) is np.int64

    def test_int16_sort_equals_int64_sort(self, monkeypatch):
        graphs = [
            random_weight_graph(n, d, [11, n, int(d * 10)])
            for n in (12, 40, 100)
            for d in (0.2, 0.6, 1.0)
        ]
        rng = np.random.default_rng(1101)
        graphs += [random_graph(rng, 20, 80, weighted=False, with_bias=False) for _ in range(3)]
        found = [search_initial_mapping(g, g.n) for g in graphs]
        monkeypatch.setattr(compiler, "_cost_dtype", lambda n: np.int64)
        assert [search_initial_mapping(g, g.n) for g in graphs] == found

    def test_predicted_equals_realized(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            g = random_graph(rng, 2, 10, weighted=False, with_bias=False)
            mapping, predicted = search_initial_mapping(g, g.n)
            sched = schedule(
                g, mapping, QaoaParams(gamma=(0.3,), beta=(0.2,)), n_positions=g.n
            )
            assert sched.cost_cycles == predicted  # p=1: the last RZZ cycle


class TestSchedule:
    def test_k2_three_blocks(self, k2_graph):
        sched = schedule(k2_graph, (0, 1), QaoaParams(gamma=(0.3,), beta=(0.2,)))
        kinds = [sorted({g.kind for g in layer}) for layer in sched.layers]
        assert kinds == [["h"], ["rzz"], ["rx"]]
        assert sched.cost_cycles == 1

    def test_demo6_edges_placed_at_exer_cycles(self, demo6_graph):
        mapping, predicted = search_initial_mapping(demo6_graph, 6)
        assert predicted <= 2 * 6 - 2
        sched = schedule(
            demo6_graph, mapping, QaoaParams(gamma=(0.4,), beta=(0.3,)), n_positions=6
        )
        template = build_template(6)
        # count rzz gates and verify each lands at the cycle the table predicts
        placed = 0
        cycle = 0
        log_at = {p: l for l, p in enumerate(mapping)}
        for layer in sched.layers:
            kinds = {g.kind for g in layer}
            if kinds == {"rzz"} or kinds == {"swap"}:
                cycle += 1
            if kinds == {"rzz"}:
                for gate in layer:
                    a, b = gate.qubits
                    u, v = log_at[a], log_at[b]
                    assert template.table[mapping[u], mapping[v]] == cycle
                    placed += 1
            elif kinds == {"swap"}:
                for gate in layer:
                    a, b = gate.qubits
                    log_at[a], log_at[b] = log_at.get(b, -1), log_at.get(a, -1)
        assert placed == len(demo6_graph.edges)

    def test_even_p_layout_returns_to_mapping(self, demo6_graph):
        mapping, _ = search_initial_mapping(demo6_graph, 6)
        sched = schedule(
            demo6_graph,
            mapping,
            QaoaParams(gamma=(0.4, 0.1), beta=(0.3, 0.2)),
            n_positions=6,
        )
        assert sched.final_layout == mapping  # swap permutation cancels pairwise

    def test_empty_rzz_cycles_counted_not_emitted(self):
        g = WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 1.0)])
        sched = schedule(g, (0, 1), QaoaParams(gamma=(0.3,), beta=(0.2,)), n_positions=4)
        # on a 4-chain the (0,1) edge meets at cycle 1; nothing after survives
        assert sched.cost_cycles == 1

    def test_bias_gates_on_current_positions(self):
        g = WeightGraph(nodes=[(0, 0.7), (1, 0.0), (2, 0.0)], edges=[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        mapping, _ = search_initial_mapping(g, 3)
        params = QaoaParams(gamma=(0.5, 0.5), beta=(0.2, 0.2))
        sched = schedule(g, mapping, params, n_positions=3)
        rz_layers = [l for l in sched.layers if {g.kind for g in l} == {"rz"}]
        assert len(rz_layers) == 2  # one bias layer per cost block
        # first block: node 0 still at its initial position
        assert rz_layers[0][0].qubits == (mapping[0],)

    @pytest.mark.parametrize("seed", list(WIDE_SCHEDULES))
    def test_wider_chain_and_shuffled_mapping_match_digest(self, seed):
        """``n_positions`` above ``g.n``: digests recorded before the table-driven rewrite."""
        rng = np.random.default_rng([10, seed])
        g = random_graph(rng, 2, 12)
        params = random_qaoa_params(rng, 1 + seed % 3)
        n = g.n + seed % 4
        mapping = tuple(int(m) for m in rng.permutation(n)[: g.n])
        sched = schedule(g, mapping, params, n_positions=n)
        text = repr((
            [[(gt.kind, gt.qubits, gt.angle) for gt in layer] for layer in sched.layers],
            sched.n, sched.final_layout, sched.cost_cycles, sched.cost_cycles // params.p,
        ))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == WIDE_SCHEDULES[seed]


class TestGateDecomposition:
    def test_rzz_rule(self):
        g = WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 1.0)])
        sched = schedule(g, (0, 1), QaoaParams(gamma=(0.3,), beta=(0.2,)))
        pc = decompose_gates(sched)
        seq = [(gt.kind, gt.qubits) for gt in pc.gates()]
        assert ("cnot", (0, 1)) in seq
        rzz_part = seq[2:5]
        assert rzz_part == [("cnot", (0, 1)), ("rz", (1,)), ("cnot", (0, 1))]

    def test_swap_rule_three_cnots(self):
        sched_layers = [[Gate("swap", (0, 1))]]
        from quchain.compiler import ScheduledCircuit

        sc = ScheduledCircuit(
            n=2, layers=sched_layers, final_layout=(1, 0), cost_cycles=1
        )
        pc = decompose_gates(sc)
        seq = [(gt.kind, gt.qubits) for gt in pc.gates()]
        assert seq == [("cnot", (0, 1)), ("cnot", (1, 0)), ("cnot", (0, 1))]

    def test_rzz_then_swap_cancels_to_three_cnots(self):
        from quchain.compiler import ScheduledCircuit

        sc = ScheduledCircuit(
            n=2,
            layers=[[Gate("rzz", (0, 1), 0.8)], [Gate("swap", (0, 1))]],
            final_layout=(1, 0),
            cost_cycles=2,
        )
        pre = decompose_gates(sc)
        assert len(list(pre.gates())) == 6
        post = optimize_circuit(pre)
        assert len(list(post.gates())) == 4
        assert post.cnot_count == 3
        seq = [(gt.kind, gt.qubits) for gt in post.gates()]
        assert seq == [("cnot", (0, 1)), ("rz", (1,)), ("cnot", (1, 0)), ("cnot", (0, 1))]


class TestPeephole:
    def _pc(self, gates, n, layout=None):
        return PhysicalCircuit(
            n=n, cycles=[[g] for g in gates], final_layout=layout or tuple(range(n))
        )

    def test_double_cnot_cancels_to_empty(self):
        pc = self._pc([Gate("cnot", (0, 1)), Gate("cnot", (0, 1))], 2)
        out = optimize_circuit(pc)
        assert len(list(out.gates())) == 0

    def test_cascading_cancellation(self):
        gates = [Gate("cnot", (0, 1)), Gate("cnot", (1, 2)), Gate("cnot", (1, 2)), Gate("cnot", (0, 1))]
        out = optimize_circuit(self._pc(gates, 3))
        assert len(list(out.gates())) == 0

    def test_opposite_orientation_not_cancelled(self):
        gates = [Gate("cnot", (0, 1)), Gate("cnot", (1, 0))]
        out = optimize_circuit(self._pc(gates, 2))
        assert out.cnot_count == 2

    def test_intervening_gate_blocks_cancellation(self):
        gates = [Gate("cnot", (0, 1)), Gate("rz", (1,), 0.3), Gate("cnot", (0, 1))]
        out = optimize_circuit(self._pc(gates, 2))
        assert out.cnot_count == 2

    def test_shared_gate_checked_and_wire_reuse_still_caught(self):
        h = Gate("h", (0,))
        pc = PhysicalCircuit(n=2, cycles=[[h], [h, Gate("h", (1,))], [h]], final_layout=(0, 1))
        assert pc.depth == 3
        with pytest.raises(ValueError, match="wire 0 used twice in cycle 1"):
            PhysicalCircuit(n=2, cycles=[[h], [h, h]], final_layout=(0, 1))
        with pytest.raises(ValueError, match="wire 0 used twice in cycle 0"):
            PhysicalCircuit(n=2, cycles=[[Gate("cnot", (1, 0)), h]], final_layout=(0, 1))
        far = Gate("cnot", (0, 3))
        with pytest.raises(ValueError, match="wire 3 outside register of 2"):
            PhysicalCircuit(n=2, cycles=[[far], [far]], final_layout=(0, 1))
        with pytest.raises(ValueError, match="cannot hold 'swap'"):
            PhysicalCircuit(n=2, cycles=[[h], [Gate("swap", (0, 1))]], final_layout=(0, 1))

    def test_asap_moves_disjoint_gate_to_first_cycle(self):
        gates = [Gate("h", (0,)), Gate("rz", (0,), 0.1), Gate("h", (2,))]
        out = optimize_circuit(self._pc(gates, 3))
        assert any(g.qubits == (2,) for g in out.cycles[0])
        assert out.depth == 2

    def test_monotone_and_unitary_preserving(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            gates = []
            for _ in range(int(rng.integers(1, 25))):
                kind = rng.choice(["h", "rx", "rz", "cnot"])
                if kind == "cnot":
                    a, b = rng.choice(n, size=2, replace=False)
                    gates.append(Gate("cnot", (int(a), int(b))))
                elif kind == "h":
                    gates.append(Gate("h", (int(rng.integers(n)),)))
                else:
                    gates.append(Gate(kind, (int(rng.integers(n)),), float(rng.normal())))
            pc = self._pc(gates, n)
            out = optimize_circuit(pc)
            assert out.depth <= pc.depth
            assert out.cnot_count <= pc.cnot_count
            assert np.allclose(
                simulate_gates(n, list(pc.gates())),
                simulate_gates(n, list(out.gates())),
                atol=1e-9,
            )


class TestCompile:
    def test_k2_worked_example(self, k2_graph):
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        assert pc.depth == 5
        assert pc.cnot_count == 2
        flat = [(gt.kind, gt.qubits) for gt in pc.gates()]
        assert flat == [
            ("h", (0,)),
            ("h", (1,)),
            ("cnot", (0, 1)),
            ("rz", (1,)),
            ("cnot", (0, 1)),
            ("rx", (0,)),
            ("rx", (1,)),
        ]
        rz = [gt for gt in pc.gates() if gt.kind == "rz"][0]
        assert rz.angle == pytest.approx(0.6)

    def test_demo6_distribution_matches_uncompiled(self, demo6_graph):
        params = QaoaParams(gamma=(0.65,), beta=(1.21,))
        pc = compile_graph(demo6_graph, params)
        ref = np.abs(simulate(build_qaoa_circuit(demo6_graph, params))) ** 2
        got = np.abs(
            permute_qubits(simulate_gates(pc.n, list(pc.gates())), pc.final_layout)
        ) ** 2
        assert float(np.abs(ref - got).sum()) / 2.0 < 1e-9  # total variation

    def test_complete_graph_layer_structure(self):
        for n in range(3, 9):
            edges = [(u, v, 1.0) for u, v in itertools.combinations(range(n), 2)]
            g = WeightGraph(nodes=[(i, 0.0) for i in range(n)], edges=edges)
            mapping, _ = search_initial_mapping(g, n)
            sched = schedule(g, mapping, QaoaParams(gamma=(0.3,), beta=(0.2,)), n_positions=n)
            rzz_layers = sum(1 for l in sched.layers if {g.kind for g in l} == {"rzz"})
            swap_layers = sum(1 for l in sched.layers if {g.kind for g in l} == {"swap"})
            assert rzz_layers == n
            assert swap_layers == (n - 2 if n % 2 == 0 else n - 1)
            assert sched.cost_cycles == (2 * n - 2 if n % 2 == 0 else 2 * n - 1)

    def test_cnots_are_chain_adjacent(self, demo6_graph):
        pc = compile_graph(demo6_graph, QaoaParams(gamma=(0.4,), beta=(0.3,)))
        for gt in pc.gates():
            if gt.kind == "cnot":
                assert abs(gt.qubits[0] - gt.qubits[1]) == 1

    def test_chain_relabeling(self, k2_graph):
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)), chain=(7, 8))
        assert pc.n == 9
        assert set(q for gt in pc.gates() for q in gt.qubits) == {7, 8}
        assert set(pc.final_layout) == {7, 8}

    def test_chain_too_short(self, demo6_graph):
        with pytest.raises(CapacityError):
            compile_graph(demo6_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)), chain=(0, 1, 2))

    def test_single_node_graph(self):
        g = WeightGraph(nodes=[(0, 1.0)], edges=[])
        pc = compile_graph(g, QaoaParams(gamma=(0.5,), beta=(0.25,)))
        kinds = [gt.kind for gt in pc.gates()]
        assert kinds == ["h", "rz", "rx"]
        ref = simulate(build_qaoa_circuit(g, QaoaParams(gamma=(0.5,), beta=(0.25,))))
        assert states_equal_up_to_phase(ref, simulate_gates(1, list(pc.gates())), 1e-9)

    def test_recorded_depth_equals_the_walk(self):
        rng = np.random.default_rng(1102)
        graphs = [random_graph(rng, 2, 12) for _ in range(20)]
        graphs += [random_weight_graph(100, d, 1102) for d in (0.2, 1.0)]
        for g in graphs:
            params = random_qaoa_params(rng, int(rng.integers(1, 4)))
            pc = compile_graph(g, params)
            mapping, _ = search_initial_mapping(g, g.n)
            ref = optimize_circuit(decompose_gates(schedule(g, mapping, params)))
            for placed in (pc, ref):
                walked = PhysicalCircuit(
                    n=placed.n, cycles=placed.cycles, final_layout=placed.final_layout
                )
                assert placed.depth == len(placed.cycles) == walked.depth

    def test_each_distinct_cnot_built_once(self):
        g = random_weight_graph(30, 0.6, 1103)
        pc = compile_graph(g, QaoaParams(gamma=(0.4, 0.3), beta=(0.2, 0.1)),
                           chain=tuple(range(40, 10, -1)))
        cnots = [gt for gt in pc.gates() if gt.kind == "cnot"]
        assert len({id(gt) for gt in cnots}) == len(set(cnots)) < len(cnots)

    def test_random_unitary_equivalence(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            g = random_graph(rng, 2, 6)
            p = int(rng.integers(1, 3))
            params = random_qaoa_params(rng, p)
            pc = compile_graph(g, params)
            ref = simulate(build_qaoa_circuit(g, params))
            got = permute_qubits(
                simulate_gates(pc.n, list(pc.gates())), pc.final_layout
            )
            assert states_equal_up_to_phase(ref, got, 1e-9)

    def test_depth_three_replays_forward_block(self):
        # odd blocks beyond the first start from the rewound permutation
        rng = np.random.default_rng(91)
        for _ in range(5):
            g = random_graph(rng, 3, 5)
            params = random_qaoa_params(rng, 3)
            pc = compile_graph(g, params)
            ref = simulate(build_qaoa_circuit(g, params))
            got = permute_qubits(
                simulate_gates(pc.n, list(pc.gates())), pc.final_layout
            )
            assert states_equal_up_to_phase(ref, got, 1e-9)

    @pytest.mark.parametrize(
        "chain",
        [(0, 1, 2.7), (0, 1, True), (-1, 0, 1), (0, 1, 1), (0, 1, "2"), (0, 1, np.float64(2.0))],
        ids=["float", "bool", "negative", "duplicate", "str", "numpy-float"],
    )
    def test_malformed_chain_rejected(self, chain):
        g = WeightGraph(nodes=[(i, 0.0) for i in range(3)], edges=[(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError, match="chain"):
            compile_graph(g, QaoaParams(gamma=(0.3,), beta=(0.2,)), chain=chain)

    def test_numpy_int_chain_accepted(self, k2_graph):
        params = QaoaParams(gamma=(0.3,), beta=(0.2,))
        pc = compile_graph(k2_graph, params, chain=np.array([7, 8]))
        assert pc.final_layout == compile_graph(k2_graph, params, chain=(7, 8)).final_layout

    def test_equals_remapped_reference_pipeline(self):
        # compile_graph emits native gates directly; the reference decomposes
        # every layer and cancels CNOT pairs with the peephole pass
        rng = np.random.default_rng(808)
        for _ in range(30):
            g = random_graph(rng, 1, 40)
            params = random_qaoa_params(rng, int(rng.integers(1, 4)))
            chain = tuple(int(q) for q in rng.permutation(3 * g.n)[: g.n])
            pc = compile_graph(g, params, chain=chain)
            mapping, _ = search_initial_mapping(g, g.n)
            sched = schedule(g, mapping, params, n_positions=g.n)
            ref = optimize_circuit(decompose_gates(sched))
            assert [[(gt.kind, gt.qubits, gt.angle) for gt in cyc] for cyc in pc.cycles] == [
                [(gt.kind, tuple(chain[q] for q in gt.qubits), gt.angle) for gt in cyc]
                for cyc in ref.cycles
            ]
            assert pc.final_layout == tuple(chain[q] for q in ref.final_layout)
            assert pc.scheduled_cost_cycles == sched.cost_cycles
            assert pc.n == max(chain) + 1

    def test_builds_one_circuit_without_reference_passes(self, demo6_graph, monkeypatch):
        import quchain.compiler as compiler
        from quchain.circuits import KINDS

        def forbidden(*args, **kwargs):
            raise AssertionError("compile_graph must not call the reference passes")

        built = []

        class Counted(PhysicalCircuit):
            def __new__(cls, *args, **kwargs):
                pc = super().__new__(cls)
                built.append(pc)
                return pc

        monkeypatch.setattr(compiler, "schedule", forbidden)
        monkeypatch.setattr(compiler, "decompose_gates", forbidden)
        monkeypatch.setattr(compiler, "optimize_circuit", forbidden)
        monkeypatch.setattr(compiler, "PhysicalCircuit", Counted)
        pc = compile_graph(demo6_graph, QaoaParams(gamma=(0.4, 0.5), beta=(0.3, 0.2)))
        assert len(built) == 1 and built[0] is pc
        assert pc.cnot_count > 0
        assert {KINDS[k] for k in pc.kind.tolist()} == {"h", "rz", "cnot", "rx"}

    def test_layout_document(self, demo6_graph):
        import json

        pc = compile_graph(demo6_graph, QaoaParams(gamma=(0.4,), beta=(0.3,)))
        doc = json.loads(layout_document(pc))
        assert doc["logical_to_physical"] == list(pc.final_layout)
        assert doc["measure_order"] == list(range(6))
