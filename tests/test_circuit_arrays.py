"""The array form of circuits: the sub-layer placer against the gate-by-gate
one, the Gate-list constructor's check, the qubit checks of ``Gate`` and
``final_layout``, shared ``Gate`` views, and ``parse``'s per-distinct-line
reading."""

import math

import numpy as np
import pytest

import quchain.circuits as circuits
import quchain.compiler as compiler
from quchain import Gate, ParseError, PhysicalCircuit, QaoaParams, WeightGraph, compile_graph, emit, parse
from quchain.bench import random_weight_graph

from conftest import random_graph, random_qaoa_params


def _rows(pc):
    """Each gate as (kind, qubits, angle), read from the views."""
    return [[(gt.kind, gt.qubits, gt.angle) for gt in cycle] for cycle in pc.cycles]


class TestPlacer:
    @pytest.mark.parametrize("n", [5, 6, 11, 12])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_sub_layer_placement_equals_asap(self, n, p, with_bias):
        rng = np.random.default_rng([24, n, p, with_bias])
        g = random_graph(rng, n, n, with_bias=with_bias)
        params = random_qaoa_params(rng, p)
        chain = tuple(int(q) for q in rng.permutation(3 * n)[:n])  # not contiguous
        pc = compile_graph(g, params, chain=chain)

        mapping, _ = compiler.search_initial_mapping(g, g.n)
        layers, end, _ = compiler._layers(g, mapping, params, g.n)
        kind, a, b, angle, _ = compiler._stream(layers, g.n)
        stream = [
            Gate(circuits.KINDS[k], (chain[x], chain[y]) if k == circuits.CNOT else (chain[x],),
                 None if math.isnan(t) else t)
            for k, x, y, t in zip(kind.tolist(), a.tolist(), b.tolist(), angle.tolist())
        ]
        ref = compiler._asap(max(chain) + 1, stream, final_layout=pc.final_layout)
        assert _rows(pc) == _rows(ref)
        assert pc.depth == ref.depth == len(ref.cycles)

    def test_sub_layers_hold_disjoint_wires(self):
        g = random_weight_graph(40, 0.6, 24)
        mapping, _ = compiler.search_initial_mapping(g, g.n)
        layers, _, _ = compiler._layers(g, mapping, QaoaParams(gamma=(0.3, 0.4), beta=(0.2, 0.1)), g.n)
        kind, a, b, _, bounds = compiler._stream(layers, g.n)
        for s, e in zip(bounds.tolist(), bounds[1:].tolist()):
            two = kind[s:e] == circuits.CNOT
            wires = np.concatenate((a[s:e], b[s:e][two]))
            assert s < e and len(set(wires.tolist())) == len(wires)


H0, H1, CX01 = Gate("h", (0,)), Gate("h", (1,)), Gate("cnot", (0, 1))
FAULTS = {
    "bad-kind": ([[H0], [Gate("swap", (0, 1))]], "physical circuits cannot hold 'swap'"),
    "rzz": ([[Gate("rzz", (0, 1), 0.5)]], "physical circuits cannot hold 'rzz'"),
    "wire-outside": ([[H1], [Gate("cnot", (1, 3))]], "wire 3 outside register of 2"),
    "wire-twice": ([[H0, H1], [H1, CX01]], "wire 1 used twice in cycle 1"),
    "target-twice": ([[H0], [CX01, H1]], "wire 1 used twice in cycle 1"),
    # the first fault in gate order wins, whatever its kind
    "twice-before-outside": ([[H0, H0], [Gate("h", (5,))]], "wire 0 used twice in cycle 0"),
    "outside-before-twice": ([[Gate("h", (5,))], [H0, H0]], "wire 5 outside register of 2"),
    "kind-before-wire": ([[Gate("swap", (0, 7))]], "physical circuits cannot hold 'swap'"),
}


class TestOneCheck:
    @pytest.mark.parametrize("cycles,message", FAULTS.values(), ids=FAULTS.keys())
    def test_both_constructors_reject_alike(self, cycles, message):
        with pytest.raises(ValueError) as from_gates:
            PhysicalCircuit(n=2, cycles=cycles, final_layout=(0, 1))
        assert str(from_gates.value) == message

    @pytest.mark.parametrize("n", [-1, circuits.WIRE_LIMIT + 1])
    def test_register_size_is_bounded(self, n):
        with pytest.raises(ValueError, match=f"circuits hold at most {circuits.WIRE_LIMIT} wires"):
            PhysicalCircuit(n=n, cycles=[[H0]], final_layout=(0,))

    def test_gate_lists_and_arrays_build_equal_circuits(self):
        rng = np.random.default_rng(2401)
        pc = compile_graph(random_graph(rng, 8, 8), random_qaoa_params(rng, 2), chain=range(3, 11))
        listed = PhysicalCircuit(n=pc.n, cycles=pc.cycles, final_layout=pc.final_layout)
        for name in ("kind", "a", "b", "cycle"):
            assert np.array_equal(getattr(listed, name), getattr(pc, name))
        assert np.array_equal(listed.angle, pc.angle, equal_nan=True)
        assert listed.depth == pc.depth


def test_chain_wires_stay_below_the_limit():
    g = WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 1.0)])
    with pytest.raises(ValueError, match="chain entries must be non-negative ints below"):
        compile_graph(g, QaoaParams(gamma=(0.3,), beta=(0.2,)), chain=(0, circuits.WIRE_LIMIT))
    pc = compile_graph(g, QaoaParams(gamma=(0.3,), beta=(0.2,)), chain=(0, circuits.WIRE_LIMIT - 1))
    assert pc.n == circuits.WIRE_LIMIT and pc.final_layout == (0, circuits.WIRE_LIMIT - 1)
    text = emit(pc)
    assert f"cx q[0],q[{circuits.WIRE_LIMIT - 1}];" in text
    assert list(parse(text).gates()) == list(pc.gates())


class TestQubitChecks:
    """A qubit is a non-negative int (NumPy ints count, bools do not), and a
    ``final_layout`` entry is one that names a wire of the register."""

    @pytest.mark.parametrize("qubit", [0.5, -1, True], ids=["float", "negative", "bool"])
    def test_gate_rejects_what_is_not_a_qubit(self, qubit):
        with pytest.raises(ValueError, match=r"h qubits must be non-negative ints, got \("):
            Gate("h", (qubit,))
        with pytest.raises(ValueError, match="cnot qubits must be non-negative ints"):
            Gate("cnot", (1, qubit))

    def test_gate_keeps_numpy_ints_as_ints(self):
        gate = Gate("cnot", (np.int64(3), np.uint8(1)))
        assert gate.qubits == (3, 1) and all(type(q) is int for q in gate.qubits)

    @pytest.mark.parametrize("layout, bad", [((0.5, 1), "0.5"), ((-1, 0), "-1"), ((0, 7), "7")],
                             ids=["float", "negative", "outside"])
    def test_final_layout_entries_are_wires(self, layout, bad):
        with pytest.raises(ValueError, match=f"final_layout entries must be wires of the register of 2, got {bad}$"):
            PhysicalCircuit(n=2, cycles=[[H0, H1]], final_layout=layout)

    def test_final_layout_takes_numpy_ints(self):
        pc = PhysicalCircuit(n=2, cycles=[[H0, H1]], final_layout=np.array([1, 0]))
        assert pc.final_layout == (1, 0) and parse(emit(pc)).final_layout == (1, 0)


class TestSharedViews:
    def test_one_gate_per_distinct_row(self):
        g = random_weight_graph(100, 1.0, 7)
        pc = compile_graph(g, QaoaParams(gamma=(0.4, 0.7), beta=(0.3, 0.9)))
        distinct = set(zip(pc.kind.tolist(), pc.a.tolist(), pc.b.tolist(),
                           pc.angle.view(np.int64).tolist()))
        gates = list(pc.gates())
        assert len(gates) == 39_702
        assert len({id(gt) for gt in gates}) == len(distinct) < len(gates) // 5
        assert len({id(gt) for cycle in pc.cycles for gt in cycle}) == len(distinct)

    def test_each_call_builds_its_own_gates(self):
        pc = compile_graph(random_weight_graph(10, 0.5, 3), QaoaParams(gamma=(0.4,), beta=(0.3,)))
        first, second = list(pc.gates()), list(pc.gates())
        assert first == second
        assert not {id(gt) for gt in first} & {id(gt) for gt in second}


_HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


class TestParseFirstFault:
    def _located(self, text):
        with pytest.raises(ParseError) as err:
            parse(text)
        return str(err.value)

    def test_faulty_line_before_a_repeated_measure(self):
        text = (_HEAD + "qreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\nh q[5];\n"
                + "measure q[0] -> c[0];\n")
        assert self._located(text) == "line 6, col 1: q[5] outside register of size 2"

    def test_repeated_measure_before_a_later_faulty_line(self):
        text = (_HEAD + "qreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\nh q[1];\n"
                + "measure q[0] -> c[0];\n h q[5];\n")
        assert self._located(text) == "line 7, col 1: classical bit 0 measured twice"

    @pytest.mark.parametrize("faulty_first", [True, False])
    def test_after_a_thousand_repeats(self, faulty_first):
        tail = ["  rz(nan) q[0];", "measure q[0] -> c[0];"]
        if not faulty_first:
            tail.reverse()
        text = (_HEAD + "qreg q[2];\ncreg c[1];\n" + "cx q[0],q[1];\nmeasure q[0] -> c[0];\n"
                + "h q[1];\n" * 1000 + "\n".join(tail) + "\n")
        expected = ("line 1007, col 6: non-finite angle 'nan'" if faulty_first
                    else "line 1007, col 1: classical bit 0 measured twice")
        assert self._located(text) == expected

    def test_register_limit(self):
        text = _HEAD + f"qreg q[{circuits.WIRE_LIMIT + 1}];\ncreg c[1];\n"
        assert self._located(text) == f"line 3, col 1: registers must be at most {circuits.WIRE_LIMIT} long"

    def test_one_row_per_distinct_gate(self):
        # Two spellings of one gate share its row; rows follow the gate, not the line.
        text = (_HEAD + "qreg q[2];\ncreg c[1];\n" + "h q[0];\n  h q[0];\ncx q[0],q[1];\n" * 3
                + "measure q[1] -> c[0];\n")
        pc = parse(text)
        row, first = pc.rows()
        assert row.tolist() == [0, 0, 1] * 3
        assert [row[i] for i in first.tolist()] == [0, 1]
        assert np.array_equal(row, PhysicalCircuit(n=2, cycles=pc.cycles, final_layout=(1,)).rows()[0])
