"""Gate semantics and statevector behavior."""

import numpy as np
import pytest

from quchain import (
    CapacityError,
    Gate,
    LogicalCircuit,
    QaoaParams,
    build_qaoa_circuit,
    permute_qubits,
    sample_counts,
    simulate,
    simulate_gates,
)

from conftest import random_graph, random_qaoa_params


def test_hadamard_on_zero():
    state = simulate_gates(1, [Gate("h", (0,))])
    assert np.allclose(state, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_rzz_diagonal_phase_on_00():
    theta = 0.7
    state = simulate_gates(2, [Gate("rzz", (0, 1), theta)])
    assert state[0] == pytest.approx(np.exp(-1j * theta / 2))
    assert abs(state[0]) == pytest.approx(1.0)


def test_rzz_phase_signs():
    theta = 0.9
    # prepare |01>: qubit 0 set via X = H Z H; easier: start superposed and check all four
    circ = [Gate("h", (0,)), Gate("h", (1,)), Gate("rzz", (0, 1), theta)]
    state = simulate_gates(2, circ)
    # basis order 00, 01(q0=1), 10(q1=1), 11 under little-endian indexing
    phases = state * 2.0
    assert phases[0] == pytest.approx(np.exp(-1j * theta / 2))
    assert phases[1] == pytest.approx(np.exp(+1j * theta / 2))
    assert phases[2] == pytest.approx(np.exp(+1j * theta / 2))
    assert phases[3] == pytest.approx(np.exp(-1j * theta / 2))


def test_bell_state():
    state = simulate_gates(2, [Gate("h", (0,)), Gate("cnot", (0, 1))])
    assert state[0b00] == pytest.approx(1 / np.sqrt(2))
    assert state[0b11] == pytest.approx(1 / np.sqrt(2))
    assert abs(state[0b01]) < 1e-12 and abs(state[0b10]) < 1e-12


def test_rx_rotation_convention():
    # RX(pi) = -i X up to convention: |0> -> -i|1>
    state = simulate_gates(1, [Gate("rx", (0,), np.pi)])
    assert state[1] == pytest.approx(-1j)


def test_rz_convention():
    # RZ(t)|0> = exp(-i t/2)|0>
    state = simulate_gates(1, [Gate("rz", (0,), 0.5)])
    assert state[0] == pytest.approx(np.exp(-0.25j))


def test_swap_gate():
    # |01> (qubit 0 = 1) --swap--> |10> (qubit 1 = 1)
    state = np.zeros(4, dtype=complex)
    state[0b01] = 1.0
    from quchain.simulator import apply_gate

    out = apply_gate(state, Gate("swap", (0, 1)), 2)
    assert out[0b10] == pytest.approx(1.0)


def test_norm_preserved_on_random_circuits():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_graph(rng, 2, 6)
        params = random_qaoa_params(rng, int(rng.integers(1, 3)))
        state = simulate(build_qaoa_circuit(g, params))
        assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-9


def test_twenty_qubits_supported():
    state = simulate_gates(20, [Gate("h", (q,)) for q in range(20)])
    assert len(state) == 1 << 20
    assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-9


def test_capacity_error_above_limit():
    with pytest.raises(CapacityError):
        simulate_gates(25, [Gate("h", (0,))])


def test_permute_qubits_roundtrip():
    rng = np.random.default_rng(11)
    state = rng.normal(size=8) + 1j * rng.normal(size=8)
    state /= np.linalg.norm(state)
    perm = (2, 0, 1)
    moved = permute_qubits(state, perm)
    # output qubit i carries input qubit perm[i]
    for z in range(8):
        src = 0
        for i in range(3):
            src |= ((z >> i) & 1) << perm[i]
        assert moved[z] == pytest.approx(state[src])


def test_permutation_matches_swap_circuit():
    rng = np.random.default_rng(13)
    gates = [Gate("h", (0,)), Gate("rx", (1,), 0.4), Gate("rz", (2,), 1.1), Gate("rzz", (0, 2), 0.8)]
    base = simulate_gates(3, gates)
    swapped = simulate_gates(3, gates + [Gate("swap", (0, 2))])
    assert np.allclose(permute_qubits(swapped, (2, 1, 0)), base)


def test_sampling_deterministic_and_conserving():
    state = simulate_gates(2, [Gate("h", (0,)), Gate("cnot", (0, 1))])
    a = sample_counts(state, 500, seed=3)
    b = sample_counts(state, 500, seed=3)
    assert a == b
    assert sum(a.values()) == 500
    assert set(a) <= {0b00, 0b11}


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("rzz", (0, 0), 0.1)
    with pytest.raises(ValueError):
        Gate("h", (0,), 0.3)
    with pytest.raises(ValueError):
        Gate("rx", (0,))
    for kind, qubits, angle in [("rz", (0,), float("nan")), ("rx", (0,), float("inf")),
                                ("rzz", (0, 1), float("-inf"))]:
        with pytest.raises(ValueError, match="finite"):
            Gate(kind, qubits, angle)
    with pytest.raises(ValueError):
        LogicalCircuit(n=2, gates=[Gate("h", (5,))])


class TestQaoaCircuitShape:
    def test_k2_layer_structure(self, k2_graph):
        c = build_qaoa_circuit(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        kinds = [(g.kind, g.qubits, g.angle) for g in c.gates]
        assert kinds == [
            ("h", (0,), None),
            ("h", (1,), None),
            ("rzz", (0, 1), pytest.approx(0.6)),
            ("rx", (0,), pytest.approx(0.4)),
            ("rx", (1,), pytest.approx(0.4)),
        ]

    def test_single_biased_node(self):
        from quchain import WeightGraph

        g = WeightGraph(nodes=[(0, 1.0)], edges=[])
        c = build_qaoa_circuit(g, QaoaParams(gamma=(0.25,), beta=(0.15,)))
        kinds = [(g.kind, g.angle) for g in c.gates]
        assert kinds == [("h", None), ("rz", pytest.approx(0.5)), ("rx", pytest.approx(0.3))]

    def test_two_layers_double_the_blocks(self, k2_graph):
        c1 = build_qaoa_circuit(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        c2 = build_qaoa_circuit(k2_graph, QaoaParams(gamma=(0.3, 0.5), beta=(0.2, 0.1)))
        assert len(c2.gates) == len(c1.gates) + 3  # one extra rzz + two rx
        assert c2.gates[5].angle == pytest.approx(1.0)  # rzz with gamma_2
