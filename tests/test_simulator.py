"""Gate semantics and statevector behavior."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quchain import (
    CapacityError,
    Gate,
    LocalSampler,
    LogicalCircuit,
    QaoaParams,
    build_qaoa_circuit,
    compile_graph,
    emit,
    sample_counts,
    simulate,
    simulate_gates,
)
import quchain.simulator as simulator
from quchain.compiler import KINDS
from quchain.simulator import apply_gate, simulate_levels

from conftest import random_graph, random_qaoa_params
from oracles import permute_qubits


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
    out = apply_gate(state, Gate("swap", (0, 1)), 2)
    assert out[0b10] == pytest.approx(1.0)


_I2 = np.eye(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_P0, _P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


def _dense(n, factors):
    """Kronecker product with ``factors[q]`` on qubit q and identity elsewhere;
    qubit n-1 is the leftmost factor (little-endian basis index)."""
    out = np.eye(1)
    for q in reversed(range(n)):
        out = np.kron(out, factors.get(q, _I2))
    return out


def _dense_gate(gate, n):
    t = gate.angle
    if gate.kind == "h":
        return _dense(n, {gate.qubits[0]: np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)})
    if gate.kind == "rx":
        return _dense(n, {gate.qubits[0]: np.cos(t / 2) * _I2 - 1j * np.sin(t / 2) * _X})
    if gate.kind == "rz":
        return _dense(n, {gate.qubits[0]: np.cos(t / 2) * _I2 - 1j * np.sin(t / 2) * _Z})
    a, b = gate.qubits
    if gate.kind == "rzz":
        return np.cos(t / 2) * _dense(n, {}) - 1j * np.sin(t / 2) * _dense(n, {a: _Z, b: _Z})
    if gate.kind == "cnot":
        return _dense(n, {a: _P0}) + _dense(n, {a: _P1, b: _X})
    # swap = |00><00| + |11><11| + |01><10| + |10><01|
    lo, hi = np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]])
    return (_dense(n, {a: _P0, b: _P0}) + _dense(n, {a: _P1, b: _P1})
            + _dense(n, {a: lo, b: hi}) + _dense(n, {a: hi, b: lo}))


_GATES_4Q = (
    [Gate(kind, (q,), 0.73 if kind != "h" else None) for kind in ("h", "rx", "rz") for q in range(4)]
    + [Gate(kind, pair, 1.21 if kind == "rzz" else None)
       for kind in ("cnot", "swap", "rzz") for pair in itertools.permutations(range(4), 2)]
)


@pytest.mark.parametrize("gate", _GATES_4Q, ids=lambda g: f"{g.kind}{g.qubits}")
def test_gate_matches_dense_matrix(gate):
    rng = np.random.default_rng(sum(gate.qubits) + 7 * len(gate.kind))
    state = rng.normal(size=16) + 1j * rng.normal(size=16)
    want = _dense_gate(gate, 4) @ state
    assert np.max(np.abs(apply_gate(state, gate, 4) - want)) < 1e-12


def test_apply_gate_updates_the_given_array():
    state = np.full(16, 0.25, dtype=complex)
    for gate in _GATES_4Q:
        assert apply_gate(state, gate, 4) is state
    with pytest.raises(ValueError, match="C-contiguous"):
        apply_gate(np.ones(32, dtype=complex)[::2], Gate("h", (0,)), 4)


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


# seed -> digest of sorted LocalSampler counts (1000 shots at that seed) for a
# compiled circuit on a seeded random graph of 10-14 qubits at p = 1 + seed % 2.
SAMPLER_COUNTS = {
    0: 'a520c68d7d8c3720',  # 14 qubits, p=1
    1: '3b9be48619e97401',  # 12 qubits, p=2
    2: 'aeeba2436191a187',  # 14 qubits, p=1
    3: '715659d062bfd98e',  # 14 qubits, p=2
    4: 'c158d30035c5a41c',  # 13 qubits, p=1
    5: 'e0211006957b1d2c',  # 13 qubits, p=2
    6: '8a964a8263503961',  # 12 qubits, p=1
    7: '35f78f2eedf5673b',  # 14 qubits, p=2
    8: 'd6893d3cf96253f8',  # 13 qubits, p=1
    9: '4908368f09885fd4',  # 12 qubits, p=2
}


def _sampler_digest(seed: int) -> str:
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 10, 14)
    pc = compile_graph(g, random_qaoa_params(rng, 1 + seed % 2))
    counts = LocalSampler().run(emit(pc), 1000, seed)
    return hashlib.sha256(repr(sorted(counts.items())).encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", list(SAMPLER_COUNTS))
def test_sampler_counts_pinned(seed):
    assert _sampler_digest(seed) == SAMPLER_COUNTS[seed]


def _level_state(n, gates):
    """``simulate_levels`` on the arrays of ``gates`` (h, rx, rz, cnot)."""
    kind = np.array([KINDS.index(g.kind) for g in gates], dtype=np.int8)
    a = np.array([g.qubits[0] for g in gates], dtype=np.int32)
    b = np.array([g.qubits[-1] for g in gates], dtype=np.int32)
    angle = np.array([np.nan if g.angle is None else g.angle for g in gates])
    return simulate_levels(n, kind, a, b, angle)


@st.composite
def _circuits(draw):
    """``(n, gates)``: h, rx, rz and cnot on up to five wires, in any order."""
    n = draw(st.integers(1, 5))
    kinds = ("h", "rx", "rz", "cnot") if n > 1 else ("h", "rx", "rz")
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        kind, a = draw(st.sampled_from(kinds)), draw(st.integers(0, n - 1))
        if kind == "cnot":
            gates.append(Gate(kind, (a, (a + draw(st.integers(1, n - 1))) % n)))
        else:
            angle = None if kind == "h" else draw(st.floats(-7.0, 7.0))
            gates.append(Gate(kind, (a,), angle))
    return n, gates


def _g(kind, *qubits, angle=None):
    return Gate(kind, qubits, angle)


# A level whose CNOTs map the wires by no permutation; a mixer on a wire
# that holds a parity at the end of its level; CNOT and RZ gates before any
# mixer; a CNOT that joins wires of different levels; and a block like a
# compiled QAOA one, whose map permutes the wires.
_NOT_A_PERMUTATION = (3, [_g("h", 0), _g("h", 1), _g("cnot", 0, 1), _g("rz", 1, angle=0.9),
                          _g("cnot", 1, 2), _g("rz", 2, angle=-1.3), _g("rx", 2, angle=0.4)])
_MIXER_ON_A_PARITY = (3, [_g("h", 0), _g("rx", 1, angle=1.1), _g("cnot", 0, 1), _g("rz", 1, angle=0.7),
                          _g("h", 1), _g("cnot", 1, 2), _g("rx", 0, angle=0.5), _g("rz", 2, angle=2.1),
                          _g("h", 2), _g("rx", 1, angle=-0.8)])
_BEFORE_ANY_MIXER = (2, [_g("rz", 0, angle=0.3), _g("cnot", 0, 1), _g("rz", 1, angle=1.7),
                         _g("h", 0), _g("rz", 0, angle=0.6), _g("cnot", 0, 1), _g("rx", 1, angle=0.2)])
_UNEVEN_LEVELS = (3, [_g("h", 0), _g("rx", 0, angle=0.9), _g("h", 1), _g("cnot", 1, 2),
                      _g("cnot", 0, 1), _g("rz", 1, angle=1.2), _g("rx", 2, angle=0.3)])
_PERMUTING_BLOCK = (3, [_g("h", 0), _g("h", 1), _g("h", 2), _g("cnot", 0, 1), _g("rz", 1, angle=0.8),
                        _g("cnot", 1, 0), _g("cnot", 0, 1), _g("cnot", 1, 2), _g("rz", 2, angle=-0.5),
                        _g("cnot", 2, 1), _g("cnot", 1, 2), _g("rx", 0, angle=0.6),
                        _g("rx", 1, angle=0.6), _g("rx", 2, angle=0.6)])


@settings(max_examples=300)
@given(_circuits())
@example(_NOT_A_PERMUTATION)
@example(_MIXER_ON_A_PARITY)
@example(_BEFORE_ANY_MIXER)
@example(_UNEVEN_LEVELS)
@example(_PERMUTING_BLOCK)
def test_levels_match_gate_by_gate(circuit):
    n, gates = circuit
    assert np.max(np.abs(_level_state(n, gates) - simulate_gates(n, gates))) <= 1e-12


def test_a_wrong_level_order_is_caught(monkeypatch):
    """Phase gates put before their level's mixers fail the differential test."""
    right = simulator._level_keys
    monkeypatch.setattr(simulator, "_level_keys", lambda *arrays: right(*arrays) ^ 1)
    with pytest.raises(AssertionError):
        test_levels_match_gate_by_gate()


@pytest.mark.parametrize("n", [0, 25])
def test_level_simulator_keeps_the_capacity_checks(n):
    none = np.zeros(0, dtype=np.int32)
    with pytest.raises(CapacityError if n else ValueError,
                       match="25 qubits exceeds the simulator limit of 24" if n else "need at least one qubit"):
        simulate_levels(n, none.astype(np.int8), none, none, none.astype(float))


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
