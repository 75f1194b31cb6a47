"""Dense statevector simulator for the package's gate set.

Amplitudes use little-endian qubit ordering: basis index ``z`` assigns qubit
``i`` the bit ``(z >> i) & 1``.  Rotation conventions:

    RX(t) = exp(-i t X / 2)
    RZ(t) = exp(-i t Z / 2)
    RZZ(t) = exp(-i t ZZ / 2)

so the basis state with bits (b_a, b_b) picks up the RZZ phase
``exp(-i t z_a z_b / 2)`` with ``z = 1 - 2b``.
"""

from __future__ import annotations

import numpy as np

from .circuits import Gate, LogicalCircuit, QaoaParams
from .errors import CapacityError

#: Hard cap on simulated register width (2**24 amplitudes ~ 256 MiB).
QUBIT_LIMIT = 24


def zero_state(n: int) -> np.ndarray:
    _check_capacity(n)
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    return state


def _check_capacity(n: int):
    if n > QUBIT_LIMIT:
        raise CapacityError(f"{n} qubits exceeds the simulator limit of {QUBIT_LIMIT}")
    if n < 1:
        raise ValueError("need at least one qubit")


def _axis(q: int, n: int) -> int:
    # C-order reshape puts qubit 0 (least-significant bit) on the last axis.
    return n - 1 - q


def _apply_matrix_1q(state: np.ndarray, m: np.ndarray, q: int, n: int) -> np.ndarray:
    psi = np.moveaxis(state.reshape([2] * n), _axis(q, n), -1)
    psi = psi @ m.T
    return np.moveaxis(psi, -1, _axis(q, n)).reshape(-1)


def apply_gate(state: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    kind = gate.kind
    if kind == "h":
        m = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
        return _apply_matrix_1q(state, m, gate.qubits[0], n)
    if kind == "rx":
        t = gate.angle / 2.0
        m = np.array(
            [[np.cos(t), -1j * np.sin(t)], [-1j * np.sin(t), np.cos(t)]], dtype=complex
        )
        return _apply_matrix_1q(state, m, gate.qubits[0], n)

    psi = state.reshape([2] * n)
    if kind == "rz":
        ax = _axis(gate.qubits[0], n)
        idx0 = [slice(None)] * n
        idx1 = [slice(None)] * n
        idx0[ax], idx1[ax] = 0, 1
        psi = psi.copy()
        psi[tuple(idx0)] *= np.exp(-1j * gate.angle / 2.0)
        psi[tuple(idx1)] *= np.exp(1j * gate.angle / 2.0)
        return psi.reshape(-1)
    if kind == "rzz":
        a, b = (_axis(q, n) for q in gate.qubits)
        psi = psi.copy()
        for ba in (0, 1):
            for bb in (0, 1):
                idx = [slice(None)] * n
                idx[a], idx[b] = ba, bb
                zz = (1 - 2 * ba) * (1 - 2 * bb)
                psi[tuple(idx)] *= np.exp(-1j * gate.angle * zz / 2.0)
        return psi.reshape(-1)
    if kind == "cnot":
        c, t = (_axis(q, n) for q in gate.qubits)
        psi = psi.copy()
        i0 = [slice(None)] * n
        i1 = [slice(None)] * n
        i0[c], i0[t] = 1, 0
        i1[c], i1[t] = 1, 1
        psi[tuple(i0)], psi[tuple(i1)] = psi[tuple(i1)].copy(), psi[tuple(i0)].copy()
        return psi.reshape(-1)
    if kind == "swap":
        a, b = (_axis(q, n) for q in gate.qubits)
        psi = psi.copy()
        i0 = [slice(None)] * n
        i1 = [slice(None)] * n
        i0[a], i0[b] = 0, 1
        i1[a], i1[b] = 1, 0
        psi[tuple(i0)], psi[tuple(i1)] = psi[tuple(i1)].copy(), psi[tuple(i0)].copy()
        return psi.reshape(-1)
    raise ValueError(f"cannot simulate gate kind {kind!r}")


def simulate_gates(n: int, gates) -> np.ndarray:
    """Exact statevector after applying ``gates`` to |0...0>."""
    state = zero_state(n)
    for g in gates:
        state = apply_gate(state, g, n)
    return state


def simulate(circuit: LogicalCircuit) -> np.ndarray:
    return simulate_gates(circuit.n, circuit.gates)


def qaoa_state(table: np.ndarray, params: QaoaParams) -> np.ndarray:
    """QAOA statevector from the cost diagonal ``table`` over 2**k basis states.

    Equals ``simulate(build_qaoa_circuit(g, params))`` for
    ``table = energy_table(g)``, global phase included: each cost layer is the
    diagonal phase exp(-i gamma C) and each mixer RX(2 beta) on every qubit,
    applied in place as a 2x2 update on a view that isolates the qubit's axis.
    """
    k = table.size.bit_length() - 1
    psi = np.full(table.size, 2.0 ** (-k / 2), dtype=complex)
    for gamma, beta in zip(params.gamma, params.beta):
        psi *= np.exp(-1j * gamma * table)
        c, s = np.cos(beta), -1j * np.sin(beta)
        for q in range(k):
            # RX = c*I + s*X, and X on qubit q swaps the two halves of its axis.
            view = psi.reshape(1 << (k - 1 - q), 2, 1 << q)
            flipped = s * view[:, ::-1, :]
            view *= c
            view += flipped
    return psi


def probabilities(state: np.ndarray) -> np.ndarray:
    p = np.abs(state) ** 2
    return p / p.sum()


def sample_counts(state: np.ndarray, shots: int, seed=None) -> dict[int, int]:
    """Sample basis indices from |state|^2; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(len(state), size=shots, p=probabilities(state))
    values, counts = np.unique(outcomes, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def permute_qubits(state: np.ndarray, perm) -> np.ndarray:
    """Relabel qubits: output qubit ``i`` carries input qubit ``perm[i]``."""
    n = int(np.log2(len(state)))
    axes = [_axis(perm[n - 1 - ax], n) for ax in range(n)]
    return np.transpose(state.reshape([2] * n), axes).reshape(-1)


def states_equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Amplitude-wise equality after aligning global phase."""
    if a.shape != b.shape:
        return False
    k = int(np.argmax(np.abs(a)))
    if abs(b[k]) < 1e-12:
        return False
    phase = a[k] / b[k]
    phase /= abs(phase)
    return bool(np.max(np.abs(a - phase * b)) < tol)
