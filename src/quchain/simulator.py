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


def _axis(q: int, n: int) -> int:
    # C-order reshape puts qubit 0 (least-significant bit) on the last axis.
    return n - 1 - q


_SPIN = np.array([1.0, -1.0])  # z = 1 - 2*bit
_H_DIAG = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)  # H = (Z + X)/sqrt2


def spin_product(n: int, support) -> np.ndarray:
    """prod_{q in support} z_q, shaped to broadcast against the ``[2] * n`` view."""
    tensor = np.float64(1.0)
    for q in support:
        shape = [1] * n
        shape[_axis(q, n)] = 2
        tensor = tensor * _SPIN.reshape(shape)
    return tensor


def phase(psi: np.ndarray, n: int, support, theta: float) -> None:
    """psi <- exp(-i theta/2 prod_{q in support} Z_q) psi, in place."""
    view = psi.reshape([2] * n)
    view *= np.exp(-0.5j * theta * spin_product(n, support))


def mix(psi: np.ndarray, q: int, d, s) -> None:
    """psi <- d psi + s X_q psi, in place, on the last axis of ``psi``.

    X on qubit q swaps the two halves of its axis in the ``(..., 2, 2**q)``
    view of the last axis, so any leading axes are carried along.  ``d`` and
    ``s`` are scalars or broadcast against that view: a per-bit column of
    shape (2, 1), or per-row coefficients shaped to the leading axes.
    """
    view = psi.reshape(*psi.shape[:-1], -1, 2, 1 << q)
    flipped = s * view[..., ::-1, :]
    view *= d
    view += flipped


def _exchange(psi: np.ndarray, n: int, qubits, bits_a, bits_b) -> None:
    """Swap, in place, the amplitudes whose ``qubits`` read ``bits_a`` with
    those that read ``bits_b``."""
    view = psi.reshape([2] * n)
    ia, ib = [slice(None)] * n, [slice(None)] * n
    for q, a, b in zip(qubits, bits_a, bits_b):
        # Length-1 slices keep every axis, so both sides stay views.
        ia[_axis(q, n)], ib[_axis(q, n)] = slice(a, a + 1), slice(b, b + 1)
    first, second = view[tuple(ia)], view[tuple(ib)]
    held = first.copy()
    first[...] = second
    second[...] = held


def apply_gate(state: np.ndarray, gate: Gate, n: int) -> np.ndarray:
    """Apply ``gate`` to the C-contiguous complex ``state`` in place; returns ``state``."""
    if not state.flags.c_contiguous:  # reshape would copy and the update would be lost
        raise ValueError("apply_gate needs a C-contiguous state")
    kind, qubits = gate.kind, gate.qubits
    if kind in ("rz", "rzz"):
        phase(state, n, qubits, gate.angle)
    elif kind == "rx":
        t = gate.angle / 2.0
        mix(state, qubits[0], np.cos(t), -1j * np.sin(t))
    elif kind == "h":
        mix(state, qubits[0], _H_DIAG, 1.0 / np.sqrt(2.0))
    elif kind == "cnot":
        _exchange(state, n, qubits, (1, 0), (1, 1))
    elif kind == "swap":
        _exchange(state, n, qubits, (0, 1), (1, 0))
    else:
        raise ValueError(f"cannot simulate gate kind {kind!r}")
    return state


def simulate_gates(n: int, gates) -> np.ndarray:
    """Exact statevector after applying ``gates`` to |0...0>."""
    if n > QUBIT_LIMIT:
        raise CapacityError(f"{n} qubits exceeds the simulator limit of {QUBIT_LIMIT}")
    if n < 1:
        raise ValueError("need at least one qubit")
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for g in gates:
        apply_gate(state, g, n)
    return state


def simulate(circuit: LogicalCircuit) -> np.ndarray:
    return simulate_gates(circuit.n, circuit.gates)


def qaoa_state(tables: np.ndarray, params) -> np.ndarray:
    """QAOA statevectors from cost diagonals over 2**k basis states.

    ``tables`` is one diagonal of shape (2**k,) or a stack of them, shape
    (C, 2**k); ``params`` is one :class:`QaoaParams`, giving a state of the
    shape of ``tables``, or a sequence of B of one depth, giving states of
    shape ``(B, *tables.shape)``.  For ``table = energy_table(g)``,
    ``qaoa_state(table, params)`` equals
    ``simulate(build_qaoa_circuit(g, params))``, global phase included: each
    cost layer is the diagonal phase exp(-i gamma C) and each mixer RX(2 beta)
    on every qubit, applied in place by :func:`mix`.  Every row gets the
    arithmetic of a single-point call, so batched and single states are
    bit-equal.
    """
    k = tables.shape[-1].bit_length() - 1
    single = isinstance(params, QaoaParams)
    points = [params] if single else params
    if len(points) == 1:  # scalar angles: no broadcast overhead
        layers = zip(points[0].gamma, points[0].beta)
        rows = ()
    else:
        # (p, B) so that each layer's angles are contiguous, shaped to
        # broadcast against the tables and against mix's (B, ..., 2, 2**q) view.
        gammas = np.array([pt.gamma for pt in points]).T.copy()
        betas = np.array([pt.beta for pt in points]).T.copy()
        layers = zip(gammas.reshape(-1, len(points), *(1,) * tables.ndim),
                     betas.reshape(-1, len(points), 1, 1, 1))
        rows = (len(points),)
    # The cone axis merges with the high qubits: one mix call serves every cone.
    psi = np.full((*rows, tables.size), 2.0 ** (-k / 2), dtype=complex)
    for gamma, beta in layers:
        factor = -1j * gamma * tables
        psi *= np.exp(factor, out=factor).reshape(psi.shape)
        del factor  # at most one state-sized temporary, here or in mix
        c, s = np.cos(beta), -1j * np.sin(beta)
        for q in range(k):
            mix(psi, q, c, s)
    return psi.reshape(tables.shape if single else (len(points), *tables.shape))


def probabilities(state: np.ndarray) -> np.ndarray:
    p = np.abs(state) ** 2
    return p / p.sum()


def sample_counts(state: np.ndarray, shots: int, seed=None) -> dict[int, int]:
    """Sample basis indices from |state|^2; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(len(state), size=shots, p=probabilities(state))
    values, counts = np.unique(outcomes, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}

