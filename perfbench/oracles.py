"""Correctness oracles computed by the benchmark, independent of quchain.

Energies come from the graph's edge and node lists (and objectives from the
QUBO matrix) with plain NumPy, never from ``energy_table`` or
``WeightGraph.energy``.  Couplers come from the calibration JSON read with the
standard ``json`` module.  Each check returns a list of failure messages.
"""

from __future__ import annotations

import json

import numpy as np

TOL = 1e-9


def spectrum(n: int, edges, nodes) -> np.ndarray:
    """C(z) for every basis index, little-endian, z = 1 - 2*bit (offset excluded)."""
    idx = np.arange(1 << n)
    z = 1 - 2 * ((idx[:, None] >> np.arange(n)) & 1)
    energy = np.zeros(1 << n)
    for u, v, w in edges:
        energy += w * z[:, u] * z[:, v]
    for i, w in nodes:
        energy += w * z[:, i]
    return energy


def basis_index(bits: str) -> int:
    """Count keys are in logical order: character l is the bit of qubit l."""
    return int(bits[::-1], 2)


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, scale)


def check_ranked(ranked, counts, shots, spec, q, offset, sense, where) -> list[str]:
    """Ranked rows score every sampled bitstring with the oracle's energy and
    the QUBO objective, and the counts cover every shot.

    Bit b is spin z = 1 - 2b and the QUBO variable is x = (1 + z)/2 = 1 - b.
    """
    errs = []
    if sum(counts.values()) != shots:
        errs.append(f"{where}: counts sum to {sum(counts.values())}, not {shots}")
    if len(ranked.rows) != len(counts):
        errs.append(f"{where}: {len(ranked.rows)} ranked rows for {len(counts)} bitstrings")
    scale = float(np.max(np.abs(spec)))
    sign = -1.0 if sense == "max" else 1.0
    prev = -np.inf
    for row in ranked.rows:
        e = float(spec[basis_index(row.bitstring)])
        x = np.array([1 - int(b) for b in row.bitstring], dtype=float)
        objective = sign * (float(x @ q @ x) + offset)
        if not _close(row.energy, e, scale):
            errs.append(f"{where}: {row.bitstring} energy {row.energy!r}, oracle {e!r}")
            break
        if not _close(row.objective, objective, abs(objective) + scale):
            errs.append(f"{where}: {row.bitstring} objective {row.objective!r}, QUBO {objective!r}")
            break
        if row.energy < prev - TOL * max(1.0, scale):
            errs.append(f"{where}: rows are not sorted by energy")
            break
        prev = row.energy
        if counts.get(row.bitstring) != row.count:
            errs.append(f"{where}: {row.bitstring} count {row.count} differs from the result")
            break
    return errs


def best_sampled_is_optimal(counts, spec) -> bool:
    best = min(float(spec[basis_index(b)]) for b in counts)
    return best <= float(spec.min()) + TOL * max(1.0, float(np.max(np.abs(spec))))


def check_expectation(energy, state, spec, where) -> list[str]:
    """The optimizer's energy equals <psi|C|psi> of the state it names, and
    lies inside the spectrum."""
    errs = []
    scale = float(np.max(np.abs(spec)))
    if not spec.min() - TOL * scale <= energy <= spec.max() + TOL * scale:
        errs.append(f"{where}: energy {energy!r} outside the spectrum")
    probs = np.abs(state) ** 2
    direct = float(probs @ spec / probs.sum())
    if not _close(energy, direct, scale):
        errs.append(f"{where}: optimizer energy {energy!r}, state expectation {direct!r}")
    return errs


def f2q_from_json(text: str) -> dict[tuple[int, int], float]:
    """Two-qubit fidelity per coupler, keyed by (low, high) qubit id."""
    doc = json.loads(text)
    return {(min(c["a"], c["b"]), max(c["a"], c["b"])): float(c["f2q"]) for c in doc["couplers"]}


def chain_fidelity(f2q: dict[tuple[int, int], float], chain) -> float:
    f = 1.0
    for a, b in zip(chain, chain[1:]):
        f *= f2q[(min(a, b), max(a, b))]
    return f


def check_couplers(pc, couplers, where) -> list[str]:
    for gate in pc.gates():
        if gate.kind == "cnot":
            a, b = gate.qubits
            if (min(a, b), max(a, b)) not in couplers:
                return [f"{where}: cnot {gate.qubits} is not on a calibrated coupler"]
    return []


def check_round_trip(pc, back, where) -> list[str]:
    """parse(emit(pc)) reproduces the gate list and the measurement layout."""
    if list(back.gates()) != list(pc.gates()):
        return [f"{where}: parsed gate list differs from the compiled one"]
    if back.final_layout != pc.final_layout:
        return [f"{where}: parsed layout differs from the compiled one"]
    return []
