"""Reference computations that tests compare the library against.

The exhaustive searches are exponential or factorial in their input; the
full-simulation references build and simulate the whole circuit gate by
gate.  Only tests call them, so they live with the tests, not in the
package.
"""

from __future__ import annotations

import itertools

import numpy as np

from quchain import (
    CapacityError,
    QaoaParams,
    WeightGraph,
    build_qaoa_circuit,
    build_template,
    energy_table,
    probabilities,
    simulate,
)
from quchain.hardware import ChipModel, path_fidelity
from quchain.simulator import _axis


def exhaustive_best_mapping(
    g: WeightGraph, n: int | None = None
) -> tuple[tuple[int, ...], int]:
    """Brute-force optimum over all placements of ``g`` on an n-position chain."""
    k = g.n
    n = k if n is None else int(n)
    if n > 9:
        raise ValueError("exhaustive mapping search is limited to n <= 9")
    if n == 1:
        return (0,), 0
    exer = build_template(n).table
    best_map, best_cost = None, None
    for perm in itertools.permutations(range(n), k):
        c = max((exer[perm[u], perm[v]] for u, v, _ in g.edges), default=0)
        if best_cost is None or c < best_cost:
            best_map, best_cost = perm, int(c)
    return tuple(best_map), best_cost


def four_step_walk(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chain template walked pair by pair from its four-step block.

    The block is RZZ on (0, 1), (2, 3), ...; RZZ on (1, 2), (3, 4), ...;
    SWAP on (1, 2), (3, 4), ...; SWAP on (0, 1), (2, 3), ....  Even n runs
    n/2 blocks less the last two SWAP cycles, odd n floor(n/2) blocks and
    one more RZZ on (0, 1), (2, 3), ....  Returns ``(table, where, order)``
    as ``Template`` defines them; a pair that meets twice fails an assertion.
    """
    even = [(a, a + 1) for a in range(0, n - 1, 2)]
    odd = [(a, a + 1) for a in range(1, n - 1, 2)]
    steps = [("rzz", even), ("rzz", odd), ("swap", odd), ("swap", even)] * (n // 2)
    steps = steps[:-2] if n % 2 == 0 else steps + [("rzz", even)]
    item = list(range(n))  # chain position -> the initial position it holds
    table = np.zeros((n, n), dtype=np.int64)
    where = np.zeros((n, n), dtype=np.int64)
    order = [list(item)]
    for cycle, (kind, pairs) in enumerate(steps, start=1):
        for a, b in pairs:
            i, j = item[a], item[b]
            if kind == "rzz":
                assert table[i, j] == 0, f"positions {i} and {j} meet twice at n={n}"
                table[i, j] = table[j, i] = cycle
                where[i, j] = where[j, i] = a
            else:
                item[a], item[b] = j, i
        order.append(list(item))
    return table, where, np.array(order)


def _canonical(path: tuple[int, ...]) -> tuple[int, ...]:
    return path if path[0] <= path[-1] else tuple(reversed(path))


def enumerate_simple_paths(chip: ChipModel, length: int) -> list[tuple[int, ...]]:
    """All simple paths of ``length`` qubits, deduplicated up to reversal."""
    if chip.n > 12:
        raise CapacityError("exhaustive path enumeration is limited to 12 qubits")
    adj = chip.adjacency()
    out: set[tuple[int, ...]] = set()

    def grow(path: tuple[int, ...]):
        if len(path) == length:
            out.add(_canonical(path))
            return
        for nxt in adj[path[-1]]:
            if nxt not in path:
                grow(path + (nxt,))

    for q in adj:
        grow((q,))
    return sorted(out)


def exhaustive_library_entries(chip: ChipModel) -> dict[int, list[tuple[int, ...]]]:
    """Every simple path of each length 2..n, ordered as the library orders
    its candidates (fidelity descending, then path)."""
    return {
        k: sorted(
            enumerate_simple_paths(chip, k),
            key=lambda p: (-path_fidelity(chip, p), p),
        )
        for k in range(2, chip.n + 1)
    }


def expectation_full(g: WeightGraph, params: QaoaParams) -> float:
    """<gamma,beta| H_C |gamma,beta> by full statevector simulation."""
    state = simulate(build_qaoa_circuit(g, params))
    return float(probabilities(state) @ energy_table(g))


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


def row_energies(g: WeightGraph, spins) -> list[float]:
    """Each row's Hamiltonian value, offset excluded, one row at a time in
    Python floats: the edge terms in ``g.edges`` order from 0.0, then the
    node terms from 0.0, then their sum."""
    out = []
    for row in spins:
        edge_sum = 0.0
        for u, v, w in g.edges:
            edge_sum += w * row[u] * row[v]
        node_sum = 0.0
        for i, w in g.nodes:
            node_sum += w * row[i]
        out.append(float(edge_sum + node_sum))
    return out
