"""Exhaustive reference searches that tests compare the library against.

Each one is exponential or factorial in its input, so it lives with the
tests, not in the package.
"""

from __future__ import annotations

import itertools

from quchain import CapacityError, WeightGraph, build_exer_table
from quchain.hardware import ChipModel, path_fidelity


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
    exer = build_exer_table(n).table
    best_map, best_cost = None, None
    for perm in itertools.permutations(range(n), k):
        c = max((exer[perm[u], perm[v]] for u, v, _ in g.edges), default=0)
        if best_cost is None or c < best_cost:
            best_map, best_cost = perm, int(c)
    return tuple(best_map), best_cost


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
