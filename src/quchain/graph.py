"""Node- and edge-weighted graphs encoding Ising Hamiltonians, plus file I/O.

A :class:`WeightGraph` stores one spin Hamiltonian

    H = sum_{(u,v)} J_uv Z_u Z_v + sum_i h_i Z_i

as a graph: vertex ``i`` carries the bias ``h_i``, edge ``(u, v)`` carries
the coupling ``J_uv``.  A constant ``offset`` is kept alongside so that
energies can be reported in the units of the original objective function.
The graph owns the scoring rules: :meth:`WeightGraph.energies` scores sampled
spin rows, :meth:`WeightGraph.energy` one assignment through it, and
:meth:`WeightGraph.objective` turns an energy back into the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError
from .validate import integer, json_object, only_fields, real, records, required

#: JSON layout, also the on-disk interchange format:
#: {"offset": r, "nodes": [{"id": i, "w": r}...], "edges": [{"u": a, "v": b, "w": r}...]}
#: nodes sorted by id, edges sorted by (u, v) with u < v, reals written with
#: 17 significant digits.


def _fmt_real(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # canonical form folds -0.0 into 0.0
    return format(x, ".17g")


class _GraphError(ParseError, ValueError):
    """A fault in a graph's nodes or in one edge, located at ``nodes``,
    ``edges[k]`` or one of its endpoints: a document's row, or the position
    in the constructor's list."""


@dataclass
class WeightGraph:
    """Undirected weighted graph over nodes ``0..n-1``.

    ``nodes`` is a list of ``(id, weight)`` and ``edges`` a list of
    ``(u, v, weight)``.  The constructor canonicalizes: nodes are sorted by
    id, edges by ``(u, v)`` with ``u < v``.  Zero-weight nodes are retained;
    undeclared endpoints, self loops and duplicate edges are rejected.  Each
    fault raises a :class:`ValueError` that is also a :class:`ParseError`
    located at ``nodes``, at the endpoint's ``edges[k].u`` or ``.v``, or at
    the edge's ``edges[k]``, the later row of a duplicate.  This is the one
    judge of a graph's structure; :func:`loads_graph` only decodes rows.
    """

    nodes: list[tuple[int, float]]
    edges: list[tuple[int, int, float]] = field(default_factory=list)
    offset: float = 0.0

    def __post_init__(self):
        nodes = sorted((int(i), float(w)) for i, w in self.nodes)
        if not nodes:
            raise _GraphError("graph needs at least one node", "nodes")
        ids = [i for i, _ in nodes]
        if ids != list(range(len(ids))):
            raise _GraphError(f"node ids must be exactly 0..{len(ids) - 1}, got {ids}", "nodes")
        edges = []
        seen = set()
        for k, (u, v, w) in enumerate(self.edges):
            where = f"edges[{k}]"
            u, v = int(u), int(v)
            for name, i in (("u", u), ("v", v)):
                if not 0 <= i < len(ids):
                    raise _GraphError(f"endpoint {i} is not a declared node", f"{where}.{name}")
            if u == v:
                raise _GraphError(f"self loop on node {u}", where)
            u, v = min(u, v), max(u, v)
            if (u, v) in seen:
                raise _GraphError(f"duplicate edge ({u},{v})", where)
            seen.add((u, v))
            edges.append((u, v, float(w)))
        self.nodes = nodes
        self.edges = sorted(edges)
        self.offset = float(self.offset)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {i: [] for i, _ in self.nodes}
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def energy(self, spins) -> float:
        """Hamiltonian value for a +/-1 assignment of the ``n`` nodes, offset
        excluded, as :meth:`energies` scores it."""
        for s in spins:
            if s not in (-1, 1):
                raise ValueError(f"spins must be +/-1, got {s}")
        return float(self.energies([spins])[0])

    def energies(self, spins) -> np.ndarray:
        """Hamiltonian value of each row of an (m, n) array of +/-1 spins,
        offset excluded: the edge terms in ``edges`` order, then the node sum.
        A width other than ``n`` raises ``ValueError``."""
        cols = np.asarray(spins, dtype=float).T  # one row per qubit
        if cols.ndim != 2 or len(cols) != self.n:
            raise ValueError(f"expected rows of {self.n} spins, got shape {cols.T.shape}")
        energy = np.zeros(cols.shape[1])
        for u, v, w in self.edges:
            energy += w * cols[u] * cols[v]
        node_sum = np.zeros(cols.shape[1])
        for i, w in self.nodes:
            node_sum += w * cols[i]
        return energy + node_sum

    def objective(self, energy, sense: str):
        """The original objective for ``energy``, a float or an array: plus
        ``offset``, negated when ``sense`` is "max", with -0.0 folded into 0.0.
        A ``sense`` other than "min" or "max" raises ``ValueError``."""
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        value = energy + self.offset
        return (-value if sense == "max" else value) + 0.0  # -0.0 + 0.0 is 0.0

    def induced_subgraph(self, keep: set[int]) -> tuple["WeightGraph", list[int]]:
        """Induced subgraph on ``keep``, relabeled to 0..k-1.

        Returns the subgraph and the index map (subgraph node -> original id).
        """
        index_map = sorted(keep)
        pos = {orig: i for i, orig in enumerate(index_map)}
        nodes = [(pos[i], w) for i, w in self.nodes if i in keep]
        edges = [(pos[u], pos[v], w) for u, v, w in self.edges if u in keep and v in keep]
        return WeightGraph(nodes=nodes, edges=edges, offset=0.0), index_map


def dumps_graph(g: WeightGraph) -> str:
    """Render the canonical JSON text for ``g`` (deterministic bytes)."""
    lines = ["{", f'  "offset": {_fmt_real(g.offset)},', '  "nodes": [']
    node_rows = [f'    {{"id": {i}, "w": {_fmt_real(w)}}}' for i, w in g.nodes]
    lines.append(",\n".join(node_rows))
    lines.append('  ],')
    lines.append('  "edges": [')
    edge_rows = [f'    {{"u": {u}, "v": {v}, "w": {_fmt_real(w)}}}' for u, v, w in g.edges]
    lines.append(",\n".join(edge_rows))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(line for line in lines if line != "") + "\n"


def loads_graph(text: str) -> WeightGraph:
    """Parse the JSON interchange format; errors carry a field location.

    The first fault found is reported, checking in this order: the top-level
    fields, every node row, then every edge row, and last the graph itself,
    which judges its structure (see :class:`WeightGraph`): node ids other
    than 0..n-1, a duplicate among them included, at ``nodes``, then each
    edge's undeclared endpoint at ``edges[k].u`` or ``.v``, self loop or
    duplicate at its row.
    """
    doc = json_object(text)
    only_fields(doc, ("offset", "nodes", "edges"), "$")
    offset = real(required(doc, "offset", "$"), "offset")
    raw_nodes = required(doc, "nodes", "$")
    raw_edges = required(doc, "edges", "$")
    nodes = records(raw_nodes, "nodes", {"id": integer, "w": real}, closed=True, nonempty=True)
    edges = records(raw_edges, "edges", {"u": integer, "v": integer, "w": real}, closed=True)
    return WeightGraph(nodes=nodes, edges=edges, offset=offset)


def write_graph(g: WeightGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_graph(g))


def read_graph(path) -> WeightGraph:
    with open(path, encoding="utf-8") as f:
        return loads_graph(f.read())
