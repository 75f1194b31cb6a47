"""Node- and edge-weighted graphs encoding Ising Hamiltonians, plus file I/O.

A :class:`WeightGraph` stores one spin Hamiltonian

    H = sum_{(u,v)} J_uv Z_u Z_v + sum_i h_i Z_i

as a graph: vertex ``i`` carries the bias ``h_i``, edge ``(u, v)`` carries
the coupling ``J_uv``.  A constant ``offset`` is kept alongside so that
energies can be reported in the units of the original objective function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """A fault in a graph's nodes or in one edge, located at ``nodes`` or
    ``edges[k]``: a document's row, or the position in the constructor's
    list."""


@dataclass
class WeightGraph:
    """Undirected weighted graph over nodes ``0..n-1``.

    ``nodes`` is a list of ``(id, weight)`` and ``edges`` a list of
    ``(u, v, weight)``.  The constructor canonicalizes: nodes are sorted by
    id, edges by ``(u, v)`` with ``u < v``.  Zero-weight nodes are retained;
    self loops and duplicate edges are rejected.  Each fault raises a
    :class:`ValueError` that is also a :class:`ParseError` located at
    ``nodes`` or at the edge's ``edges[k]``, the later row of a duplicate.
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
            u, v = int(u), int(v)
            if u == v:
                raise _GraphError(f"self loop on node {u}", f"edges[{k}]")
            if u > v:
                u, v = v, u
            if not (0 <= u < len(ids) and 0 <= v < len(ids)):
                raise _GraphError(f"edge ({u},{v}) references a missing node", f"edges[{k}]")
            if (u, v) in seen:
                raise _GraphError(f"duplicate edge ({u},{v})", f"edges[{k}]")
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
        """Hamiltonian value for a +/-1 assignment, offset excluded."""
        if len(spins) != self.n:
            raise ValueError(f"expected {self.n} spins, got {len(spins)}")
        for s in spins:
            if s not in (-1, 1):
                raise ValueError(f"spins must be +/-1, got {s}")
        e = sum(w * spins[u] * spins[v] for u, v, w in self.edges)
        e += sum(w * spins[i] for i, w in self.nodes)
        return float(e)

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
    fields, every node row, duplicate node ids, then every edge row, whose
    endpoints must be declared nodes, and last the graph itself, which
    locates its faults (see :class:`WeightGraph`): node ids other than
    0..n-1 at ``nodes``, then each self loop or duplicate edge at its row.
    """
    doc = json_object(text)
    only_fields(doc, ("offset", "nodes", "edges"), "$")
    offset = real(required(doc, "offset", "$"), "offset")
    raw_nodes = required(doc, "nodes", "$")
    raw_edges = required(doc, "edges", "$")
    nodes = records(raw_nodes, "nodes", {"id": integer, "w": real}, closed=True, nonempty=True)
    known = {i for i, _ in nodes}
    if len(known) != len(nodes):
        raise ParseError("duplicate node id", "nodes")

    def endpoint(value, where):
        i = integer(value, where)
        if i not in known:
            raise ParseError(f"endpoint {i} is not a declared node", where)
        return i

    edges = records(raw_edges, "edges", {"u": endpoint, "v": endpoint, "w": real}, closed=True)
    return WeightGraph(nodes=nodes, edges=edges, offset=offset)


def write_graph(g: WeightGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_graph(g))


def read_graph(path) -> WeightGraph:
    with open(path, encoding="utf-8") as f:
        return loads_graph(f.read())
