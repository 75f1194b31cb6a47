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
from .validate import as_index, is_real, json_object, only_fields, real, records, required

#: JSON layout, also the on-disk interchange format:
#: {"offset": r, "nodes": [{"id": i, "w": r}...], "edges": [{"u": a, "v": b, "w": r}...]}
#: nodes sorted by id, edges sorted by (u, v) with u < v, reals written with
#: 17 significant digits.

#: Largest sum of |w| over a graph's nodes and edges, plus |offset|.  Within it
#: the cost phases gamma * C(z) and the fitted p=1 lines stay finite at every
#: gamma the optimizer visits; one edge of 1e308 overflows gamma * C at gamma
#: near pi, although its sum is finite.
WEIGHT_LIMIT = 1e300


def _fmt_real(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # canonical form folds -0.0 into 0.0
    return format(x, ".17g")


def _weight(w, total: float, where: str, k: int = 0) -> tuple[float, float]:
    """``w`` as a float (:func:`~quchain.validate.real`) and ``total`` plus
    |w|, or the located :class:`ParseError` when ``w`` is not a real or that
    sum passes ``WEIGHT_LIMIT``; ``where`` is formatted with ``k`` only on a
    fault, as graphs of thousands of edges pass through here."""
    w = float(w) if is_real(w) else real(w, where.format(k))
    if (total := total + abs(w)) > WEIGHT_LIMIT:
        raise ParseError(f"weights sum past the limit of {WEIGHT_LIMIT:g}", where.format(k))
    return w, total


@dataclass
class WeightGraph:
    """Undirected weighted graph over nodes ``0..n-1``.

    ``nodes`` is a list of ``(id, weight)`` and ``edges`` a list of
    ``(u, v, weight)``.  The constructor canonicalizes: nodes are sorted by
    id, edges by ``(u, v)`` with ``u < v``, ids and endpoints become ints,
    weights and ``offset`` floats.  Zero-weight nodes are retained.  The
    first fault raises a :class:`ParseError` (a :class:`ValueError`),
    checking in this order: node by node, an id that is not a non-negative
    int (:func:`~quchain.validate.as_index`; bools and floats fail) at
    ``nodes[k].id``, then a weight that is not a finite real number
    (:func:`~quchain.validate.is_real`; strings and bools fail) at
    ``nodes[k].w``; no node at all, and ids other than 0..n-1, at
    ``nodes``; edge by edge, an endpoint that is not a declared node's id at
    ``edges[k].u`` or ``.v``, a self loop or a duplicate (the later row) at
    ``edges[k]``, a bad weight at ``edges[k].w``; last a bad ``offset``.  A
    graph whose sum of |w| over nodes and edges plus |offset| is above
    ``WEIGHT_LIMIT`` fails too, located at the row (in the order nodes,
    edges, offset) where the running sum passes the limit.  This is the one
    judge of a graph's values and structure; :func:`loads_graph` only
    decodes rows, so a graph built in code fails as its document does.
    """

    nodes: list[tuple[int, float]]
    edges: list[tuple[int, int, float]] = field(default_factory=list)
    offset: float = 0.0

    def __post_init__(self):
        nodes = []
        total = 0.0  # sum of |w| over the rows so far, in the caller's order
        for k, (i, w) in enumerate(self.nodes):
            node = as_index(i)
            if node is None:
                raise ParseError(f"node id {i!r} is not a non-negative int", f"nodes[{k}].id")
            w, total = _weight(w, total, "nodes[{}].w", k)
            nodes.append((node, w))
        if not nodes:
            raise ParseError("graph needs at least one node", "nodes")
        nodes.sort()
        ids = [i for i, _ in nodes]
        n = len(ids)
        if ids != list(range(n)):
            raise ParseError(f"node ids must be exactly 0..{n - 1}, got {ids}", "nodes")
        edges = []
        seen = set()
        for k, (u, v, w) in enumerate(self.edges):
            a, b = as_index(u, n), as_index(v, n)
            if a is None or b is None:
                name, x = ("u", u) if a is None else ("v", v)
                raise ParseError(f"endpoint {x!r} is not a declared node", f"edges[{k}].{name}")
            if a == b:
                raise ParseError(f"self loop on node {a}", f"edges[{k}]")
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise ParseError(f"duplicate edge ({key[0]},{key[1]})", f"edges[{k}]")
            seen.add(key)
            w, total = _weight(w, total, "edges[{}].w", k)
            edges.append((*key, w))
        self.nodes = nodes
        self.edges = sorted(edges)
        self.offset, _ = _weight(self.offset, total, "offset")

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

    The reader only decodes the document's shape and hands the raw values to
    :class:`WeightGraph`, which judges them.  The first fault found is
    reported: first the shape, in this order: the top-level fields, the node
    rows, the edge rows (see :func:`~quchain.validate.records`); then the
    graph's values and structure, in the order :class:`WeightGraph` gives.
    """
    doc = json_object(text)
    only_fields(doc, ("offset", "nodes", "edges"), "$")
    offset, nodes, edges = (required(doc, key, "$") for key in ("offset", "nodes", "edges"))
    return WeightGraph(nodes=records(nodes, "nodes", ("id", "w"), closed=True),
                       edges=records(edges, "edges", ("u", "v", "w"), closed=True),
                       offset=offset)


def write_graph(g: WeightGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_graph(g))


def read_graph(path) -> WeightGraph:
    with open(path, encoding="utf-8") as f:
        return loads_graph(f.read())
