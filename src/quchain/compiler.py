"""Structured compilation of QAOA circuits onto a 1-D coupled chain.

The compiler is template driven.  A chain of n positions runs a fixed
four-step pattern (i = 0, 1, 2, ...):

    1. RZZ between all (p_2i, p_2i+1)
    2. RZZ between all (p_2i+1, p_2i+2)
    3. SWAP between all (p_2i+1, p_2i+2)
    4. SWAP between all (p_2i, p_2i+1)

Repeating the block brings every pair of initially-placed qubits adjacent in
exactly one RZZ layer; the full pattern takes 2n-2 cycles for even n and
2n-1 for odd n.  Because the pattern is fixed, where any two initial
positions meet, cycle and chain pair, is a pure function of n (the ExeR
table).  Mapping selection searches it so that the last graph edge meets as
early as possible, and one walk of the template reads every edge's RZZ slot
from it and yields the scheduled layers as (chain positions, angle) rows.

``compile_graph`` expands those rows in one pass into native CNOT/RZ gates
on the chain's wires, merging an RZZ and a SWAP on one pair into three
CNOTs (Jin et al., "A structured method for compilation of QAOA circuits in
quantum computing", arXiv:2112.06143).  ``schedule`` wraps the same rows
into RZZ/SWAP gates for the tested reference, ``decompose_gates`` followed
by the ``optimize_circuit`` peephole pass; one as-soon-as-possible placer
packs the gates of both routes into cycles.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .circuits import Gate, QaoaParams
from .errors import CapacityError
from .graph import WeightGraph


@dataclass(frozen=True)
class TemplateLayer:
    kind: str  # "rzz" | "swap"
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Template:
    n: int
    layers: tuple[TemplateLayer, ...]


@lru_cache(maxsize=256)
def build_template(n: int) -> Template:
    """Fixed RZZ/SWAP interleaving for an n-position chain.

    Even n runs n/2 four-step blocks with the two trailing SWAP layers
    trimmed (they carry no further meetings); odd n runs floor(n/2) blocks
    plus one closing RZZ layer.  Total cycles: 2n-2 / 2n-1.
    """
    if n < 2:
        raise ValueError(f"template needs at least 2 positions, got {n}")
    even_pairs = tuple((i, i + 1) for i in range(0, n - 1, 2))
    odd_pairs = tuple((i, i + 1) for i in range(1, n - 1, 2))
    block = (
        TemplateLayer("rzz", even_pairs),
        TemplateLayer("rzz", odd_pairs),
        TemplateLayer("swap", odd_pairs),
        TemplateLayer("swap", even_pairs),
    )
    layers: list[TemplateLayer] = []
    for _ in range(n // 2):
        layers.extend(block)
    if n % 2 == 0:
        layers = layers[:-2]
    else:
        layers.append(TemplateLayer("rzz", even_pairs))
    return Template(n=n, layers=tuple(layers))


@dataclass(frozen=True, eq=False)
class ExeRTable:
    """Where two initial positions meet for their RZZ.

    ``table[i, j]`` is the (1-based) cycle and ``where[i, j]`` the lower
    chain position of the template pair on which positions i and j meet.
    Both arrays are read-only: ``build_exer_table`` hands one instance to
    every caller in the process.
    """

    n: int
    table: np.ndarray  # (n, n) int64, symmetric, zero diagonal
    where: np.ndarray  # (n, n) int64, symmetric, zero diagonal


@lru_cache(maxsize=256)
def build_exer_table(n: int) -> ExeRTable:
    """Simulate the template layer by layer and record every meeting."""
    table = np.zeros((n, n), dtype=np.int64)
    where = np.zeros((n, n), dtype=np.int64)
    item = list(range(n))  # position -> initially-placed index
    for cycle, layer in enumerate(build_template(n).layers, start=1):
        for a, b in layer.pairs:
            i, j = item[a], item[b]
            if layer.kind == "rzz":
                table[i, j] = table[j, i] = cycle
                where[i, j] = where[j, i] = a
            else:
                item[a], item[b] = j, i
    table.setflags(write=False)
    where.setflags(write=False)
    return ExeRTable(n=n, table=table, where=where)


def _cost_dtype(n: int):
    """Integer type for the mapping search's costs on an n-position chain.

    Costs never exceed the sentinel 10n+7.  int16 holds it up to n = 3,276,
    and NumPy's stable sort is a radix sort for integers of 16 bits or fewer.
    """
    return np.int16 if 10 * n + 7 <= np.iinfo(np.int16).max else np.int64


def search_initial_mapping(
    g: WeightGraph,
    n: int | None = None,
    b_max: int = 5,
) -> tuple[tuple[int, ...], int]:
    """Heuristic level search for a low-cost initial placement.

    Vertices are placed in descending-degree order (ties by ascending id),
    one tree level per vertex.  A node's cost is the latest RZZ cycle among
    edges to already-placed neighbors, accumulated as a running maximum along
    the path; per level, at most ``b_max`` nodes are retained per distinct
    cost value (insertion order: parent first, then ascending position).

    A level is whole-array steps over a (parents, positions) cost array:
    each parent's cost, a running maximum with the (symmetric) ExeR row of
    each placed neighbor's position, a sentinel on occupied positions, one
    stable sort, and a mask keeping the first ``b_max`` of each cost group.

    Returns the best mapping (logical -> position) and its predicted last
    RZZ cycle, which equals the last RZZ cycle of the schedule it induces.
    """
    k = g.n
    n = k if n is None else int(n)
    if k > n:
        raise CapacityError(f"graph has {k} nodes but the chain offers only {n}")
    if b_max < 1:
        raise ValueError("b_max must be at least 1")
    if n == 1:
        return (0,), 0
    dtype = _cost_dtype(n)
    exer = build_exer_table(n).table.astype(dtype)
    sentinel = dtype(10 * n + 7)

    adj = g.adjacency()
    order = sorted(range(k), key=lambda v: (-len(adj[v]), v))
    level_of = {v: level for level, v in enumerate(order)}
    maps = np.full((1, k), -1, dtype=np.int32)
    costs = np.zeros(1, dtype=dtype)
    for level, q in enumerate(order):
        cand = np.repeat(costs[:, None], n, axis=1)
        for m in adj[q]:
            if level_of[m] < level:
                np.maximum(cand, exer[maps[:, m]], out=cand)
        np.put_along_axis(cand, maps[:, order[:level]], sentinel, axis=1)
        flat = cand.ravel()  # parent-major, position-minor: the insertion order
        idx = np.argsort(flat, kind="stable")
        vals = flat[idx]
        pos = np.arange(len(vals))
        starts = np.r_[True, vals[1:] != vals[:-1]]
        rank = pos - np.maximum.accumulate(np.where(starts, pos, 0))
        keep = (rank < b_max) & (vals < sentinel)
        kept = idx[keep]
        maps = maps[kept // n]
        maps[:, q] = kept % n
        costs = vals[keep]
    best = int(np.argmin(costs))
    return tuple(int(x) for x in maps[best]), int(costs[best])


@dataclass
class ScheduledCircuit:
    """Layered RZZ/SWAP/RZ/RX/H circuit over chain positions, pre-decomposition.

    ``cost_cycles`` counts the retained template cycles over all QAOA layers
    (empty RZZ cycles included); this is the pre-decomposition depth metric.
    """

    n: int
    layers: list[list[Gate]]
    final_layout: tuple[int, ...]
    cost_cycles: int


def _layers(g: WeightGraph, mapping: tuple[int, ...], params: QaoaParams, n: int):
    """The walk behind ``schedule`` and ``compile_graph``.

    Returns the scheduled layers as ``(kind, rows)`` with each row
    ``(chain positions, angle)``, the final layout and the last RZZ cycle.
    """
    k = g.n
    meet: dict[int, list[tuple[int, float]]] = {}  # cycle -> [(position, J)]
    if g.edges:
        exer = build_exer_table(n)
        us, vs, ws = zip(*g.edges)
        ends = np.take(mapping, us), np.take(mapping, vs)
        for cycle, pos, w in zip(exer.table[ends].tolist(), exer.where[ends].tolist(), ws):
            meet.setdefault(cycle, []).append((pos, w))
    last_rzz = max(meet, default=0)

    retained: list[tuple[str, list]] = []
    item = list(range(n))  # chain position -> the initial position it holds
    template = build_template(n).layers[:last_rzz] if last_rzz else ()
    for cycle, layer in enumerate(template, start=1):
        if layer.kind == "swap":
            retained.append(("swap", [(pair, None) for pair in layer.pairs]))
            for a, b in layer.pairs:
                item[a], item[b] = item[b], item[a]
        elif cycle in meet:
            retained.append(("rzz", sorted(meet[cycle])))
    moved_to = {i: pos for pos, i in enumerate(item)}
    moved = tuple(moved_to[m] for m in mapping)

    layers: list[tuple[str, list]] = [("h", [((mapping[l],), None) for l in range(k)])]
    biased = [(i, w) for i, w in g.nodes if w != 0.0]
    for block in range(1, params.p + 1):
        gamma, beta = params.gamma[block - 1], params.beta[block - 1]
        start, end = (mapping, moved) if block % 2 == 1 else (moved, mapping)
        if biased:
            layers.append(("rz", [((start[i],), 2.0 * gamma * w) for i, w in biased]))
        for kind, items in retained if block % 2 == 1 else reversed(retained):
            if kind == "rzz":
                items = [((a, a + 1), 2.0 * gamma * w) for a, w in items]
            layers.append((kind, items))
        layers.append(("rx", [((end[l],), 2.0 * beta) for l in range(k)]))
    return layers, end, last_rzz


def schedule(
    g: WeightGraph,
    mapping,
    params: QaoaParams,
    n_positions: int | None = None,
) -> ScheduledCircuit:
    """Place the QAOA circuit onto the template under an initial mapping.

    Edge (u, v) gets RZZ(2*gamma*J_uv) at ExeR cycle ``table[m_u, m_v]`` on
    the pair at ``where[m_u, m_v]``, in position order within a cycle;
    cycles after the last RZZ are truncated.  Bias rotations RZ(2*gamma*h_i)
    open each cost block on the qubit's current position (they commute with
    the diagonal block).  Odd blocks run the retained cycles from
    ``mapping`` to ``moved``; even blocks replay them in reverse with their
    own angle, back to ``mapping``, which is the final layout for even p.
    """
    k = g.n
    mapping = tuple(int(m) for m in mapping)
    if len(mapping) != k or len(set(mapping)) != k:
        raise ValueError(f"mapping must assign {k} distinct positions")
    n = (max(mapping) + 1) if n_positions is None else int(n_positions)
    if any(not 0 <= m < n for m in mapping):
        raise ValueError("mapping position out of range")
    layers, end, last_rzz = _layers(g, mapping, params, n)
    return ScheduledCircuit(
        n=n,
        layers=[[Gate(kind, qs, angle) for qs, angle in rows] for kind, rows in layers],
        final_layout=end,
        cost_cycles=params.p * last_rzz,
    )


@dataclass
class PhysicalCircuit:
    """Cycle-scheduled gates over chain wires plus the measurement layout.

    ``final_layout[l]`` is the wire that holds logical qubit ``l`` after all
    SWAP permutations; measuring it into classical bit ``l`` hides the chain
    permutation from downstream decoders.  ``depth`` is dependency-DAG depth
    with unit gate cost, independent of how cycles happen to be packed.

    Gates are frozen, so one ``Gate`` may sit in many cycles.  Construction
    checks every gate's kind and wires and every cycle for a wire used twice;
    a circuit from the ASAP placer also records its depth then.  To change
    the cycles, build a new circuit.
    """

    n: int
    cycles: list[list[Gate]]
    final_layout: tuple[int, ...]
    scheduled_cost_cycles: int | None = None
    # set by ``_asap``, whose packing has the dependency depth as its cycle count
    _depth: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.final_layout = tuple(int(x) for x in self.final_layout)
        for c, cycle in enumerate(self.cycles):
            # a Gate's own operands are distinct, so a one-gate cycle reuses none
            seen: set[int] | None = set() if len(cycle) > 1 else None
            for gate in cycle:
                if gate.kind not in ("h", "rx", "rz", "cnot"):
                    raise ValueError(f"physical circuits cannot hold {gate.kind!r}")
                for q in gate.qubits:
                    if not 0 <= q < self.n:
                        raise ValueError(f"wire {q} outside register of {self.n}")
                    if seen is not None:
                        if q in seen:
                            raise ValueError(f"wire {q} used twice in cycle {c}")
                        seen.add(q)

    @property
    def n_logical(self) -> int:
        return len(self.final_layout)

    def gates(self):
        for cycle in self.cycles:
            yield from cycle

    @property
    def cnot_count(self) -> int:
        return sum(1 for g in self.gates() if g.kind == "cnot")

    @property
    def depth(self) -> int:
        if self._depth is not None:
            return self._depth
        front: dict[int, int] = {}
        depth = 0
        for gate in self.gates():
            c = 1 + max((front.get(q, 0) for q in gate.qubits), default=0)
            for q in gate.qubits:
                front[q] = c
            depth = max(depth, c)
        return depth


def decompose_gates(sched: ScheduledCircuit) -> PhysicalCircuit:
    """Expand RZZ and SWAP layers into the native CNOT/RZ gate set.

    RZZ(t)(a,b) -> CNOT(a,b) RZ(t)(b) CNOT(a,b); SWAP(a,b) -> CNOT(a,b)
    CNOT(b,a) CNOT(a,b); single-qubit gates pass through.  With
    ``optimize_circuit`` it is the reference pipeline ``compile_graph`` is
    tested against; ``compile_graph`` calls neither.
    """
    cycles: list[list[Gate]] = []
    for layer in sched.layers:
        kinds = {g.kind for g in layer}
        if kinds <= {"h", "rx", "rz"}:
            cycles.append(list(layer))
        elif kinds == {"rzz"}:
            cycles.append([Gate("cnot", g.qubits) for g in layer])
            cycles.append([Gate("rz", (g.qubits[1],), g.angle) for g in layer])
            cycles.append([Gate("cnot", g.qubits) for g in layer])
        elif kinds == {"swap"}:
            cycles.append([Gate("cnot", g.qubits) for g in layer])
            cycles.append([Gate("cnot", (g.qubits[1], g.qubits[0])) for g in layer])
            cycles.append([Gate("cnot", g.qubits) for g in layer])
        else:
            raise ValueError(f"mixed scheduled layer kinds {kinds}")
    return PhysicalCircuit(
        n=sched.n,
        cycles=cycles,
        final_layout=sched.final_layout,
        scheduled_cost_cycles=sched.cost_cycles,
    )


def optimize_circuit(pc: PhysicalCircuit) -> PhysicalCircuit:
    """Peephole pass: cancel adjacent identical CNOT pairs, then left-align.

    Two CNOTs with the same control and target cancel when no gate touches
    either wire in between; cancellations cascade.  Surviving gates are
    rescheduled as soon as possible, so the cycle count equals the dependency
    depth.  The unitary is preserved and depth/CNOT count never increase.
    Applied to ``decompose_gates``' output it is the reference that
    ``compile_graph``'s merged emission must equal.
    """
    kept: list[Gate | None] = []  # None marks a cancelled gate
    stacks: list[list[int]] = [[] for _ in range(pc.n)]  # per wire: surviving gates
    for gate in pc.gates():
        on = [stacks[q] for q in gate.qubits]
        if gate.kind == "cnot":
            a, b = on
            if a and b and a[-1] == b[-1] and kept[a[-1]] == gate:
                kept[a.pop()] = None
                b.pop()
                continue
        for stack in on:
            stack.append(len(kept))
        kept.append(gate)

    return _asap(
        pc.n,
        (gate for gate in kept if gate is not None),
        final_layout=pc.final_layout,
        scheduled_cost_cycles=pc.scheduled_cost_cycles,
    )


def _asap(n: int, gates, **fields) -> PhysicalCircuit:
    """Place each gate, in order, in the first cycle after its wires' latest gate.

    A gate then lands in the cycle of its dependency depth, so the circuit's
    depth is its cycle count and is recorded instead of walked.
    """
    cycles: list[list[Gate]] = []
    front = [0] * n  # per wire: the cycle after its latest gate
    for gate in gates:
        a, b = gate.qubits[0], gate.qubits[-1]  # b == a for a one-qubit gate
        c = front[a] if front[a] > front[b] else front[b]
        if c == len(cycles):
            cycles.append([])
        cycles[c].append(gate)
        front[a] = front[b] = c + 1
    pc = PhysicalCircuit(n=n, cycles=cycles, **fields)
    pc._depth = len(cycles)
    return pc


def _chain_wires(chain, k: int) -> tuple[int, ...]:
    """The first ``k`` wires of ``chain``, each a distinct non-negative int."""
    if chain is None:
        return tuple(range(k))
    wires = []
    for c in chain:
        try:
            q = -1 if isinstance(c, bool) else operator.index(c)
        except TypeError:
            q = -1
        if q < 0:
            raise ValueError(f"chain entries must be non-negative ints, got {c!r}")
        wires.append(q)
    if len(set(wires)) != len(wires):
        raise ValueError(f"chain repeats a qubit: {tuple(wires)}")
    if len(wires) < k:
        raise CapacityError(f"chain of {len(wires)} qubits cannot hold {k} logical qubits")
    return tuple(wires[:k])


def compile_graph(
    g: WeightGraph,
    params: QaoaParams,
    chain=None,
) -> PhysicalCircuit:
    """Full pipeline: mapping search, scheduling, native-gate emission.

    The mapping search is :func:`search_initial_mapping` at its default
    ``b_max`` of 5, the search width of Jin et al. (arXiv:2112.06143).

    ``chain`` lists the physical qubit ids of the target coupled path (its
    first ``g.n`` entries are used); default is the identity chain 0..n-1.
    Entries must be distinct non-negative ints (NumPy ints included).

    The rows of each layer of the walk ``schedule`` wraps expand in one pass
    into CNOT/RZ on the chain wires, with no RZZ or SWAP gate built: RZZ(a,b)
    -> CNOT(a,b) RZ(b) CNOT(a,b) and SWAP(a,b) -> CNOT(a,b) CNOT(b,a)
    CNOT(a,b), sub-cycle by sub-cycle.  Where consecutive layers share a pair
    (an RZZ and the SWAP after it, or a SWAP and the RZZ after it), the
    CNOT(a,b) that ends the first and the one that starts the second are left
    out, so RZZ+SWAP costs three CNOTs.  These are exactly the pairs
    ``optimize_circuit`` cancels on ``decompose_gates``' output: every block
    ends with an RX on every wire, and the schedule never puts a pair into two
    consecutive layers of one kind.  The placer ``optimize_circuit`` also uses
    packs the stream: each gate, in order, goes in the first cycle after its
    wires' latest gate.  Each distinct CNOT is built once and shared.
    """
    wires = _chain_wires(chain, g.n)
    mapping, _ = search_initial_mapping(g, g.n)
    layers, end, last_rzz = _layers(g, mapping, params, g.n)

    cnots: dict[tuple[int, int], Gate] = {}

    def cnot(a, b):
        gate = cnots.get((a, b))
        if gate is None:
            gate = cnots[a, b] = Gate("cnot", (wires[a], wires[b]))
        return gate

    stream: list[Gate] = []
    pairs = [
        {qs for qs, _ in rows} if kind in ("rzz", "swap") else set() for kind, rows in layers
    ]
    pairs.append(set())  # also pairs[-1], the first layer's empty predecessor
    for i, (kind, rows) in enumerate(layers):
        if not pairs[i]:
            stream.extend(Gate(kind, (wires[q],), angle) for (q,), angle in rows)
            continue
        before, after = pairs[i] & pairs[i - 1], pairs[i] & pairs[i + 1]
        stream.extend(cnot(*qs) for qs, _ in rows if qs not in before)
        if kind == "rzz":
            stream.extend(Gate("rz", (wires[b],), angle) for (_, b), angle in rows)
        else:
            stream.extend(cnot(b, a) for (a, b), _ in rows)
        stream.extend(cnot(*qs) for qs, _ in rows if qs not in after)
    return _asap(
        max(wires) + 1,
        stream,
        final_layout=tuple(wires[p_] for p_ in end),
        scheduled_cost_cycles=params.p * last_rzz,
    )


def layout_document(pc: PhysicalCircuit) -> str:
    """Layout JSON consumed by measurement decoders."""
    doc = {
        "logical_to_physical": list(pc.final_layout),
        "measure_order": list(range(pc.n_logical)),
    }
    return json.dumps(doc, indent=2) + "\n"
