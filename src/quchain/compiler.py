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
table, which ``Template`` holds beside its layers).  Mapping selection
searches it so that the last graph edge meets as early as possible, and one
walk of the template reads every edge's RZZ slot from it and yields the
scheduled layers as arrays of chain positions and angles.

``compile_graph`` expands those layers, all at once in whole-array steps,
into native CNOT/RZ gates on the chain's wires, merging an RZZ and a SWAP on
one pair into three CNOTs (Jin et al., "A structured method for compilation
of QAOA circuits in quantum computing", arXiv:2112.06143), and places them
as soon as possible one sub-layer of disjoint gates at a time.  The circuit
it returns is a ``PhysicalCircuit``, the type :mod:`quchain.circuits` owns
with its gate kind codes and placement check.  ``schedule`` wraps the same
layers into RZZ/SWAP gates for the tested reference, ``decompose_gates``
followed by the ``optimize_circuit`` peephole pass, which places gate by gate
with ``_asap``.  This module holds only the compiler and that reference route.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import (
    CNOT, KINDS, RZ, RZZ, SWAP, TWO_QUBIT_KINDS, WIRE_LIMIT, Gate, PhysicalCircuit, QaoaParams,
)
from .errors import CapacityError
from .graph import WeightGraph
from .validate import as_index


@dataclass(frozen=True)
class TemplateLayer:
    kind: str  # "rzz" | "swap"
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class Template:
    """The template's layers and where every two initial positions meet.

    ``table[i, j]`` is the (1-based) cycle and ``where[i, j]`` the lower
    chain position of the template pair on which positions i and j meet
    for their RZZ (the ExeR table).  Both arrays are read-only:
    ``build_template`` hands one instance to every caller in the process.
    """

    n: int
    layers: tuple[TemplateLayer, ...]
    table: np.ndarray  # (n, n) int64, symmetric, zero diagonal
    where: np.ndarray  # (n, n) int64, symmetric, zero diagonal


@lru_cache(maxsize=256)
def build_template(n: int) -> Template:
    """Fixed RZZ/SWAP interleaving for an n-position chain.

    Even n runs n/2 four-step blocks with the two trailing SWAP layers
    trimmed (they carry no further meetings); odd n runs floor(n/2) blocks
    plus one closing RZZ layer.  Total cycles: 2n-2 / 2n-1.  One walk of
    the layers records every meeting.
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

    table = np.zeros((n, n), dtype=np.int64)
    where = np.zeros((n, n), dtype=np.int64)
    item = list(range(n))  # position -> initially-placed index
    for cycle, layer in enumerate(layers, start=1):
        for a, b in layer.pairs:
            i, j = item[a], item[b]
            if layer.kind == "rzz":
                table[i, j] = table[j, i] = cycle
                where[i, j] = where[j, i] = a
            else:
                item[a], item[b] = j, i
    table.setflags(write=False)
    where.setflags(write=False)
    return Template(n=n, layers=tuple(layers), table=table, where=where)


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
    exer = build_template(n).table.astype(dtype)
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

    Returns the scheduled layers as ``(kind, positions, angles)`` arrays, the
    final layout and the last RZZ cycle.  A two-qubit layer's positions are
    the lower ends ``a`` of its chain pairs ``(a, a + 1)``, in position
    order; ``angles`` is None for ``h`` and ``swap`` layers.  An angle
    2 gamma w or 2 beta that overflows to infinity raises ``ValueError``:
    :func:`~quchain.qasm.parse` rejects a non-finite angle.
    """
    k = g.n
    start = np.asarray(mapping, dtype=np.intp)
    retained: list[tuple[str, np.ndarray, np.ndarray | None]] = []  # (kind, lows, J)
    item = np.arange(n)  # chain position -> the initial position it holds
    last_rzz = 0
    if g.edges:
        t = build_template(n)
        us, vs, ws = (np.array(col) for col in zip(*g.edges))
        ends = start[us], start[vs]
        cycles, lows = t.table[ends], t.where[ends]
        order = np.lexsort((lows, cycles))
        cycles, lows, ws = cycles[order], lows[order], ws[order]
        last_rzz = int(cycles[-1])
        meet = cycles.searchsorted(np.arange(last_rzz + 2)).tolist()  # cycle c: meet[c]:meet[c + 1]
        for cycle, layer in enumerate(t.layers[:last_rzz], start=1):
            s, e = meet[cycle], meet[cycle + 1]
            if layer.kind == "swap":
                lo = np.arange(layer.pairs[0][0], n - 1, 2)  # pairs (a, a + 1), a = lo
                retained.append(("swap", lo, None))
                item[lo], item[lo + 1] = item[lo + 1], item[lo]
            elif s < e:
                retained.append(("rzz", lows[s:e], ws[s:e]))
    moved = np.argsort(item)[start]  # where each initial position ends up

    layers = [("h", start, None)]
    biased = np.array([i for i, w in g.nodes if w != 0.0], dtype=np.intp)
    fields = np.array([w for _, w in g.nodes if w != 0.0])
    # Some 2 gamma w overflows exactly when the one of the largest |w| does.
    top = max(abs(row[-1]) for row in (*g.nodes, *g.edges))
    for block in range(1, params.p + 1):
        gamma, beta = params.gamma[block - 1], params.beta[block - 1]
        if not (math.isfinite(2.0 * gamma * top) and math.isfinite(2.0 * beta)):
            raise ValueError(f"layer {block}: an angle 2*gamma*w or 2*beta overflows")
        first, end = (start, moved) if block % 2 == 1 else (moved, start)
        if len(biased):
            layers.append(("rz", first[biased], 2.0 * gamma * fields))
        for kind, lo, w in retained if block % 2 == 1 else reversed(retained):
            layers.append((kind, lo, None if w is None else 2.0 * gamma * w))
        layers.append(("rx", end, np.full(k, 2.0 * beta)))
    return layers, tuple(end.tolist()), last_rzz


def _gates(kind: str, positions: np.ndarray, angles: np.ndarray | None) -> list[Gate]:
    """One layer of ``_layers`` as ``Gate``s."""
    lo = positions.tolist()
    qubits = [(a, a + 1) for a in lo] if kind in TWO_QUBIT_KINDS else [(a,) for a in lo]
    return [
        Gate(kind, qs, angle)
        for qs, angle in zip(qubits, [None] * len(lo) if angles is None else angles.tolist())
    ]


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
        layers=[_gates(*layer) for layer in layers],
        final_layout=end,
        cost_cycles=params.p * last_rzz,
    )


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
    depth is its cycle count and is recorded instead of walked.  This is the
    reference route's placer; ``compile_graph`` places with ``_place``.
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


def _stream(layers, n: int) -> tuple[np.ndarray, ...]:
    """The native gates of ``_layers``' layers over chain positions, in order.

    Returns the kind codes, wires a and b, angles and the bounds of the
    sub-layers: ``bounds[j]:bounds[j + 1]`` is sub-layer j, whose gates act
    on disjoint positions.  Layer i owns sub-layers 3i to 3i + 2.  A
    one-qubit layer fills only 3i + 1.  An RZZ or SWAP layer on pairs
    (a, a + 1) puts CNOT(a, a + 1) in 3i, RZ(a + 1) or CNOT(a + 1, a) in
    3i + 1 and CNOT(a, a + 1) in 3i + 2, leaving out a first (last) CNOT
    whose pair is also in the layer before (after).  Every row of every
    layer is expanded at once; one stable sort by sub-layer gives the order.
    """
    sizes = [len(pos) for _, pos, _ in layers]
    layer = np.repeat(np.arange(len(layers)), sizes)
    pos = np.concatenate([pos for _, pos, _ in layers])
    angle = np.concatenate([np.full(len(pos), np.nan) if x is None else x for _, pos, x in layers])
    code = np.repeat([KINDS.index(kind) for kind, _, _ in layers], sizes)
    rzz, swap = code == RZZ, code == SWAP
    pair = rzz | swap
    key = layer * n + pos
    held = np.zeros((len(layers) + 2) * n, dtype=bool)  # (i + 1) n + a: layer i holds (a, a + 1)
    held[key[pair] + n] = True
    opens = np.flatnonzero(pair & ~held[key])  # not in the layer before
    closes = np.flatnonzero(pair & ~held[key + 2 * n])  # nor in the layer after
    # Sub-layer 3i opens pairs, 3i + 1 holds the layer's one-qubit gate, the
    # RZ(a + 1) of an RZZ or the CNOT(a + 1, a) of a SWAP, and 3i + 2 closes pairs.
    mid_a = pos + pair
    sub = np.concatenate((3 * layer[opens], 3 * layer + 1, 3 * layer[closes] + 2))
    kind = np.concatenate((np.full(len(opens), CNOT), np.where(rzz, RZ, np.where(swap, CNOT, code)),
                           np.full(len(closes), CNOT)))
    a = np.concatenate((pos[opens], mid_a, pos[closes]))
    b = np.concatenate((pos[opens] + 1, np.where(swap, pos, mid_a), pos[closes] + 1))
    angle = np.concatenate((np.full(len(opens), np.nan), angle, np.full(len(closes), np.nan)))
    order = np.argsort(sub, kind="stable")
    sub = sub[order]
    bounds = np.concatenate(([0], np.flatnonzero(sub[1:] != sub[:-1]) + 1, [len(sub)]))
    return kind[order], a[order], b[order], angle[order], bounds


def _place(a: np.ndarray, b: np.ndarray, bounds: np.ndarray, n: int) -> np.ndarray:
    """Each gate's as-soon-as-possible cycle, one sub-layer at a time.

    The gates of ``a[s:e]``, ``b[s:e]`` for consecutive ``bounds`` s, e act
    on disjoint wires, so each lands in the cycle after the later of its
    wires' latest gates, as ``_asap`` places the same gates one by one.
    """
    front = np.zeros(n, dtype=np.intp)  # per wire: the cycle after its latest gate
    cycle = np.empty(len(a), dtype=np.intp)
    for s, e in zip(bounds.tolist(), bounds[1:].tolist()):
        wa, wb = a[s:e], b[s:e]
        c = np.maximum(front[wa], front[wb])
        cycle[s:e] = c
        front[wa] = front[wb] = c + 1
    return cycle


def _chain_wires(chain, k: int) -> tuple[int, ...]:
    """The first ``k`` wires of ``chain``, distinct non-negative ints below ``WIRE_LIMIT``."""
    if chain is None:
        return tuple(range(k))
    wires = []
    for c in chain:
        q = as_index(c, WIRE_LIMIT)
        if q is None:
            raise ValueError(f"chain entries must be non-negative ints below {WIRE_LIMIT}, got {c!r}")
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

    The layers of the walk ``schedule`` wraps become CNOT/RZ on the chain
    wires, with no RZZ or SWAP gate built: RZZ(a,b) -> CNOT(a,b) RZ(b)
    CNOT(a,b) and SWAP(a,b) -> CNOT(a,b) CNOT(b,a) CNOT(a,b), three
    sub-layers of gates on disjoint wires, all expanded in whole-array steps.
    Where consecutive layers share a pair (an RZZ and the SWAP after it, or a
    SWAP and the RZZ after it), the CNOT(a,b) that ends the first and the one
    that starts the second are left out, so RZZ+SWAP costs three CNOTs.
    These are exactly the pairs ``optimize_circuit`` cancels on
    ``decompose_gates``' output: every block ends with an RX on every wire,
    and the schedule never puts a pair into two consecutive layers of one
    kind.  Placement is as soon as possible, one sub-layer at a time: each
    gate's cycle is the later of its wires' fronts, read by fancy indexing,
    and one stable sort by cycle gives the circuit's order.  That is the
    placement ``_asap``, the reference route's placer, gives the same stream
    gate by gate, so the circuit's depth is its cycle count.
    """
    wires = np.array(_chain_wires(chain, g.n))
    mapping, _ = search_initial_mapping(g, g.n)
    layers, end, last_rzz = _layers(g, mapping, params, g.n)
    kind, a, b, angle, bounds = _stream(layers, g.n)
    del layers
    cycle = _place(a, b, bounds, g.n)
    order = np.argsort(cycle, kind="stable")
    kind, a, b, angle, cycle = kind[order], wires[a[order]], wires[b[order]], angle[order], cycle[order]
    return PhysicalCircuit._built(
        int(wires.max()) + 1, kind, a, b, angle, cycle,
        final_layout=wires[list(end)],
        scheduled_cost_cycles=params.p * last_rzz,
        depth=int(cycle[-1]) + 1,
    )


def layout_document(pc: PhysicalCircuit) -> str:
    """Layout JSON consumed by measurement decoders."""
    doc = {
        "logical_to_physical": list(pc.final_layout),
        "measure_order": list(range(pc.n_logical)),
    }
    return json.dumps(doc, indent=2) + "\n"
