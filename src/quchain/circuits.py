"""Gate-list and physical circuit representations and QAOA circuit construction."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import WeightGraph
from .validate import as_index

#: Gate kind codes of ``PhysicalCircuit``'s ``kind`` array.  A physical
#: circuit holds the first four; the others name a rejected kind.
KINDS = ("h", "rx", "rz", "cnot", "rzz", "swap")
H, RX, RZ, CNOT, RZZ, SWAP = range(len(KINDS))
_CODE = {kind: code for code, kind in enumerate(KINDS)}
GATE_KINDS = frozenset(KINDS)
ANGLED_KINDS = frozenset({"rx", "rz", "rzz"})
TWO_QUBIT_KINDS = frozenset({"rzz", "swap", "cnot"})
#: The most wires, and cycles, a circuit may have, so that wires and cycles
#: fit the int32 arrays and the one-integer key of a gate's wires and kind
#: (:meth:`PhysicalCircuit.rows`) fits in int64.
WIRE_LIMIT = 2**30


@dataclass(frozen=True)
class Gate:
    """One gate application: kind, operand qubits (non-negative ints, kept as
    Python ints), optional angle (radians)."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        want = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if len(self.qubits) != want:
            raise ValueError(f"{self.kind} takes {want} qubits, got {self.qubits}")
        qubits = tuple(as_index(q) for q in self.qubits)
        if None in qubits:
            raise ValueError(f"{self.kind} qubits must be non-negative ints, got {self.qubits}")
        object.__setattr__(self, "qubits", qubits)
        if want == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"{self.kind} operands must be distinct, got {self.qubits}")
        if (self.angle is not None) != (self.kind in ANGLED_KINDS):
            raise ValueError(f"{self.kind} angle mismatch: {self.angle}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"{self.kind} angle must be finite, got {self.angle}")


@dataclass
class LogicalCircuit:
    """Ordered gate list over logical qubits ``0..n-1``."""

    n: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n:
                    raise ValueError(f"gate {g} references qubit outside 0..{self.n - 1}")

    def add(self, kind: str, *qubits: int, angle: float | None = None):
        self.gates.append(Gate(kind, tuple(qubits), angle))
        return self


class PhysicalCircuit:
    """Cycle-scheduled gates over chain wires plus the measurement layout.

    The gates are parallel read-only arrays, one entry per gate in
    cycle-major order (stream order within a cycle): ``kind`` (a code into
    :data:`KINDS`), wires ``a`` and ``b`` (``b == a`` for a one-qubit gate,
    the target of a CNOT otherwise), ``angle`` (NaN for ``h`` and ``cnot``)
    and ``cycle``.  ``PhysicalCircuit(n, cycles, final_layout)`` packs lists
    of ``Gate``s into them.  Each ``Gate`` has checked its own kind, arity,
    operands and angle, so construction checks only the placing, in one walk
    of the gates that reports the first faulty one in gate order: a kind the
    chain cannot run (``rzz``, ``swap``), a wire outside the register, or a
    wire used twice in one cycle.  Then it checks that every ``final_layout``
    entry is an int naming a wire of the register.  ``compile_graph`` and
    ``parse`` build theirs from arrays of checked input, and skip the check.
    ``cycles`` and ``gates()`` are views that build one ``Gate`` per distinct
    gate (see :meth:`rows`) on each call and share it wherever that gate
    recurs.  To change the gates, build a new circuit.

    ``final_layout[l]`` is the wire that holds logical qubit ``l`` after all
    SWAP permutations; measuring it into classical bit ``l`` hides the chain
    permutation from downstream decoders.  ``depth`` is dependency-DAG depth
    with unit gate cost, independent of how cycles happen to be packed; a
    circuit packed as soon as possible records it as its cycle count.
    """

    def __init__(self, n: int, cycles, final_layout, scheduled_cost_cycles: int | None = None):
        if not 0 <= n <= WIRE_LIMIT or len(cycles) > WIRE_LIMIT:
            raise ValueError(f"circuits hold at most {WIRE_LIMIT} wires and cycles")
        native = KINDS[: CNOT + 1]
        for c, cycle in enumerate(cycles):
            seen: set[int] = set()
            for gate in cycle:
                if gate.kind not in native:
                    raise ValueError(f"physical circuits cannot hold {gate.kind!r}")
                for q in gate.qubits:
                    if q >= n:  # a Gate's qubits are non-negative
                        raise ValueError(f"wire {q} outside register of {n}")
                    if q in seen:
                        raise ValueError(f"wire {q} used twice in cycle {c}")
                    seen.add(q)
        layout = [as_index(x, n) for x in final_layout]
        if None in layout:
            bad = list(final_layout)[layout.index(None)]
            raise ValueError(f"final_layout entries must be wires of the register of {n}, got {bad!r}")
        flat = [gate for cycle in cycles for gate in cycle]
        kind = [_CODE[gate.kind] for gate in flat]
        a = [gate.qubits[0] for gate in flat]
        b = [gate.qubits[-1] for gate in flat]
        angle = [np.nan if gate.angle is None else gate.angle for gate in flat]
        cycle = np.repeat(np.arange(len(cycles)), [len(c) for c in cycles])
        self._take(n, kind, a, b, angle, cycle, layout, scheduled_cost_cycles, len(cycles))

    @classmethod
    def _built(cls, n, kind, a, b, angle, cycle, final_layout, scheduled_cost_cycles=None,
               depth=None) -> "PhysicalCircuit":
        """A circuit over arrays that the package built from checked input
        (``compile_graph``, ``parse``), taken without the check.  ``depth``,
        when given, is recorded as the circuit's depth."""
        pc = cls.__new__(cls)
        n_cycles = int(cycle[-1]) + 1 if len(cycle) else 0
        pc._take(n, kind, a, b, angle, cycle, final_layout, scheduled_cost_cycles, n_cycles)
        pc._depth = depth
        return pc

    def _take(self, n, kind, a, b, angle, cycle, final_layout, scheduled_cost_cycles, n_cycles):
        self.n = n
        self.kind = np.asarray(kind).astype(np.int8, copy=False)
        self.a, self.b, self.cycle = (np.asarray(x).astype(np.int32, copy=False) for x in (a, b, cycle))
        self.angle = np.asarray(angle, dtype=float)
        self.final_layout = tuple(int(x) for x in final_layout)
        self.scheduled_cost_cycles = scheduled_cost_cycles
        self._n_cycles = n_cycles
        self._depth: int | None = None  # set where the packing is as-soon-as-possible
        self._rows = None
        for x in (self.kind, self.a, self.b, self.angle, self.cycle):
            x.setflags(write=False)

    @property
    def n_logical(self) -> int:
        return len(self.final_layout)

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(row, first)``: each gate's distinct-row index, and for each
        distinct row the index of a gate that has it.  A row is one distinct
        gate (kind, wires and angle bits), the one numbering that ``emit``
        and the ``Gate`` views share."""
        if self._rows is None:
            key = (self.a.astype(np.int64) * (self.n + 1) + self.b) * len(KINDS) + self.kind
            order = np.lexsort((self.angle.view(np.int64), key))
            sk, sa = key[order], self.angle.view(np.int64)[order]
            new = np.ones(len(order), dtype=bool)
            new[1:] = (sk[1:] != sk[:-1]) | (sa[1:] != sa[:-1])
            row = np.empty(len(order), dtype=np.int32)
            row[order] = np.cumsum(new) - 1
            self._rows = row, order[new]
        return self._rows

    def _views(self) -> list[Gate]:
        """One new ``Gate`` per distinct row, listed once per gate."""
        row, first = self.rows()
        made = np.empty(len(first), dtype=object)
        made[:] = [
            Gate(KINDS[k], (x,) if k != CNOT else (x, y), None if k in (H, CNOT) else t)
            for k, x, y, t in zip(
                self.kind[first].tolist(), self.a[first].tolist(),
                self.b[first].tolist(), self.angle[first].tolist(),
            )
        ]
        return made[row].tolist()

    @property
    def cycles(self) -> list[list[Gate]]:
        gates = self._views()
        bounds = np.searchsorted(self.cycle, np.arange(self._n_cycles + 1)).tolist()
        return [gates[s:e] for s, e in zip(bounds, bounds[1:])]

    def gates(self):
        return iter(self._views())

    @property
    def cnot_count(self) -> int:
        return int(np.count_nonzero(self.kind == CNOT))

    @property
    def depth(self) -> int:
        if self._depth is not None:
            return self._depth
        front: dict[int, int] = {}  # per wire: the depth of its latest gate
        for a, b in zip(self.a.tolist(), self.b.tolist()):
            front[a] = front[b] = max(front.get(a, 0), front.get(b, 0)) + 1
        return max(front.values(), default=0)


@dataclass(frozen=True)
class QaoaParams:
    """Variational angles, one (gamma, beta) pair per layer, all finite."""

    gamma: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        if len(self.gamma) != len(self.beta) or not self.gamma:
            raise ValueError("gamma and beta must have equal, nonzero length")
        for name in ("gamma", "beta"):
            angles = tuple(float(x) for x in getattr(self, name))
            if not all(map(math.isfinite, angles)):
                raise ValueError(f"{name} angles must be finite, got {angles}")
            object.__setattr__(self, name, angles)

    @property
    def p(self) -> int:
        return len(self.gamma)

    def flat(self) -> tuple[float, ...]:
        return self.gamma + self.beta

    @classmethod
    def from_flat(cls, values) -> "QaoaParams":
        values = tuple(float(v) for v in values)
        half = len(values) // 2
        return cls(gamma=values[:half], beta=values[half:])


def build_qaoa_circuit(g: WeightGraph, params: QaoaParams) -> LogicalCircuit:
    """Alternating cost/mixer circuit for the graph Hamiltonian.

    Hadamards prepare the uniform superposition; each layer k applies
    RZZ(2*gamma_k*J_uv) per edge (sorted order; the terms commute),
    RZ(2*gamma_k*h_i) per nonzero-weight node, then RX(2*beta_k) on every
    qubit.
    """
    c = LogicalCircuit(n=g.n)
    for i in range(g.n):
        c.add("h", i)
    for k in range(params.p):
        gamma, beta = params.gamma[k], params.beta[k]
        for u, v, w in g.edges:
            c.add("rzz", u, v, angle=2.0 * gamma * w)
        for i, w in g.nodes:
            if w != 0.0:
                c.add("rz", i, angle=2.0 * gamma * w)
        for i in range(g.n):
            c.add("rx", i, angle=2.0 * beta)
    return c
