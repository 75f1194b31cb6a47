"""Gate-list circuit representation and QAOA circuit construction."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .graph import WeightGraph

ANGLED_KINDS = frozenset({"rx", "rz", "rzz"})
TWO_QUBIT_KINDS = frozenset({"rzz", "swap", "cnot"})
GATE_KINDS = frozenset({"h", "rx", "rz", "rzz", "swap", "cnot"})


def qubit_index(x, limit=None) -> int | None:
    """``x`` as an int in ``[0, limit)``, or None when it is not one.

    NumPy ints count and bools do not; without ``limit`` any non-negative
    int counts.
    """
    if isinstance(x, bool):
        return None
    try:
        q = operator.index(x)
    except TypeError:
        return None
    return q if q >= 0 and (limit is None or q < limit) else None


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
        qubits = tuple(qubit_index(q) for q in self.qubits)
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
