"""OpenQASM 2.0 emission and parsing, restricted to the compiled gate set.

The subset is exactly ``h``, ``rx``, ``rz``, ``cx`` and ``measure`` over one
quantum and one classical register.  Angles are printed with 17 significant
digits so that parse(emit(c)) reproduces every angle bit for bit.  Indices
are ASCII digits and angles QASM reals (an optional sign, digits with at most
one point, an optional exponent).
"""

from __future__ import annotations

import itertools
import math
import re

from .circuits import Gate
from .compiler import PhysicalCircuit
from .errors import ParseError

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";'


def _fmt_angle(x: float) -> str:
    return format(float(x), ".17g")


def _statement(gate: Gate) -> str:
    if gate.kind == "h":
        return f"h q[{gate.qubits[0]}];"
    if gate.kind in ("rx", "rz"):
        return f"{gate.kind}({_fmt_angle(gate.angle)}) q[{gate.qubits[0]}];"
    if gate.kind == "cnot":
        return f"cx q[{gate.qubits[0]}],q[{gate.qubits[1]}];"
    raise ValueError(f"gate kind {gate.kind!r} is outside the QASM subset")


def emit(pc: PhysicalCircuit) -> str:
    """Deterministic QASM text: header, registers, gates in schedule order,
    one measurement per logical qubit (``measure q[phys] -> c[logical];``).
    A gate object that sits in many cycles is formatted once."""
    lines = [HEADER, f"qreg q[{pc.n}];", f"creg c[{pc.n_logical}];"]
    formatted: dict[int, str] = {}  # id(gate) -> its line; ``pc`` keeps ids unique
    for gate in pc.gates():
        line = formatted.get(id(gate))
        if line is None:
            line = formatted[id(gate)] = _statement(gate)
        lines.append(line)
    for logical, phys in enumerate(pc.final_layout):
        lines.append(f"measure q[{phys}] -> c[{logical}];")
    return "\n".join(lines) + "\n"


# ASCII only: str patterns' \d and \s also match other scripts' digits and
# spaces, which int() and float() would accept.
_RE_QREG = re.compile(r"^qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]\s*;$", re.ASCII)
_RE_CREG = re.compile(r"^creg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]\s*;$", re.ASCII)
_RE_H = re.compile(r"^h\s+q\[(\d+)\]\s*;$", re.ASCII)
_RE_ROT = re.compile(r"^(rx|rz)\(([^)]*)\)\s*q\[(\d+)\]\s*;$", re.ASCII)
_RE_CX = re.compile(r"^cx\s+q\[(\d+)\]\s*,\s*q\[(\d+)\]\s*;$", re.ASCII)
_RE_MEASURE = re.compile(r"^measure\s+q\[(\d+)\]\s*->\s*c\[(\d+)\]\s*;$", re.ASCII)
_RE_WORD = re.compile(r"^([A-Za-z_]\w*)", re.ASCII)
_RE_REAL = re.compile(r"\s*[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?\s*", re.ASCII)

_KNOWN_GATES = ("h", "rx", "rz", "cx", "measure")


def parse(text: str) -> PhysicalCircuit:
    """Parse a document from the emitted subset back into a circuit.

    Each gate lands in its own cycle, preserving the textual order; the
    measurement map is rebuilt into ``final_layout``.  Errors carry the line
    and column of the offending token.

    A gate line that passed every check is remembered by its text, and a
    repeat of it reuses that ``Gate``: the register size is fixed for the
    document, so the repeat would parse to an equal gate.  ``measure`` lines
    are always checked, so a classical bit measured twice fails.
    """
    lines = text.split("\n")

    def statements(start):
        """(line number, column, text) of each non-blank line from index ``start``."""
        for lineno, raw in enumerate(lines[start:], start=start + 1):
            stmt = raw.strip()
            if stmt:
                yield lineno, raw.index(stmt[0]) + 1, stmt

    stmts = list(itertools.islice(statements(0), 4))

    def fail(msg, lineno, col=1):
        raise ParseError(msg, f"line {lineno}, col {col}")

    def number(digits, lineno, col):
        try:
            return int(digits)
        except ValueError:  # past Python's integer-conversion digit limit
            fail(f"integer of {len(digits)} digits is too long", lineno, col)

    if not stmts or stmts[0][2] != "OPENQASM 2.0;":
        lineno = stmts[0][0] if stmts else 1
        fail('document must start with "OPENQASM 2.0;"', lineno)
    if len(stmts) < 2 or stmts[1][2] != 'include "qelib1.inc";':
        lineno = stmts[1][0] if len(stmts) > 1 else stmts[0][0]
        fail('expected \'include "qelib1.inc";\'', lineno)

    if len(stmts) < 4:
        fail("missing register declarations", stmts[-1][0])
    lineno, col, stmt = stmts[2]
    m = _RE_QREG.match(stmt)
    if not m:
        fail("expected qreg declaration", lineno, col)
    if m.group(1) != "q":
        fail(f"quantum register must be named 'q', got {m.group(1)!r}", lineno, col)
    nq = number(m.group(2), lineno, col)
    lineno, col, stmt = stmts[3]
    m = _RE_CREG.match(stmt)
    if not m:
        fail("expected creg declaration", lineno, col)
    if m.group(1) != "c":
        fail(f"classical register must be named 'c', got {m.group(1)!r}", lineno, col)
    nc = number(m.group(2), lineno, col)
    if nq < 1 or nc < 1:
        fail("registers must be non-empty", lineno, col)

    gates: list[Gate] = []
    layout: dict[int, int] = {}
    memo: dict[str, Gate] = {}  # line -> its checked gate

    def check_q(digits, lineno, col):
        q = number(digits, lineno, col)
        if q >= nq:
            fail(f"q[{q}] outside register of size {nq}", lineno, col)
        return q

    body = stmts[3][0]  # index of the line after the creg declaration
    for lineno, raw in enumerate(lines[body:], start=body + 1):
        gate = memo.get(raw)
        if gate is not None:
            gates.append(gate)
            continue
        stmt = raw.strip()
        if not stmt:
            continue
        col = raw.index(stmt[0]) + 1
        if not stmt.endswith(";"):
            fail("missing ';'", lineno, col + len(stmt))
        word = _RE_WORD.match(stmt)
        name = word.group(1) if word else ""
        if name not in _KNOWN_GATES:
            fail(f"unknown gate {name!r}", lineno, col)
        if name == "h":
            m = _RE_H.match(stmt)
            if not m:
                fail("malformed h statement", lineno, col)
            gate = Gate("h", (check_q(m.group(1), lineno, col),))
        elif name in ("rx", "rz"):
            m = _RE_ROT.match(stmt)
            if not m:
                fail(f"malformed {name} statement", lineno, col)
            try:
                angle = float(m.group(2))
            except ValueError:
                fail(f"malformed real {m.group(2)!r}", lineno, col + len(name) + 1)
            if not math.isfinite(angle):
                fail(f"non-finite angle {m.group(2)!r}", lineno, col + len(name) + 1)
            # after the finiteness check, so nan and inf keep their message
            if not _RE_REAL.fullmatch(m.group(2)):
                fail(f"malformed real {m.group(2)!r}", lineno, col + len(name) + 1)
            gate = Gate(name, (check_q(m.group(3), lineno, col),), angle)
        elif name == "cx":
            m = _RE_CX.match(stmt)
            if not m:
                fail("malformed cx statement", lineno, col)
            a = check_q(m.group(1), lineno, col)
            b = check_q(m.group(2), lineno, col)
            if a == b:
                fail("cx operands must differ", lineno, col)
            gate = Gate("cnot", (a, b))
        else:
            m = _RE_MEASURE.match(stmt)
            if not m:
                fail("malformed measure statement", lineno, col)
            q = check_q(m.group(1), lineno, col)
            cbit = number(m.group(2), lineno, col)
            if cbit >= nc:
                fail(f"c[{cbit}] outside register of size {nc}", lineno, col)
            if cbit in layout:
                fail(f"classical bit {cbit} measured twice", lineno, col)
            layout[cbit] = q
            continue
        memo[raw] = gate
        gates.append(gate)

    missing = [b for b in range(nc) if b not in layout]
    if missing:
        last = max(lineno for lineno, _, _ in statements(body - 1))
        fail(f"classical bits never assigned: {missing}", last)
    return PhysicalCircuit(
        n=nq,
        cycles=[[g] for g in gates],
        final_layout=tuple(layout[b] for b in range(nc)),
    )
