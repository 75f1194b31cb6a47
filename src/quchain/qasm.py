"""OpenQASM 2.0 emission and parsing, restricted to the compiled gate set.

The subset is exactly ``h``, ``rx``, ``rz``, ``cx`` and ``measure`` over one
quantum and one classical register.  Angles are printed with 17 significant
digits so that parse(emit(c)) reproduces every angle bit for bit.  Indices
are ASCII digits and angles QASM reals (an optional sign, digits with at most
one point, an optional exponent).  The parser reads a document in one pass:
its first four statements are the header, and each later one is looked up
by its first word in :data:`_STATEMENTS`, one table of full-statement
patterns.
"""

from __future__ import annotations

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


# Each statement word's full-statement pattern.  ASCII only: str patterns' \d
# and \s also match other scripts' digits and spaces, which int() and float()
# would accept.
_DECLARATION = r"\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]\s*;"
_ROTATION = r"\(([^)]*)\)\s*q\[(\d+)\]\s*;"
_STATEMENTS = {word: re.compile(word + rest, re.ASCII) for word, rest in {
    "qreg": _DECLARATION,
    "creg": _DECLARATION,
    "h": r"\s+q\[(\d+)\]\s*;",
    "rx": _ROTATION,
    "rz": _ROTATION,
    "cx": r"\s+q\[(\d+)\]\s*,\s*q\[(\d+)\]\s*;",
    "measure": r"\s+q\[(\d+)\]\s*->\s*c\[(\d+)\]\s*;",
}.items()}
_DECLARATIONS = ("qreg", "creg")  # header words: in the body they are unknown gates
_RE_WORD = re.compile(r"([A-Za-z_]\w*)", re.ASCII)
_RE_REAL = re.compile(r"\s*[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?\s*", re.ASCII)


def parse(text: str) -> PhysicalCircuit:
    """Parse a document from the emitted subset back into a circuit.

    One pass reads the lines in order.  The first four statements (non-blank
    lines) are the header: the version, the include and the two register
    declarations, judged once the fourth is read or the document ends.  Every
    later statement is looked up by its first word in one table of
    full-statement patterns.  Each gate lands in its own cycle, preserving the
    textual order; the measurement map is rebuilt into ``final_layout``, and
    a classical bit left unmeasured is reported at the last statement.
    Errors carry the line and column of the offending token; the first fault
    in document order is the one reported.

    A gate line that passed every check is remembered by its text, and a
    repeat of it reuses that ``Gate``: the register size is fixed for the
    document, so the repeat would parse to an equal gate.  ``measure`` lines
    are always checked, so a classical bit measured twice fails.
    """

    def fail(msg, lineno, col=1):
        raise ParseError(msg, f"line {lineno}, col {col}")

    def number(digits, lineno, col):
        try:
            return int(digits)
        except ValueError:  # past Python's integer-conversion digit limit
            fail(f"integer of {len(digits)} digits is too long", lineno, col)

    def registers(header):
        """The register sizes the first four statements declare; fewer fail."""
        if not header or header[0][2] != "OPENQASM 2.0;":
            fail('document must start with "OPENQASM 2.0;"', header[0][0] if header else 1)
        if len(header) < 2 or header[1][2] != 'include "qelib1.inc";':
            fail('expected \'include "qelib1.inc";\'', header[1 if len(header) > 1 else 0][0])
        if len(header) < 4:
            fail("missing register declarations", header[-1][0])
        sizes = []
        for (lineno, col, stmt), word, kind in zip(header[2:], _DECLARATIONS, ("quantum", "classical")):
            m = _STATEMENTS[word].fullmatch(stmt)
            if not m:
                fail(f"expected {word} declaration", lineno, col)
            if m[1] != word[0]:
                fail(f"{kind} register must be named {word[0]!r}, got {m[1]!r}", lineno, col)
            sizes.append(number(m[2], lineno, col))
        if min(sizes) < 1:
            fail("registers must be non-empty", lineno, col)
        return sizes

    def check_q(digits, lineno, col):
        q = number(digits, lineno, col)
        if q >= nq:
            fail(f"q[{q}] outside register of size {nq}", lineno, col)
        return q

    header: list[tuple[int, int, str]] = []  # (line number, column, text)
    gates: list[Gate] = []
    layout: dict[int, int] = {}
    memo: dict[str, Gate] = {}  # line -> its checked gate
    for lineno, raw in enumerate(text.split("\n"), start=1):
        gate = memo.get(raw)
        if gate is not None:
            gates.append(gate)
            last = lineno
            continue
        stmt = raw.strip()
        if not stmt:
            continue
        last = lineno
        col = raw.index(stmt[0]) + 1
        if len(header) < 4:
            header.append((lineno, col, stmt))
            if len(header) == 4:
                nq, nc = registers(header)
            continue
        if not stmt.endswith(";"):
            fail("missing ';'", lineno, col + len(stmt))
        word = _RE_WORD.match(stmt)
        name = word[1] if word else ""
        pattern = None if name in _DECLARATIONS else _STATEMENTS.get(name)
        if pattern is None:
            fail(f"unknown gate {name!r}", lineno, col)
        m = pattern.fullmatch(stmt)
        if not m:
            fail(f"malformed {name} statement", lineno, col)
        if name == "measure":
            q = check_q(m[1], lineno, col)
            cbit = number(m[2], lineno, col)
            if cbit >= nc:
                fail(f"c[{cbit}] outside register of size {nc}", lineno, col)
            if cbit in layout:
                fail(f"classical bit {cbit} measured twice", lineno, col)
            layout[cbit] = q
            continue
        if name == "h":
            gate = Gate("h", (check_q(m[1], lineno, col),))
        elif name == "cx":
            a = check_q(m[1], lineno, col)
            b = check_q(m[2], lineno, col)
            if a == b:
                fail("cx operands must differ", lineno, col)
            gate = Gate("cnot", (a, b))
        else:
            try:
                angle = float(m[1])
            except ValueError:
                fail(f"malformed real {m[1]!r}", lineno, col + len(name) + 1)
            if not math.isfinite(angle):
                fail(f"non-finite angle {m[1]!r}", lineno, col + len(name) + 1)
            # after the finiteness check, so nan and inf keep their message
            if not _RE_REAL.fullmatch(m[1]):
                fail(f"malformed real {m[1]!r}", lineno, col + len(name) + 1)
            gate = Gate(name, (check_q(m[2], lineno, col),), angle)
        memo[raw] = gate
        gates.append(gate)

    if len(header) < 4:
        registers(header)
    missing = [b for b in range(nc) if b not in layout]
    if missing:
        fail(f"classical bits never assigned: {missing}", last)
    return PhysicalCircuit(
        n=nq,
        cycles=[[g] for g in gates],
        final_layout=tuple(layout[b] for b in range(nc)),
    )
