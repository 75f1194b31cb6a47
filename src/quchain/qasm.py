"""OpenQASM 2.0 emission and parsing, restricted to the compiled gate set.

The subset is exactly ``h``, ``rx``, ``rz``, ``cx`` and ``measure`` over one
quantum and one classical register.  Angles are printed with 17 significant
digits so that parse(emit(c)) reproduces every angle bit for bit.  Indices
are ASCII digits and angles QASM reals (an optional sign, digits with at most
one point, an optional exponent).  A document's first four statements are
the header, and each later one is looked up by its first word in
:data:`_STATEMENTS`, one table of full-statement patterns.  Both directions
work per distinct line: ``emit`` formats each distinct gate once, and
``parse`` checks each distinct line once.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

from .compiler import CNOT, H, KINDS, WIRE_LIMIT, PhysicalCircuit
from .errors import ParseError

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";'


def _fmt_angle(x: float) -> str:
    return format(float(x), ".17g")


def _statement(kind: int, a: int, b: int, angle: float) -> str:
    if kind == H:
        return f"h q[{a}];"
    if kind == CNOT:
        return f"cx q[{a}],q[{b}];"
    return f"{KINDS[kind]}({_fmt_angle(angle)}) q[{a}];"


def emit(pc: PhysicalCircuit) -> str:
    """Deterministic QASM text: header, registers, gates in schedule order,
    one measurement per logical qubit (``measure q[phys] -> c[logical];``).
    Each distinct row of the circuit (:meth:`PhysicalCircuit.rows`) is
    formatted once, and the gate lines are its lines looked up by index."""
    row, first = pc.rows()
    lines = np.empty(len(first), dtype=object)
    lines[:] = [
        _statement(*fields)
        for fields in zip(
            pc.kind[first].tolist(), pc.a[first].tolist(),
            pc.b[first].tolist(), pc.angle[first].tolist(),
        )
    ]
    return "\n".join([
        HEADER,
        f"qreg q[{pc.n}];",
        f"creg c[{pc.n_logical}];",
        *lines[row].tolist(),
        *(f"measure q[{phys}] -> c[{logical}];" for logical, phys in enumerate(pc.final_layout)),
    ]) + "\n"


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


_BLANK, _MEASURE = -1, -2  # statement codes beside the gate kinds


def parse(text: str) -> PhysicalCircuit:
    """Parse a document from the emitted subset back into a circuit.

    The first four statements (non-blank lines) are the header: the version,
    the include and the two register declarations.  Every later statement
    is looked up by its first word in one table of full-statement patterns.
    Each gate lands in its own cycle, preserving the textual order; the
    measurement map is rebuilt into ``final_layout``, and classical bits
    left unmeasured are reported at the last statement (the first eight,
    and their count when there are more).  Errors carry the
    line and column of the offending token; the first fault in document
    order is the one reported.

    The body is read per distinct line: each is checked once, in order of
    first occurrence, at that occurrence, and every line is mapped to its
    distinct line's index by dictionary lookups that run in C.  The register
    sizes are fixed for the document, so a repeat would pass the same checks.
    Only a measurement depends on the lines before it: every ``measure``
    line, repeats included, is checked in document order for a classical
    bit measured twice.  The gates of one distinct line share one row of
    the circuit (:meth:`PhysicalCircuit.rows`).
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
            if sizes[-1] < 1:
                fail("registers must be non-empty", lineno, col)
            if sizes[-1] > WIRE_LIMIT:
                fail(f"registers must be at most {WIRE_LIMIT} long", lineno, col)
        return sizes

    def check_q(digits, lineno, col):
        q = number(digits, lineno, col)
        if q >= nq:
            fail(f"q[{q}] outside register of size {nq}", lineno, col)
        return q

    def statement(raw, lineno):
        """A body line as (code, a, b, angle): a gate kind, _BLANK, or
        _MEASURE with the qubit as a and the classical bit as b."""
        stmt = raw.strip()
        if not stmt:
            return _BLANK, 0, 0, math.nan
        col = raw.index(stmt[0]) + 1
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
            return _MEASURE, q, cbit, math.nan
        if name == "h":
            q = check_q(m[1], lineno, col)
            return H, q, q, math.nan
        if name == "cx":
            a = check_q(m[1], lineno, col)
            b = check_q(m[2], lineno, col)
            if a == b:
                fail("cx operands must differ", lineno, col)
            return CNOT, a, b, math.nan
        try:
            angle = float(m[1])
        except ValueError:
            fail(f"malformed real {m[1]!r}", lineno, col + len(name) + 1)
        if not math.isfinite(angle):
            fail(f"non-finite angle {m[1]!r}", lineno, col + len(name) + 1)
        # after the finiteness check, so nan and inf keep their message
        if not _RE_REAL.fullmatch(m[1]):
            fail(f"malformed real {m[1]!r}", lineno, col + len(name) + 1)
        q = check_q(m[2], lineno, col)
        return KINDS.index(name), q, q, angle

    lines = text.split("\n")
    header: list[tuple[int, int, str]] = []  # (line number, column, text)
    start = 0  # the first body line's index
    while len(header) < 4 and start < len(lines):
        stmt = lines[start].strip()
        start += 1
        if stmt:
            header.append((start, lines[start - 1].index(stmt[0]) + 1, stmt))
    nq, nc = registers(header)
    del lines[:start]  # now the body: its line p is line start + p + 1

    index = {line: d for d, line in enumerate(dict.fromkeys(lines))}
    at = np.fromiter(map(index.__getitem__, lines), dtype=np.intp, count=len(lines))
    # The running maximum of ``at`` first reaches d at distinct line d's first occurrence.
    firsts = np.maximum.accumulate(at).searchsorted(np.arange(len(index)))
    rows, measured, fault, checked = [], {}, None, len(lines)
    for line, p in zip(index, firsts.tolist()):
        try:
            row = statement(line, start + p + 1)
        except ParseError as err:
            fault, checked = err, p
            break
        if row[0] == _MEASURE:  # a classical bit may exceed what a float holds
            measured[len(rows)] = row[1:3]
            row = (_MEASURE, 0, 0, math.nan)
        rows.append(row)
    # Wires are below the register limit, so the float table holds them exactly.
    table = np.array(rows, dtype=float).reshape(-1, 4)
    code = table[:, 0].astype(np.int8)
    qa, qb = (table[:, j].astype(np.int32) for j in (1, 2))
    codes = code[at[:checked]]  # every line's code, up to the first faulty line

    layout: dict[int, int] = {}
    for p in np.flatnonzero(codes == _MEASURE).tolist():
        q, cbit = measured[int(at[p])]
        if cbit in layout:
            line = lines[p]
            fail(f"classical bit {cbit} measured twice", start + p + 1, line.index(line.strip()[0]) + 1)
        layout[cbit] = q
    if fault is not None:
        raise fault
    last = next((start + p + 1 for p in reversed(range(len(lines))) if lines[p].strip()), header[-1][0])
    del lines, index, rows  # the document's lines, the largest objects here, freed early
    unset = nc - len(layout)
    if unset:  # the first 8 are found within len(layout) + 8 lookups
        first = [str(b) for b in itertools.islice((b for b in range(nc) if b not in layout), 8)]
        listed = ", ".join(first + ["..."] * (unset > 8))
        more = f" ({unset} in all)" if unset > 8 else ""
        fail(f"classical bits never assigned: [{listed}]{more}", last)
    is_gate = codes >= H
    gates = at[is_gate]
    # One row per distinct gate line: its index among them, and where it first occurs.
    gate_line = code >= H
    row = (np.cumsum(gate_line) - 1)[gates]
    first = (np.cumsum(is_gate) - 1)[firsts[gate_line]]
    return PhysicalCircuit._built(
        nq, code[gates], qa[gates], qb[gates], table[gates, 3], np.arange(len(gates), dtype=np.int32),
        final_layout=[layout[b] for b in range(nc)],
        rows=(row, first),
    )
