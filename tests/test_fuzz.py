"""Fuzzing of the text boundaries: graph JSON, calibration JSON and QASM.

Malformed input may only raise :class:`ParseError`; anything else escaping
is a bug.  Inputs that once escaped are kept as explicit examples.  Runs are
derandomized by the suite's hypothesis profile (``conftest.py``).
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quchain import (
    ParseError,
    QaoaParams,
    WeightGraph,
    compile_graph,
    emit,
    loads_calibration,
    loads_graph,
    parse,
)

FUZZ = settings(max_examples=100)

_DEEP = "[" * 100_000 + "]" * 100_000  # past the recursion limit of json.loads
_LONG_INT = "1" + "0" * 5000  # past Python's integer-conversion digit limit

_FIELDS = ["offset", "nodes", "edges", "id", "w", "u", "v",
           "qubits", "couplers", "t1_us", "t2_us", "f1q", "a", "b", "f2q"]
_SCALARS = (st.none() | st.booleans() | st.integers(-3, 12)
            | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4))
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=3),
                                        children, max_size=5)),
    max_leaves=12,
)
# JSON-shaped documents whose keys are mostly the fields the loaders read, so
# the fuzzer reaches the per-field checks; NaN and infinities are emitted as
# the NaN/Infinity literals json.loads accepts.
_JSON_DOCS = _JSON_VALUES.map(json.dumps) | st.text(max_size=40)


def _only_parse_error(loader, text):
    try:
        loader(text)
    except ParseError:
        pass


@FUZZ
@given(_JSON_DOCS)
@example(_DEEP)
@example('{"offset": ' + _LONG_INT + ', "nodes": [], "edges": []}')
def test_loads_graph_raises_only_parse_error(text):
    _only_parse_error(loads_graph, text)


@FUZZ
@given(_JSON_DOCS)
@example('{"qubits": ' + _DEEP + "}")
@example('{"qubits": [{"id": ' + _LONG_INT + "}]}")
def test_loads_calibration_raises_only_parse_error(text):
    _only_parse_error(loads_calibration, text)


_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";'
_INDEX = st.integers(0, 5).map(str) | st.text(alphabet="0123456789-x ", max_size=4)
_ANGLE = st.floats().map(repr) | st.text(max_size=6)
_STATEMENTS = st.one_of(
    st.builds("h q[{}];".format, _INDEX),
    st.builds("{}({}) q[{}];".format, st.sampled_from(["rx", "rz", "ry"]), _ANGLE, _INDEX),
    st.builds("cx q[{}],q[{}];".format, _INDEX, _INDEX),
    st.builds("measure q[{}] -> c[{}];".format, _INDEX, _INDEX),
    st.text(max_size=12),
)
_QASM_DOCS = st.builds(
    lambda head, nq, nc, body: "\n".join([head, f"qreg q[{nq}];", f"creg c[{nc}];", *body]),
    st.just(_HEADER) | st.text(max_size=20),
    _INDEX,
    _INDEX,
    st.lists(_STATEMENTS, max_size=8),
) | st.text(max_size=60)


@FUZZ
@given(_QASM_DOCS)
@example(f"{_HEADER}\nqreg q[{_LONG_INT}];\ncreg c[1];\n")
@example(f"{_HEADER}\nqreg q[2];\ncreg c[1];\nh q[{_LONG_INT}];\n")
@example(f"{_HEADER}\nqreg q[2];\ncreg c[1];\nmeasure q[0] -> c[{_LONG_INT}];\n")
def test_parse_raises_only_parse_error(text):
    _only_parse_error(parse, text)


_WEIGHTS = st.floats(-4.0, 4.0, allow_subnormal=True)


@st.composite
def _compiled_circuits(draw):
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    g = WeightGraph(
        nodes=[(i, draw(_WEIGHTS)) for i in range(n)],
        edges=[(u, v, draw(_WEIGHTS)) for u, v in sorted(chosen)],
    )
    p = draw(st.integers(1, 2))
    angles = st.floats(-10.0, 10.0)
    params = QaoaParams(gamma=tuple(draw(angles) for _ in range(p)),
                        beta=tuple(draw(angles) for _ in range(p)))
    offset = draw(st.integers(0, 4))
    return compile_graph(g, params, chain=tuple(range(offset, offset + n)))


def _gate_bits(pc):
    return [(g.kind, g.qubits, None if g.angle is None else float(g.angle).hex())
            for g in pc.gates()]


@settings(max_examples=40)
@given(_compiled_circuits())
def test_parse_emit_round_trip_is_exact(pc):
    back = parse(emit(pc))
    assert _gate_bits(back) == _gate_bits(pc)
    assert back.final_layout == pc.final_layout
    assert back.n == pc.n

