"""Every located error of the three document readers, one fault per document.

``parse`` (QASM), ``loads_graph`` and ``loads_calibration`` each get one case
per error path, asserting the whole message and its location; a few
documents with two faults pin which one is reported first.  Every located
fault, from a reader or from a model built in code, is one type: a
``ParseError``, which is a ``ValueError``.
"""

import json
import math

import pytest

from quchain import (
    ChipModel,
    Coupler,
    ParseError,
    QaoaParams,
    Qubit,
    WeightGraph,
    loads_calibration,
    loads_graph,
    parse,
)

LONG = "9" * 5000  # past Python's integer-conversion digit limit


def error(read, text) -> ParseError:
    with pytest.raises(ParseError) as err:
        read(text)
    return err.value


def check(read, text, message, location):
    exc = error(read, text)
    assert exc.location == location
    assert str(exc) == f"{location}: {message}"


# --- QASM -----------------------------------------------------------------

HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
REGS = "qreg q[2];\ncreg c[2];\n"
MEASURES = "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"


def body(stmt: str) -> str:
    """A valid two-qubit document with ``stmt`` as line 5."""
    return HEAD + REGS + stmt + "\n" + MEASURES


QASM_CASES = {
    # header
    "empty": ("", 'document must start with "OPENQASM 2.0;"', "line 1, col 1"),
    "wrong-version": ("\n\n  OPENQASM 3.0;\n" + REGS, 'document must start with "OPENQASM 2.0;"',
                      "line 3, col 1"),
    "missing-include": ("OPENQASM 2.0;\n", "expected 'include \"qelib1.inc\";'", "line 1, col 1"),
    "wrong-include": ('OPENQASM 2.0;\n\ninclude "other.inc";\n' + REGS + MEASURES,
                      "expected 'include \"qelib1.inc\";'", "line 3, col 1"),
    "no-registers": (HEAD, "missing register declarations", "line 2, col 1"),
    "no-creg": (HEAD + "qreg q[2];\n\n", "missing register declarations", "line 3, col 1"),
    "no-qreg": (HEAD + "creg c[2];\n", "missing register declarations", "line 3, col 1"),
    "malformed-qreg": (HEAD + "  qreg q[2]\ncreg c[2];\n" + MEASURES,
                       "expected qreg declaration", "line 3, col 3"),
    "qreg-name": (HEAD + "qreg r[2];\ncreg c[2];\n" + MEASURES,
                  "quantum register must be named 'q', got 'r'", "line 3, col 1"),
    "qreg-too-long": (HEAD + f"qreg q[{LONG}];\ncreg c[2];\n",
                      "integer of 5000 digits is too long", "line 3, col 1"),
    "malformed-creg": (HEAD + "qreg q[2];\n creg c[2;\n" + MEASURES,
                       "expected creg declaration", "line 4, col 2"),
    "creg-name": (HEAD + "qreg q[2];\ncreg d[2];\n" + MEASURES,
                  "classical register must be named 'c', got 'd'", "line 4, col 1"),
    "creg-too-long": (HEAD + f"qreg q[2];\ncreg c[{LONG}];\n",
                      "integer of 5000 digits is too long", "line 4, col 1"),
    "empty-qreg": (HEAD + "qreg q[0];\ncreg c[1];\n", "registers must be non-empty", "line 3, col 1"),
    "empty-creg": (HEAD + "qreg q[1];\n  creg c[0];\n", "registers must be non-empty", "line 4, col 3"),
    # any statement
    "missing-semicolon": (body("  h q[0]"), "missing ';'", "line 5, col 9"),
    "unknown-gate": (body("cz q[0],q[1];"), "unknown gate 'cz'", "line 5, col 1"),
    "no-gate-word": (body("[0];"), "unknown gate ''", "line 5, col 1"),
    "header-word-in-body": (body("qreg q[2];"), "unknown gate 'qreg'", "line 5, col 1"),
    "version-in-body": (body("OPENQASM 2.0;"), "unknown gate 'OPENQASM'", "line 5, col 1"),
    "include-in-body": (body('include "qelib1.inc";'), "unknown gate 'include'", "line 5, col 1"),
    # h
    "malformed-h": (body("h q [0];"), "malformed h statement", "line 5, col 1"),
    "h-outside": (body("h q[2];"), "q[2] outside register of size 2", "line 5, col 1"),
    "h-too-long": (body(f"h q[{LONG}];"), "integer of 5000 digits is too long", "line 5, col 1"),
    # rx / rz
    "malformed-rx": (body("rx q[0];"), "malformed rx statement", "line 5, col 1"),
    "malformed-rz": (body(" rz(0.5) q0];"), "malformed rz statement", "line 5, col 2"),
    "angle-not-a-float": (body("rx(abc) q[0];"), "malformed real 'abc'", "line 5, col 4"),
    "angle-not-a-qasm-real": (body("  rz(1_0) q[0];"), "malformed real '1_0'", "line 5, col 6"),
    "angle-non-finite": (body("rz(inf) q[0];"), "non-finite angle 'inf'", "line 5, col 4"),
    "rx-outside": (body("rx(0.5) q[2];"), "q[2] outside register of size 2", "line 5, col 1"),
    # cx
    "malformed-cx": (body("cx q[0] q[1];"), "malformed cx statement", "line 5, col 1"),
    "cx-first-outside": (body("cx q[2],q[1];"), "q[2] outside register of size 2", "line 5, col 1"),
    "cx-second-outside": (body("cx q[0],q[3];"), "q[3] outside register of size 2", "line 5, col 1"),
    "cx-equal-operands": (body("  cx q[1],q[1];"), "cx operands must differ", "line 5, col 3"),
    # measure
    "malformed-measure": (HEAD + REGS + "measure q[0] c[0];\n" + MEASURES,
                          "malformed measure statement", "line 5, col 1"),
    "measure-q-outside": (HEAD + REGS + "measure q[2] -> c[0];\nmeasure q[1] -> c[1];\n",
                          "q[2] outside register of size 2", "line 5, col 1"),
    "measure-c-outside": (HEAD + REGS + "measure q[0] -> c[2];\n" + MEASURES,
                          "c[2] outside register of size 2", "line 5, col 1"),
    "measure-c-too-long": (HEAD + REGS + f"measure q[0] -> c[{LONG}];\n",
                           "integer of 5000 digits is too long", "line 5, col 1"),
    "measured-twice": (HEAD + REGS + "measure q[0] -> c[0];\n\n measure q[1] -> c[0];\n",
                       "classical bit 0 measured twice", "line 7, col 2"),
    # the measure map
    "bit-never-assigned": (HEAD + REGS + "h q[0];\nmeasure q[0] -> c[0];\n  \n\n",
                           "classical bits never assigned: [1]", "line 6, col 1"),
    "no-body": (HEAD + REGS, "classical bits never assigned: [0, 1]", "line 4, col 1"),
}


@pytest.mark.parametrize("text, message, location", QASM_CASES.values(), ids=QASM_CASES)
def test_qasm_error_is_located(text, message, location):
    check(parse, text, message, location)


def test_qasm_missing_registers_reported_before_a_bad_third_line():
    check(parse, HEAD + "qreg q;\n", "missing register declarations", "line 3, col 1")


# --- weight-graph JSON ----------------------------------------------------

DROP = object()
NODES = [{"id": 0, "w": 0}, {"id": 1, "w": 0}]
EDGES = [{"u": 0, "v": 1, "w": 1}]


def graph(**fields) -> str:
    """A valid two-node graph document with ``fields`` replaced (DROP removes one)."""
    doc = {"offset": 0, "nodes": NODES, "edges": EDGES, **fields}
    return json.dumps({k: v for k, v in doc.items() if v is not DROP})


def node(**fields):
    return [{k: v for k, v in {"id": 0, "w": 0, **fields}.items() if v is not DROP}, NODES[1]]


def edge(**fields):
    return [{k: v for k, v in {"u": 0, "v": 1, "w": 1, **fields}.items() if v is not DROP}]


GRAPH_CASES = {
    "not-json": ('{"offset": 0,\n "nodes": [}', "Expecting value", "line 2, col 12"),
    "not-object": ("[1]", "top level must be an object", "$"),
    "unknown-field": (graph(colors=3), "unknown field 'colors'", "$"),
    "no-offset": (graph(offset=DROP), "missing field 'offset'", "$"),
    "bad-offset": (graph(offset="0"), "expected a real number, got '0'", "offset"),
    "no-nodes": (graph(nodes=DROP), "missing field 'nodes'", "$"),
    "no-edges": (graph(edges=DROP), "missing field 'edges'", "$"),
    "nodes-not-list": (graph(nodes={"0": 0}), "nodes must be a list", "nodes"),
    "nodes-empty": (graph(nodes=[], edges=[]), "graph needs at least one node", "nodes"),
    "node-not-object": (graph(nodes=[NODES[0], [1, 0]]), "node entry must be an object", "nodes[1]"),
    "node-unknown-field": (graph(nodes=node(color=1)), "unknown field 'color'", "nodes[0]"),
    "node-no-id": (graph(nodes=node(id=DROP)), "missing field 'id'", "nodes[0]"),
    "node-no-w": (graph(nodes=node(w=DROP)), "missing field 'w'", "nodes[0]"),
    "node-id-float": (graph(nodes=node(id=0.5)), "node id 0.5 is not a non-negative int",
                      "nodes[0].id"),
    "node-id-bool": (graph(nodes=node(id=False)), "node id False is not a non-negative int",
                     "nodes[0].id"),
    "node-w-str": (graph(nodes=node(w="a")), "expected a real number, got 'a'", "nodes[0].w"),
    "duplicate-node": (graph(nodes=[NODES[0], NODES[0]]),
                       "node ids must be exactly 0..1, got [0, 0]", "nodes"),
    "edges-not-list": (graph(edges={}), "edges must be a list", "edges"),
    "edge-not-object": (graph(edges=[None]), "edge entry must be an object", "edges[0]"),
    "edge-unknown-field": (graph(edges=edge(kind="zz")), "unknown field 'kind'", "edges[0]"),
    "edge-no-u": (graph(edges=edge(u=DROP)), "missing field 'u'", "edges[0]"),
    "edge-no-v": (graph(edges=edge(v=DROP)), "missing field 'v'", "edges[0]"),
    "edge-no-w": (graph(edges=edge(w=DROP)), "missing field 'w'", "edges[0]"),
    "edge-u-float": (graph(edges=edge(u=0.0)), "endpoint 0.0 is not a declared node", "edges[0].u"),
    "edge-v-str": (graph(edges=edge(v="1")), "endpoint '1' is not a declared node", "edges[0].v"),
    "edge-u-undeclared": (graph(edges=edge(u=5)), "endpoint 5 is not a declared node", "edges[0].u"),
    "edge-v-undeclared": (graph(edges=edge(v=-1)), "endpoint -1 is not a declared node", "edges[0].v"),
    "edge-w-null": (graph(edges=edge(w=None)), "expected a real number, got None", "edges[0].w"),
    "ids-not-contiguous": (graph(nodes=[NODES[0], {"id": 2, "w": 0}], edges=[]),
                           "node ids must be exactly 0..1, got [0, 2]", "nodes"),
    "self-loop": (graph(edges=edge(v=0)), "self loop on node 0", "edges[0]"),
    "duplicate-edge": (graph(edges=EDGES + [{"u": 1, "v": 0, "w": 2}]), "duplicate edge (0,1)",
                       "edges[1]"),
}

# Documents with two faults, and the one reported: the whole shape first, then
# the graph's values and structure in its own order.
GRAPH_ORDER_CASES = {
    "no-edges-and-bad-node-row": (graph(nodes=[1], edges=DROP), "missing field 'edges'", "$"),
    "bad-offset-and-bad-node-row": (graph(offset="0", nodes=[NODES[0], 3]),
                                    "node entry must be an object", "nodes[1]"),
    "undeclared-u-and-bad-w": (graph(edges=edge(u=7, w="x")), "endpoint 7 is not a declared node",
                               "edges[0].u"),
    "undeclared-v-and-bad-w": (graph(edges=edge(v=7, w="x")), "endpoint 7 is not a declared node",
                               "edges[0].v"),
    "unknown-and-missing-field": (graph(nodes=node(w=DROP, color=1)), "unknown field 'color'",
                                  "nodes[0]"),
    "bad-node-row-and-bad-edges": (graph(nodes=node(w="a"), edges={}),
                                   "edges must be a list", "edges"),
    "duplicate-node-and-bad-edges": (graph(nodes=[NODES[0], NODES[0]], edges={}),
                                     "edges must be a list", "edges"),
    "bad-id-and-bad-w": (graph(nodes=node(id="0", w="a")), "node id '0' is not a non-negative int",
                         "nodes[0].id"),
    "bad-row-then-bad-row": (graph(edges=edge(w="a") + [3]), "edge entry must be an object",
                             "edges[1]"),
    "bad-ids-and-self-loop": (graph(nodes=[NODES[0], {"id": 2, "w": 0}], edges=edge(v=0)),
                              "node ids must be exactly 0..1, got [0, 2]", "nodes"),
    "duplicate-then-self-loop": (graph(edges=EDGES * 2 + edge(v=0)), "duplicate edge (0,1)",
                                 "edges[1]"),
}


@pytest.mark.parametrize("text, message, location", GRAPH_CASES.values(), ids=GRAPH_CASES)
def test_graph_error_is_located(text, message, location):
    check(loads_graph, text, message, location)


@pytest.mark.parametrize("text, message, location", GRAPH_ORDER_CASES.values(),
                         ids=GRAPH_ORDER_CASES)
def test_graph_first_of_two_faults(text, message, location):
    check(loads_graph, text, message, location)


# Structure faults, as (nodes, edges) rows: the document and the constructor
# given the same rows report one message at one location.
STRUCTURE_CASES = {
    "ids-not-contiguous": ([(0, 0), (2, 0)], [(0, 2, 1)]),
    "duplicate-id": ([(0, 0), (0, 0)], []),
    "undeclared-u": ([(0, 0), (1, 0)], [(0, 1, 1), (5, 1, 1)]),
    "undeclared-v": ([(0, 0), (1, 0)], [(0, 1, 1), (0, 5, 1)]),
    "negative-endpoint": ([(0, 0), (1, 0)], [(-1, 0, 1)]),
    "self-loop": ([(0, 0), (1, 0)], [(0, 1, 1), (1, 1, 1)]),
    "duplicate-edge": ([(0, 0), (1, 0)], [(0, 1, 1), (1, 0, 2)]),
}


@pytest.mark.parametrize("nodes, edges", STRUCTURE_CASES.values(), ids=STRUCTURE_CASES)
def test_graph_fault_has_one_message(nodes, edges):
    text = json.dumps({"offset": 0, "nodes": [{"id": i, "w": w} for i, w in nodes],
                       "edges": [{"u": u, "v": v, "w": w} for u, v, w in edges]})
    from_document = error(loads_graph, text)
    with pytest.raises(ParseError) as err:
        WeightGraph(nodes=nodes, edges=edges)
    from_rows = err.value
    assert (str(from_rows), from_rows.location) == (str(from_document), from_document.location)


def graph_rows(text):
    """A graph document's ``(nodes, edges, offset)`` as code would pass them,
    row tuples of the decoded values unchecked, or None when its fault lies
    in its shape (not JSON or not an object, a missing or extra field, an
    entry that is not an object, a list that is not one), which a graph built
    in code cannot hold."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    if not isinstance(doc, dict) or set(doc) != {"offset", "nodes", "edges"}:
        return None
    rows = []
    for key, names in (("nodes", ("id", "w")), ("edges", ("u", "v", "w"))):
        entries = doc[key]
        if not (isinstance(entries, list)
                and all(isinstance(e, dict) and set(e) == set(names) for e in entries)):
            return None
        rows.append([tuple(e[name] for name in names) for e in entries])
    return (*rows, doc["offset"])


GRAPH_HELD_CASES = {name: case for name, case in {**GRAPH_CASES, **GRAPH_ORDER_CASES}.items()
                    if graph_rows(case[0]) is not None}


def test_code_built_graphs_hold_every_value_and_structure_fault():
    assert sorted(GRAPH_HELD_CASES) == sorted([
        "bad-offset", "nodes-empty", "node-id-float", "node-id-bool", "node-w-str",
        "duplicate-node", "edge-u-float", "edge-v-str", "edge-u-undeclared", "edge-v-undeclared",
        "edge-w-null", "ids-not-contiguous", "self-loop", "duplicate-edge",
        "undeclared-u-and-bad-w", "undeclared-v-and-bad-w", "bad-id-and-bad-w",
        "bad-ids-and-self-loop", "duplicate-then-self-loop"])


@pytest.mark.parametrize("text, message, location", GRAPH_HELD_CASES.values(),
                         ids=GRAPH_HELD_CASES)
def test_code_built_graph_fault_matches_its_document(text, message, location):
    check(loads_graph, text, message, location)
    check(lambda rows: WeightGraph(*rows), graph_rows(text), message, location)


@pytest.mark.parametrize("text, prefix", [
    ('{"offset": ' + LONG + "}", "Exceeds the limit"),
    ("[" * 100_000, "maximum recursion depth exceeded"),
], ids=["integer-too-long", "nested-too-deep"])
def test_graph_decoder_limits_are_located_at_the_top(text, prefix):
    exc = error(loads_graph, text)
    assert exc.location == "$"
    assert str(exc).startswith(f"$: {prefix}")


# --- calibration JSON -----------------------------------------------------

QUBITS = [{"id": 0, "t1_us": 50, "t2_us": 40, "f1q": 0.99},
          {"id": 1, "t1_us": 60, "t2_us": 30, "f1q": 0.98}]
COUPLERS = [{"a": 0, "b": 1, "f2q": 0.9}]


def calibration(**fields) -> str:
    """A valid two-qubit calibration document with ``fields`` replaced (DROP removes one)."""
    doc = {"qubits": QUBITS, "couplers": COUPLERS, **fields}
    return json.dumps({k: v for k, v in doc.items() if v is not DROP})


def qubit(**fields):
    row = {**QUBITS[0], **fields}
    return [{k: v for k, v in row.items() if v is not DROP}, QUBITS[1]]


def coupler(**fields):
    return [{k: v for k, v in {**COUPLERS[0], **fields}.items() if v is not DROP}]


CALIBRATION_CASES = {
    "not-object": ('"chip"', "top level must be an object", "$"),
    "no-qubits": (calibration(qubits=DROP), "missing field 'qubits'", "$"),
    "qubits-not-list": (calibration(qubits="01"), "qubits must be a list", "qubits"),
    "qubits-empty": (calibration(qubits=[], couplers=[]), "a chip needs at least one qubit", "qubits"),
    "qubit-not-object": (calibration(qubits=[0, 1]), "qubit entry must be an object", "qubits[0]"),
    "qubit-no-id": (calibration(qubits=qubit(id=DROP)), "missing field 'id'", "qubits[0]"),
    "qubit-no-t1": (calibration(qubits=qubit(t1_us=DROP)), "missing field 't1_us'", "qubits[0]"),
    "qubit-no-t2": (calibration(qubits=qubit(t2_us=DROP)), "missing field 't2_us'", "qubits[0]"),
    "qubit-no-f1q": (calibration(qubits=qubit(f1q=DROP)), "missing field 'f1q'", "qubits[0]"),
    "qubit-id-str": (calibration(qubits=qubit(id="0")),
                     "qubit id must be a non-negative int below 1073741824, got '0'",
                     "qubits[0].id"),
    "qubit-id-negative": (calibration(qubits=qubit(id=-1), couplers=[]),
                          "qubit id must be a non-negative int below 1073741824, got -1",
                          "qubits[0].id"),
    "qubit-id-past-wires": (calibration(qubits=qubit(id=2**30), couplers=[]),
                            "qubit id must be a non-negative int below 1073741824, got 1073741824",
                            "qubits[0].id"),
    "qubit-t1-list": (calibration(qubits=qubit(t1_us=[1])), "expected a real number, got [1]",
                      "qubits[0].t1_us"),
    "qubit-t2-bool": (calibration(qubits=qubit(t2_us=True)), "expected a real number, got True",
                      "qubits[0].t2_us"),
    "qubit-f1q-above-one": (calibration(qubits=qubit(f1q=1.5)), "fidelity 1.5 outside [0, 1]",
                            "qubits[0].f1q"),
    "couplers-not-list": (calibration(couplers={"a": 0}), "couplers must be a list", "couplers"),
    "coupler-not-object": (calibration(couplers=[[0, 1, 0.9]]), "coupler entry must be an object",
                           "couplers[0]"),
    "coupler-no-a": (calibration(couplers=coupler(a=DROP)), "missing field 'a'", "couplers[0]"),
    "coupler-no-b": (calibration(couplers=coupler(b=DROP)), "missing field 'b'", "couplers[0]"),
    "coupler-no-f2q": (calibration(couplers=coupler(f2q=DROP)), "missing field 'f2q'", "couplers[0]"),
    "coupler-a-float": (calibration(couplers=coupler(a=0.0)), "endpoint 0.0 is not a declared qubit",
                        "couplers[0].a"),
    "coupler-b-null": (calibration(couplers=coupler(b=None)), "endpoint None is not a declared qubit",
                       "couplers[0].b"),
    "coupler-f2q-below-zero": (calibration(couplers=coupler(f2q=-0.5)),
                               "fidelity -0.5 outside [0, 1]", "couplers[0].f2q"),
    "duplicate-qubit": (calibration(qubits=[QUBITS[0], QUBITS[0]], couplers=[]),
                        "duplicate qubit id", "qubits"),
    "coupler-a-undeclared": (calibration(couplers=coupler(a=9)), "endpoint 9 is not a declared qubit",
                             "couplers[0].a"),
    "coupler-b-undeclared": (calibration(couplers=coupler(b=9)), "endpoint 9 is not a declared qubit",
                             "couplers[0].b"),
    "coupler-loop": (calibration(couplers=coupler(b=0)), "coupler endpoints must differ",
                     "couplers[0]"),
    "duplicate-coupler": (calibration(couplers=COUPLERS + [{"a": 1, "b": 0, "f2q": 0.8}]),
                          "duplicate coupler (0, 1)", "couplers[1]"),
}

# Documents with two faults, and the one reported: the whole shape first, then
# the chip's values and structure in its own order.
CALIBRATION_ORDER_CASES = {
    "bad-qubit-row-and-bad-couplers": (calibration(qubits=qubit(f1q=2), couplers=5),
                                       "couplers must be a list", "couplers"),
    "bad-qubit-id-and-bad-couplers": (calibration(qubits=qubit(id="0"), couplers={}),
                                      "couplers must be a list", "couplers"),
    "undeclared-a-and-bad-f2q": (calibration(couplers=coupler(a=9, f2q=2)),
                                 "endpoint 9 is not a declared qubit", "couplers[0].a"),
    "duplicate-qubit-and-bad-coupler-row": (calibration(qubits=[QUBITS[0], QUBITS[0]],
                                                        couplers=coupler(f2q="x")),
                                            "duplicate qubit id", "qubits"),
}


@pytest.mark.parametrize("text, message, location", CALIBRATION_CASES.values(),
                         ids=CALIBRATION_CASES)
def test_calibration_error_is_located(text, message, location):
    check(loads_calibration, text, message, location)


@pytest.mark.parametrize("text, message, location", CALIBRATION_ORDER_CASES.values(),
                         ids=CALIBRATION_ORDER_CASES)
def test_calibration_first_of_two_faults(text, message, location):
    check(loads_calibration, text, message, location)


def code_rows(text):
    """A calibration document's rows as code would build them, ``Qubit`` and
    ``Coupler`` tuples of the decoded values unchecked, or None when its fault
    lies in its shape (not an object, a missing or extra field, an entry that
    is not an object, a list that is not one), which a chip built in code
    cannot hold."""
    doc = json.loads(text)
    try:
        qubits, couplers = doc["qubits"], doc.get("couplers", [])
        if isinstance(qubits, list) and isinstance(couplers, list):
            return tuple(Qubit(**row) for row in qubits), tuple(Coupler(**row) for row in couplers)
    except (TypeError, KeyError):
        pass
    return None


HELD_CASES = {name: case for name, case in {**CALIBRATION_CASES, **CALIBRATION_ORDER_CASES}.items()
              if code_rows(case[0]) is not None}


def test_code_built_chips_hold_every_value_and_structure_fault():
    assert sorted(HELD_CASES) == sorted([
        "qubits-empty", "qubit-id-str", "qubit-id-negative", "qubit-id-past-wires", "qubit-t1-list",
        "qubit-t2-bool", "qubit-f1q-above-one", "coupler-a-float", "coupler-b-null",
        "coupler-f2q-below-zero", "duplicate-qubit", "coupler-a-undeclared",
        "coupler-b-undeclared", "coupler-loop", "duplicate-coupler",
        "undeclared-a-and-bad-f2q", "duplicate-qubit-and-bad-coupler-row"])


@pytest.mark.parametrize("text, message, location", HELD_CASES.values(), ids=HELD_CASES)
def test_code_built_chip_fault_matches_its_document(text, message, location):
    check(loads_calibration, text, message, location)
    check(lambda rows: ChipModel(*rows), code_rows(text), message, location)


def test_calibration_ignores_unknown_fields_and_missing_couplers():
    text = json.dumps({"chip": "x", "qubits": [{**QUBITS[0], "note": "edge"}]})
    chip = loads_calibration(text)
    assert chip.n == 1 and chip.couplers == ()


# --- one fault type -------------------------------------------------------

# Per boundary, (read, value, location) for every located fault the tables
# above hold, and a few from code for the models they do not reach.
BOUNDARIES = {
    "loads_graph": [(loads_graph, text, location) for text, _, location
                    in (*GRAPH_CASES.values(), *GRAPH_ORDER_CASES.values())],
    "loads_calibration": [(loads_calibration, text, location) for text, _, location
                          in (*CALIBRATION_CASES.values(), *CALIBRATION_ORDER_CASES.values())],
    "parse": [(parse, text, location) for text, _, location in QASM_CASES.values()],
    "WeightGraph": [(lambda rows: WeightGraph(*rows), rows, location) for rows, location in [
        (([("0", 0)], []), "nodes[0].id"),
        (([(0, math.nan)], []), "nodes[0].w"),
        (([(0, 0), (2, 0)], []), "nodes"),
        (([(0, 0), (1, 0)], [(0, True, 1)]), "edges[0].v"),
        (([(0, 0), (1, 0)], [(0, 1, 1), (1, 0, 1)]), "edges[1]"),
        (([(0, 0)], [], math.inf), "offset"),
    ]],
    "QaoaParams": [(lambda angles: QaoaParams(*angles), angles, location)
                   for angles, location in [
        ((0.1, (0.2,)), "gamma"),
        (((0.1, "0.2"), (0.3, 0.4)), "gamma[1]"),
        (((0.1,), (math.inf,)), "beta[0]"),
        (((), ()), "gamma"),
        (((0.1,), (0.2, 0.3)), "beta"),
    ]],
    "ChipModel": [(lambda rows: ChipModel(*rows), code_rows(text), location)
                  for text, _, location in HELD_CASES.values()],
}


@pytest.mark.parametrize("faults", BOUNDARIES.values(), ids=BOUNDARIES)
def test_every_located_fault_is_a_value_error(faults):
    for read, value, location in faults:
        try:
            read(value)
        except ValueError as exc:
            assert type(exc) is ParseError and exc.location == location, (value, exc)
        else:
            pytest.fail(f"accepted {value!r}")
