"""Weight-graph JSON interchange: canonical form, round trips, parse errors."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quchain import (
    ParseError,
    WeightGraph,
    dumps_graph,
    loads_calibration,
    loads_graph,
    read_graph,
    write_graph,
)


def test_k2_round_trip_byte_identical(tmp_path):
    g = WeightGraph(nodes=[(0, 0.5), (1, 0.5)], edges=[(0, 1, 0.5)], offset=0.5)
    path = tmp_path / "k2.json"
    write_graph(g, path)
    text = path.read_text()
    g2 = read_graph(path)
    assert g2 == g
    write_graph(g2, path)
    assert path.read_text() == text


def test_canonical_ordering():
    g = WeightGraph(nodes=[(1, 2.0), (0, 1.0), (2, 0.0)], edges=[(2, 0, 1.0), (1, 0, -1.0)])
    assert [i for i, _ in g.nodes] == [0, 1, 2]
    assert g.edges == [(0, 1, -1.0), (0, 2, 1.0)]


def test_seventeen_digit_reals():
    g = WeightGraph(nodes=[(0, math.pi)], edges=[], offset=0.1)
    text = dumps_graph(g)
    assert "3.1415926535897931" in text
    assert "0.10000000000000001" in text
    assert loads_graph(text).nodes[0][1] == math.pi


def test_dangling_edge_is_parse_error():
    text = '{"offset": 0, "nodes": [{"id": 0, "w": 0}], "edges": [{"u": 0, "v": 7, "w": 1}]}'
    with pytest.raises(ParseError) as err:
        loads_graph(text)
    assert "edges[0].v" in str(err.value)


def test_empty_node_list_rejected():
    with pytest.raises(ParseError):
        loads_graph('{"offset": 0, "nodes": [], "edges": []}')


def test_unknown_field_rejected():
    text = '{"offset": 0, "nodes": [{"id": 0, "w": 0, "color": 1}], "edges": []}'
    with pytest.raises(ParseError) as err:
        loads_graph(text)
    assert "color" in str(err.value) and "nodes[0]" in str(err.value)


def test_malformed_json_reports_location():
    with pytest.raises(ParseError) as err:
        loads_graph('{"offset": 0,\n "nodes": [}')
    assert "line 2" in str(err.value)


def test_duplicate_edge_rejected():
    text = (
        '{"offset": 0, "nodes": [{"id": 0, "w": 0}, {"id": 1, "w": 0}],'
        ' "edges": [{"u": 0, "v": 1, "w": 1}, {"u": 1, "v": 0, "w": 2}]}'
    )
    with pytest.raises(ParseError):
        loads_graph(text)


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        WeightGraph(nodes=[(0, 0.0)], edges=[(0, 0, 1.0)])


def test_non_contiguous_ids_rejected():
    with pytest.raises(ValueError):
        WeightGraph(nodes=[(0, 0.0), (2, 0.0)], edges=[])


@pytest.mark.parametrize("nodes, edges, location", [
    ([(0, 0.0), (2, 0.0)], [], "nodes"),
    ([(0, 0.0), (1, 0.0)], [(0, 1, 1.0), (1, 1, 1.0)], "edges[1]"),
    ([(0, 0.0), (1, 0.0)], [(0, 1, 1.0), (0, 5, 1.0)], "edges[1]"),
    ([(0, 0.0), (1, 0.0)], [(0, 1, 1.0), (1, 0, 2.0)], "edges[1]"),
])
def test_constructor_fault_is_a_located_value_error(nodes, edges, location):
    with pytest.raises(ValueError) as err:
        WeightGraph(nodes=nodes, edges=edges)
    assert isinstance(err.value, ParseError)
    assert err.value.location == location


GRAPH_DOC = (
    '{"offset": %s, "nodes": [{"id": 0, "w": %s}, {"id": 1, "w": 0}],'
    ' "edges": [{"u": 0, "v": 1, "w": %s}]}'
)
CALIB_DOC = (
    '{"qubits": [{"id": 0, "t1_us": %s, "t2_us": %s, "f1q": %s},'
    ' {"id": 1, "t1_us": 1, "t2_us": 1, "f1q": 0.9}],'
    ' "couplers": [{"a": 0, "b": 1, "f2q": %s}]}'
)
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf", "1e400", "10**400"])
@pytest.mark.parametrize(
    "doc, slots, where",
    [
        (GRAPH_DOC, 3, ["offset", "nodes[0].w", "edges[0].w"]),
        (CALIB_DOC, 4, ["qubits[0].t1_us", "qubits[0].t2_us", "qubits[0].f1q", "couplers[0].f2q"]),
    ],
    ids=["graph", "calibration"],
)
def test_non_finite_numbers_rejected_with_location(doc, slots, where, bad):
    load = loads_graph if doc is GRAPH_DOC else loads_calibration
    for k, location in enumerate(where):
        values = ["0.5"] * slots
        values[k] = bad
        with pytest.raises(ParseError) as err:
            load(doc % tuple(values))
        assert err.value.location == location


@st.composite
def weight_graphs(draw):
    n = draw(st.integers(1, 8))
    finite = st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    )
    nodes = [(i, draw(finite)) for i in range(n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    edges = [(u, v, draw(finite)) for u, v in sorted(chosen)]
    return WeightGraph(nodes=nodes, edges=edges, offset=draw(finite))


@given(weight_graphs())
@settings(max_examples=60)
def test_round_trip_is_identity_on_canonical_form(g):
    text = dumps_graph(g)
    g2 = loads_graph(text)
    assert g2 == g
    assert dumps_graph(g2) == text
