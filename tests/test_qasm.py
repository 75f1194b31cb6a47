"""QASM emission format and parser behavior."""

import math
import time

import numpy as np
import pytest

from quchain import (
    Gate,
    ParseError,
    PhysicalCircuit,
    QaoaParams,
    compile_graph,
    emit,
    parse,
)

from conftest import random_graph, random_qaoa_params


def test_k2_document_layout(k2_graph):
    pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
    text = emit(pc)
    lines = text.strip().split("\n")
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert lines[2] == "qreg q[2];"
    assert lines[3] == "creg c[2];"
    assert "cx q[0],q[1];" in lines
    assert "rz(0.59999999999999998) q[1];" in lines
    assert lines[-2] == "measure q[0] -> c[0];"
    assert lines[-1] == "measure q[1] -> c[1];"


def test_empty_circuit_is_header_registers_measures():
    pc = PhysicalCircuit(n=2, cycles=[], final_layout=(0, 1))
    text = emit(pc)
    assert text == (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
        "qreg q[2];\ncreg c[2];\n"
        "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
    )


def test_pi_printed_with_seventeen_digits():
    pc = PhysicalCircuit(
        n=1, cycles=[[Gate("rz", (0,), math.pi)]], final_layout=(0,)
    )
    assert "rz(3.1415926535897931) q[0];" in emit(pc)


def test_unknown_gate_rejected():
    text = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
        "cz q[0],q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
    )
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "unknown gate 'cz'" in str(err.value)
    assert "line 5" in str(err.value)


def test_missing_semicolon_reports_location():
    text = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
        "h q[0]\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
    )
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "missing ';'" in str(err.value)
    assert "line 5" in str(err.value)


def test_malformed_real_rejected():
    text = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
        "rx(abc) q[0];\nmeasure q[0] -> c[0];\n"
    )
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "malformed real" in str(err.value)


@pytest.mark.parametrize("stmt", ["rx(nan) q[0];", "rz(inf) q[0];", "  rz(-inf) q[0];"])
def test_non_finite_angle_rejected_with_location(stmt):
    text = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
        f"{stmt}\nmeasure q[0] -> c[0];\n"
    )
    with pytest.raises(ParseError) as err:
        parse(text)
    col = stmt.index("(") + 2  # first character of the angle
    assert err.value.location == f"line 5, col {col}"
    assert "non-finite angle" in str(err.value)


def test_register_bounds_checked():
    text = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
        "h q[5];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
    )
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "q[5]" in str(err.value)


def test_incomplete_measure_map_rejected():
    text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0];\n'
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "never assigned" in str(err.value)



def test_unassigned_bits_cost_follows_the_measures():
    # Ten million classical bits and one measure: the message names the first
    # eight missing bits and the count, and is found without walking them all.
    text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[10000000];\nmeasure q[0] -> c[3];\n'
    start = time.process_time()
    with pytest.raises(ParseError) as err:
        parse(text)
    assert time.process_time() - start < 0.5
    message = str(err.value)
    assert message == ("line 5, col 1: classical bits never assigned: "
                       "[0, 1, 2, 4, 5, 6, 7, 8, ...] (9999999 in all)")
    assert len(message.encode()) < 200

def test_header_required():
    with pytest.raises(ParseError):
        parse('include "qelib1.inc";\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\n')


def test_round_trip_random_compiled_circuits():
    rng = np.random.default_rng(314)
    for _ in range(100):
        g = random_graph(rng, 2, 7)
        params = random_qaoa_params(rng, int(rng.integers(1, 3)))
        pc = compile_graph(g, params)
        text = emit(pc)
        back = parse(text)
        assert back.n == pc.n
        assert back.final_layout == pc.final_layout
        assert list(back.gates()) == list(pc.gates())
        assert emit(back) == text  # determinism through one more hop


_HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


@pytest.mark.parametrize(
    "doc, location",
    [
        (_HEAD + "qreg q[4];\ncreg c[1];\nh q[٣];\nmeasure q[0] -> c[0];\n", "line 5, col 1"),
        (_HEAD + "qreg q[٤];\ncreg c[1];\nmeasure q[0] -> c[0];\n", "line 3, col 1"),
        (_HEAD + "qreg q[4];\ncreg c[1];\n  cx q[0],q[１];\nmeasure q[0] -> c[0];\n", "line 5, col 3"),
    ],
)
def test_non_ascii_digits_rejected(doc, location):
    with pytest.raises(ParseError) as err:
        parse(doc)
    assert err.value.location == location


@pytest.mark.parametrize("angle", ["1_0", "١.5", "0x10", "1e", "--1", "1.2.3", "e5"])
def test_angle_must_be_a_qasm_real(angle):
    text = _HEAD + f"qreg q[1];\ncreg c[1];\nrx({angle}) q[0];\nmeasure q[0] -> c[0];\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "malformed real" in str(err.value)
    assert err.value.location == "line 5, col 4"


@pytest.mark.parametrize(
    "x", [-0.0, 0.0, 1e-05, math.pi, 1.0000000000000001e20, -2.5e-300, 5e-324, 7.0]
)
def test_every_emitted_angle_form_parses_bit_for_bit(x):
    pc = PhysicalCircuit(n=1, cycles=[[Gate("rz", (0,), x)]], final_layout=(0,))
    (back,) = parse(emit(pc)).gates()
    assert back.angle.hex() == x.hex()
    assert math.copysign(1.0, back.angle) == math.copysign(1.0, x)


def test_repeated_statements_share_one_gate():
    text = _HEAD + "qreg q[2];\ncreg c[2];\n" + "h q[0];\ncx q[0],q[1];\n  h q[0];\n" * 50
    text += "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
    gates = list(parse(text).gates())
    assert len(gates) == 150
    assert gates == [Gate("h", (0,)), Gate("cnot", (0, 1)), Gate("h", (0,))] * 50
    assert len({id(g) for g in gates}) == 2  # one per distinct gate, whatever its spelling
    assert gates[0] is gates[2]


def test_repeated_measure_still_fails_after_repeats():
    body = "rz(0.5) q[1];\ncx q[1],q[0];\n" * 10
    text = (_HEAD + "qreg q[2];\ncreg c[2];\n" + body
            + "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\nmeasure q[0] -> c[0];\n")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "classical bit 0 measured twice" in str(err.value)
    assert err.value.location == "line 27, col 1"


def test_out_of_range_cx_after_a_thousand_repeats_is_located():
    text = (_HEAD + "qreg q[3];\ncreg c[1];\n" + "cx q[0],q[2];\n" * 1000
            + "   cx q[0],q[3];\nmeasure q[0] -> c[0];\n")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "q[3] outside register of size 3" in str(err.value)
    assert err.value.location == "line 1005, col 4"


def test_parse_equals_compile_graph_gate_for_gate():
    rng = np.random.default_rng(1104)
    for n, p in ((30, 1), (60, 2)):
        g = random_graph(rng, n, n + 1)
        pc = compile_graph(g, random_qaoa_params(rng, p), chain=tuple(range(3 * n, 0, -1)))
        back = parse(emit(pc))
        assert list(back.gates()) == list(pc.gates())
        assert back.final_layout == pc.final_layout
        assert back.n == pc.n
