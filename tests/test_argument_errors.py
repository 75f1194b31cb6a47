"""The argument checks of the package's functions and constructors, one fault
per call: each raises its own error type with its own message."""

import math
import re
import time

import numpy as np
import pytest

from quchain import (
    ChipModel,
    ConfigError,
    Coupler,
    Gate,
    ModelError,
    ParseError,
    PhysicalCircuit,
    QaoaParams,
    Qubit,
    QuboMatrix,
    ResultUnavailableError,
    ScheduledCircuit,
    TaskService,
    WeightGraph,
    build_subchain_library,
    decompose,
    decompose_gates,
    emit,
    optimize,
    qubo_from_graph_coloring,
    qubo_from_maxcut,
    qubo_from_number_partition,
    qubo_from_set_packing,
    schedule,
    search_initial_mapping,
    select_subchain,
)
from quchain.bench import run_bench
from quchain.cli import _parse_number_list
from quchain.hardware import path_fidelity
from quchain.tasks import TaskRecord, _moved

PAIR = WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 1.0)])
P1 = QaoaParams(gamma=(0.3,), beta=(0.2,))


def _raises(error, message, call, *args, **kwargs):
    with pytest.raises(error, match=re.escape(message)):
        call(*args, **kwargs)


class TestCircuits:
    def test_gate_kind_and_arity(self):
        _raises(ValueError, "unknown gate kind 'u3'", Gate, "u3", (0,))
        _raises(ValueError, "h takes 1 qubits, got (0, 1)", Gate, "h", (0, 1))
        _raises(ValueError, "cnot takes 2 qubits, got (0,)", Gate, "cnot", (0,))

    def test_qaoa_params_lengths(self):
        _raises(ValueError, "gamma and beta must have equal, nonzero length",
                QaoaParams, gamma=(0.1, 0.2), beta=(0.3,))
        _raises(ValueError, "gamma and beta must have equal, nonzero length", QaoaParams, (), ())


class TestCompiler:
    def test_search_width(self):
        _raises(ValueError, "b_max must be at least 1", search_initial_mapping, PAIR, b_max=0)

    def test_schedule_mapping(self):
        _raises(ValueError, "mapping must assign 2 distinct positions", schedule, PAIR, (1, 1), P1)
        _raises(ValueError, "mapping must assign 2 distinct positions", schedule, PAIR, (0,), P1)
        _raises(ValueError, "mapping position out of range", schedule, PAIR, (0, 5), P1, 3)

    def test_mixed_scheduled_layer(self):
        sched = ScheduledCircuit(n=2, layers=[[Gate("h", (0,)), Gate("rzz", (0, 1), 0.5)]],
                                 final_layout=(0, 1), cost_cycles=1)
        _raises(ValueError, "mixed scheduled layer kinds", decompose_gates, sched)


class TestEngine:
    def test_decompose_depth(self):
        _raises(ValueError, "p must be at least 1", decompose, PAIR, 0)

    def test_optimize_method_and_init(self):
        _raises(ValueError, "unknown method 'newton'", optimize, PAIR, method="newton")
        _raises(ValueError, "unknown method 'simplex'", optimize, PAIR, method="simplex")
        _raises(ValueError, "init has depth 1, requested p=2", optimize, PAIR, p=2, init=P1)


class TestGraph:
    def test_needs_a_node(self):
        with pytest.raises(ParseError) as err:
            WeightGraph(nodes=[])
        assert err.value.location == "nodes" and "graph needs at least one node" in str(err.value)

    @pytest.mark.parametrize("spin", [0, 2, -0.5])
    def test_energy_takes_only_unit_spins(self, spin):
        _raises(ValueError, f"spins must be +/-1, got {spin}", PAIR.energy, [1, spin])

    @pytest.mark.parametrize("nodes, edges, offset, message, location", [
        ([(0.7, 0.0), (1, 0.0)], [], 0.0, "node id 0.7 is not a non-negative int", "nodes[0].id"),
        ([(0, 0.0), ("1", 2)], [], 0.0, "node id '1' is not a non-negative int", "nodes[1].id"),
        ([(0, 0.0), (True, 0.0)], [], 0.0, "node id True is not a non-negative int", "nodes[1].id"),
        ([(-1, 0.0), (0, 0.0)], [], 0.0, "node id -1 is not a non-negative int", "nodes[0].id"),
        ([(0, math.nan), (1, 0.0)], [], 0.0, "expected a finite number, got nan", "nodes[0].w"),
        ([(0, 0.0), (1, 0.0)], [(0, 1.9, 1.0)], 0.0, "endpoint 1.9 is not a declared node",
         "edges[0].v"),
        ([(0, 0.0), (1, 0.0)], [(False, 1, 1.0)], 0.0, "endpoint False is not a declared node",
         "edges[0].u"),
        ([(0, 0.0), (1, 0.0)], [(0, 1, math.inf)], 0.0, "expected a finite number, got inf",
         "edges[0].w"),
        ([(0, 0.0), (1, 0.0)], [], -math.inf, "expected a finite number, got -inf", "offset"),
    ], ids=["id-float", "id-str", "id-bool", "id-negative", "node-w-nan", "endpoint-float",
            "endpoint-bool", "edge-w-inf", "offset-inf"])
    def test_ids_are_indices_and_numbers_finite(self, nodes, edges, offset, message, location):
        with pytest.raises(ValueError) as err:
            WeightGraph(nodes=nodes, edges=edges, offset=offset)
        assert isinstance(err.value, ParseError)
        assert err.value.location == location and message in str(err.value)

    @pytest.mark.parametrize("nodes, edges, offset, message, location", [
        ([(0, "2"), (1, 0.0)], [], 0.0, "expected a real number, got '2'", "nodes[0].w"),
        ([(0, 0.0), (1, True)], [], 0.0, "expected a real number, got True", "nodes[1].w"),
        ([(0, 0.0), (1, 0.0)], [(0, 1, " 1e3 ")], 0.0, "expected a real number, got ' 1e3 '",
         "edges[0].w"),
        ([(0, 0.0), (1, 0.0)], [(0, 1, None)], 0.0, "expected a real number, got None",
         "edges[0].w"),
        ([(0, 0.0), (1, 0.0)], [], "0.5", "expected a real number, got '0.5'", "offset"),
        ([(0, 0.0), (1, 0.0)], [], 10**400, "expected a finite number", "offset"),
    ], ids=["node-w-str", "node-w-bool", "edge-w-str", "edge-w-none", "offset-str",
            "offset-past-float"])
    def test_weights_are_real_numbers_not_their_spellings(self, nodes, edges, offset, message,
                                                          location):
        with pytest.raises(ValueError) as err:
            WeightGraph(nodes=nodes, edges=edges, offset=offset)
        assert isinstance(err.value, ParseError)
        assert err.value.location == location and message in str(err.value)

    def test_the_first_fault_in_list_order_is_reported(self):
        with pytest.raises(ParseError) as err:
            WeightGraph(nodes=[(0.7, math.nan), ("1", 2)], edges=[(0, 1.9, math.inf)])
        assert err.value.location == "nodes[0].id"

    def test_numpy_ids_and_weights_are_kept_as_python_numbers(self):
        g = WeightGraph(nodes=[(np.int64(1), np.float32(0.5)), (np.uint8(0), 1)],
                        edges=[(np.int32(1), 0, np.float64(2.0))], offset=np.float32(0.25))
        assert g.nodes == [(0, 1.0), (1, 0.5)] and g.edges == [(0, 1, 2.0)] and g.offset == 0.25
        assert all(type(i) is int for i, _ in g.nodes)
        assert all(type(u) is int and type(v) is int for u, v, _ in g.edges)


class TestHardware:
    CHIP = ChipModel(
        qubits=tuple(Qubit(i, 30.0, 3.0, 0.999) for i in range(3)),
        couplers=(Coupler(0, 1, 0.98), Coupler(1, 2, 0.97)),
    )

    def test_path_fidelity_needs_couplers(self):
        assert path_fidelity(self.CHIP, (0, 1, 2)) == pytest.approx(0.98 * 0.97)
        _raises(ValueError, "(0,2) is not a coupler", path_fidelity, self.CHIP, (0, 2))

    def test_library_and_selection_lengths(self):
        _raises(ConfigError, "max_len must be at least 2", build_subchain_library, self.CHIP, 1)
        lib = build_subchain_library(self.CHIP)
        _raises(ValueError, "subchain selection needs k >= 2", select_subchain, lib, 1)


class TestProblems:
    def test_qubo_shape_and_sense(self):
        _raises(ModelError, "QUBO needs at least one variable", QuboMatrix, np.zeros((0, 0)))
        _raises(ModelError, "sense must be 'min' or 'max', got 'up'", QuboMatrix, [[1.0]], "up")

    @pytest.mark.parametrize("edges, node", [
        ([(0, 1.5)], "nodes[1].id: node id 1.5"), ([(0, True)], "nodes[1].id: node id True"),
        ([(-1, 0)], "nodes[0].id: node id -1"), ([("a", 0)], "nodes[0].id: node id 'a'"),
    ], ids=["float", "bool", "negative", "str"])
    def test_labels_are_indices(self, edges, node):
        _raises(ModelError, f"{node} is not a non-negative int", qubo_from_maxcut, edges)

    def test_networkx_bool_labels_are_rejected(self):
        import networkx as nx

        graph = nx.Graph([(False, True)])
        _raises(ModelError, "nodes[0].id: node id False is not a non-negative int",
                qubo_from_maxcut, graph)

    def test_labels_run_from_zero(self):
        _raises(ModelError, "nodes: node ids must be exactly 0..1, got [0, 2]",
                qubo_from_maxcut, [(0, 2)])

    def test_self_loop(self):
        _raises(ModelError, "self loop on node 1", qubo_from_maxcut, [(0, 1), (1, 1)])

    def test_empty_inputs(self):
        _raises(ModelError, "nodes: graph needs at least one node", qubo_from_graph_coloring, [], 2)
        _raises(ModelError, "set packing needs at least one set", qubo_from_set_packing, [])

    @pytest.mark.parametrize("numbers, bad", [([True, 2], "True"), ([3, False], "False"),
                                              ([2, 0], "0"), ([2.0, 1], "2.0")])
    def test_partition_numbers_are_positive_ints(self, numbers, bad):
        _raises(ModelError, f"numbers must be positive integers, got {bad}",
                qubo_from_number_partition, numbers)

    @pytest.mark.parametrize("element", [True, False])
    def test_set_elements_are_not_bools(self, element):
        _raises(ModelError, f"element {element!r} is not a non-negative integer",
                qubo_from_set_packing, [{2}, {element}])


class TestTasks:
    def test_store_line_must_be_an_object(self):
        _raises(ParseError, "malformed task record: a task record must be a JSON object",
                TaskRecord.from_json, "[1, 2]")

    def _record(self, status):
        qasm = emit(PhysicalCircuit(n=1, cycles=[[Gate("h", (0,))]], final_layout=(0,)))
        return TaskRecord(id="ab" * 16, name="t", qasm=qasm, shots=10, status=status,
                          created_at=time.time(), updated_at=time.time())

    def test_illegal_transition(self):
        _raises(ValueError, "illegal transition queued -> completed", _moved,
                self._record("queued"), "completed", counts={"0": 10})

    def test_result_of_a_queued_task(self, tmp_path):
        store = tmp_path / "tasks.jsonl"
        rec = self._record("queued")
        store.write_text(rec.to_json() + "\n")
        with TaskService(store, read_only=True) as reader:
            with pytest.raises(ResultUnavailableError, match="task is queued, result not ready"):
                reader.result(rec.id)


def test_bench_needs_a_rep():
    _raises(ValueError, "reps must be at least 1", run_bench, [4], [0.5], [1], reps=0)


def test_number_lists_skip_empty_entries():
    assert _parse_number_list("3,, 1,", "--numbers", int) == [3, 1]
