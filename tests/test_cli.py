"""End-to-end command-line flows."""

import csv
import importlib.resources
import json
import os
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

from quchain import (
    CapacityError,
    TaskService,
    WeightGraph,
    build_subchain_library,
    load_calibration,
    parse,
    select_subchain,
    write_graph,
)
from quchain.cli import PALETTE, _pick_chain, main

from conftest import DEMO6_EDGES


def fixture_path(name: str) -> str:
    return str(importlib.resources.files("quchain") / "data" / name)


@pytest.fixture
def demo6_file(tmp_path):
    g = WeightGraph(
        nodes=[(i, 1.0) for i in range(6)],
        edges=[(u, v, 1.0) for u, v in DEMO6_EDGES],
    )
    path = tmp_path / "maxcut6.json"
    write_graph(g, path)
    return str(path)


def run(args) -> int:
    return main(args)


def one_qubit_calibration(tmp_path) -> str:
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"qubits": [{"id": 0, "t1_us": 50, "t2_us": 40, "f1q": 0.99}]}))
    return str(path)


class TestSolve:
    def test_maxcut_reports_negative_energy(self, demo6_file, tmp_path, capsys):
        out = tmp_path / "params.json"
        code = run(
            ["solve", "--problem", "maxcut", "--graph", demo6_file, "--p", "1",
             "--grid-size", "16", "--out", str(out), "--trace", str(tmp_path / "trace.csv")]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "E_p" in printed
        doc = json.loads(out.read_text())
        assert doc["energy"] < 0
        assert len(doc["gamma"]) == 1
        with open(tmp_path / "trace.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["eval", "gamma_1", "beta_1", "energy"]
        assert len(rows) > 3 * 16  # a header, three evaluations per line, then the search

    def test_missing_file_fails(self, capsys):
        code = run(["solve", "--problem", "maxcut", "--graph", "/nonexistent.json", "--p", "1"])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_raw_weight_graph_without_problem_flag(self, tmp_path, capsys):
        g = WeightGraph(
            nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 0.5)], offset=-0.5
        )
        path = tmp_path / "raw.json"
        write_graph(g, path)
        code = run(["solve", "--graph", str(path), "--p", "1", "--grid-size", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "E_p" in out and "(min)" in out

    def test_zero_max_cut_objective_estimate_prints_as_zero(self, tmp_path, capsys):
        # The only edge weighs 0, so the estimate is -(0.0 + 0.0): -0.0 folded.
        path = tmp_path / "zero.json"
        write_graph(WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 0.0)]), path)
        code = run(["solve", "--problem", "maxcut", "--graph", str(path), "--grid-size", "2"])
        assert code == 0
        assert "objective estimate (max) = 0" in capsys.readouterr().out.splitlines()

    def test_interp_chained_depth_two(self, demo6_file, tmp_path):
        out = tmp_path / "p2.json"
        code = run(
            ["solve", "--problem", "maxcut", "--graph", demo6_file, "--p", "2",
             "--grid-size", "16", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["gamma"]) == 2 and len(doc["beta"]) == 2

    def test_trace_holds_only_the_requested_depth(self, demo6_file, tmp_path):
        trace = tmp_path / "trace.csv"
        code = run(["solve", "--problem", "maxcut", "--graph", demo6_file, "--p", "2",
                    "--grid-size", "8", "--trace", str(trace)])
        assert code == 0
        with open(trace) as f:
            header, *rows = list(csv.reader(f))
        assert header == ["eval", "gamma_1", "gamma_2", "beta_1", "beta_2", "energy"]
        # The depth-1 stages spend evaluations 0..107; the depth-2 ones follow.
        assert [int(r[0]) for r in rows] == list(range(108, 410))
        assert {len(r) for r in rows} == {6}

    @pytest.mark.parametrize("problem, qubits", [("maxcut", 5), ("coloring", 15)])
    def test_graph_problems_keep_an_edgeless_middle_node(self, tmp_path, capsys, problem,
                                                         qubits):
        graph = tmp_path / "g5.json"
        write_graph(WeightGraph(nodes=[(i, 0.0) for i in range(5)],
                                edges=[(0, 1, 1.0), (3, 4, 1.0)]), graph)
        args = ["--problem", problem, "--graph", str(graph)]
        params = tmp_path / "params.json"
        assert run(["solve", *args, "--grid-size", "4", "--out", str(params)]) == 0
        qasm = tmp_path / "c.qasm"
        assert run(["compile", *args, "--params", str(params), "--out", str(qasm)]) == 0
        assert parse(qasm.read_text()).n_logical == qubits

    @pytest.mark.parametrize("flag,value", [
        ("--p", "0"), ("--p", "-2"), ("--grid-size", "0"), ("--grid-size", "-3"),
        ("--max-evals", "0"),
    ])
    def test_bad_numeric_flags_exit_one(self, demo6_file, tmp_path, capsys, monkeypatch,
                                        flag, value):
        def no_optimize(*args, **kwargs):
            pytest.fail("solve optimized before rejecting its flags")

        monkeypatch.setattr("quchain.cli.optimize", no_optimize)
        out = tmp_path / "params.json"
        code = run(
            ["solve", "--problem", "maxcut", "--graph", demo6_file, "--grid-size", "4",
             flag, value, "--out", str(out)]
        )
        assert code == 1
        assert f"{flag} must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("penalty", ["nan", "inf"])
    def test_non_finite_set_packing_penalty_exits_one(self, capsys, penalty):
        code = run(["solve", "--problem", "setpack", "--sets", "0,1;1,2;2",
                    "--penalty", penalty])
        assert code == 1
        captured = capsys.readouterr()
        assert "E_p" not in captured.out
        assert "penalty" in captured.err

    @pytest.mark.parametrize("exponent", [200, 400])
    def test_partition_number_too_large_exits_one(self, capsys, exponent):
        code = run(["solve", "--problem", "partition", "--numbers", f"{10**exponent},3"])
        assert code == 1
        assert "error: numbers[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--numbers", "1,x"), ("--numbers", "3,2.5"), ("--sets", "0,1;1,y"),
    ])
    def test_malformed_problem_numbers_name_their_flag(self, capsys, flag, value):
        problem = "partition" if flag == "--numbers" else "setpack"
        code = run(["solve", "--problem", problem, flag, value])
        assert code == 1
        assert f"error: {flag}: malformed number" in capsys.readouterr().err

    def test_set_packing_needs_no_universe(self, capsys):
        assert run(["solve", "--problem", "setpack", "--sets", "0;1;0,1"]) == 0
        assert "objective estimate (max)" in capsys.readouterr().out


class TestCompile:
    def _params(self, tmp_path, p=1):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"gamma": [0.65] * p, "beta": [1.21] * p}))
        return str(path)

    def test_demo6_on_eighteen_qubit_fixture(self, demo6_file, tmp_path, capsys):
        qasm_out = tmp_path / "c.qasm"
        layout_out = tmp_path / "layout.json"
        code = run(
            ["--calib", fixture_path("chain18.json"),
             "compile", "--problem", "maxcut", "--graph", demo6_file,
             "--params", self._params(tmp_path), "--out", str(qasm_out),
             "--layout", str(layout_out)]
        )
        assert code == 0
        pc = parse(qasm_out.read_text())
        used = {q for g in pc.gates() for q in g.qubits}
        assert len(used) == 6
        # uniform coupler fidelity: ties go to the smallest path, so the 6-chain is 0..5
        assert used == set(range(6))
        printed = capsys.readouterr().out
        assert "depth" in printed and "cnot_count" in printed
        layout = json.loads(layout_out.read_text())
        assert sorted(layout["logical_to_physical"]) == list(range(6))

    @pytest.mark.parametrize("calib,ks", [
        ("chain18.json", (1, 2, 3, 7, 17, 18, 19)),
        ("grid136.json", (1, 2, 10, 30, 64, 100, 136, 137)),
    ])
    def test_picked_chain_is_the_full_library_head(self, calib, ks):
        path = fixture_path(calib)
        full = build_subchain_library(load_calibration(path))
        for k in ks:
            try:
                want = select_subchain(full, max(2, k))
            except CapacityError as exc:
                with pytest.raises(CapacityError, match=f"^{exc}$"):
                    _pick_chain(Namespace(calib=path), k)
            else:
                assert _pick_chain(Namespace(calib=path), k) == want

    def test_chip_too_small(self, demo6_file, tmp_path, capsys):
        calib = tmp_path / "tiny.json"
        calib.write_text(json.dumps({
            "qubits": [{"id": i, "t1_us": 1, "t2_us": 1, "f1q": 0.99} for i in range(3)],
            "couplers": [{"a": 0, "b": 1, "f2q": 0.9}, {"a": 1, "b": 2, "f2q": 0.9}],
        }))
        code = run(
            ["--calib", str(calib), "compile", "--problem", "maxcut",
             "--graph", demo6_file, "--params", self._params(tmp_path),
             "--out", str(tmp_path / "c.qasm")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes", [1, 6])
    def test_one_qubit_chip_names_its_size(self, tmp_path, capsys, nodes):
        graph = tmp_path / "g.json"
        write_graph(WeightGraph(nodes=[(i, 1.0) for i in range(nodes)]), graph)
        qasm = tmp_path / "c.qasm"
        code = run(["--calib", one_qubit_calibration(tmp_path), "compile", "--graph", str(graph),
                    "--gamma", "0.5", "--beta", "0.3", "--out", str(qasm)])
        assert code == 1
        assert capsys.readouterr().err == "error: the chip has 1 qubit; a chain needs at least 2\n"
        assert not qasm.exists()

    def test_even_depth_layout_equals_initial_mapping(self, demo6_file, tmp_path):
        qasm_out = tmp_path / "c2.qasm"
        layout_out = tmp_path / "layout2.json"
        code = run(
            ["compile", "--problem", "maxcut", "--graph", demo6_file,
             "--params", self._params(tmp_path, p=2), "--out", str(qasm_out),
             "--layout", str(layout_out)]
        )
        assert code == 0
        # the swap permutation cancels pairwise at even depth, so the layout
        # written for decoding is exactly the searched initial placement
        from quchain import read_graph, qubo_from_maxcut, search_initial_mapping, weight_graph_from_qubo

        g = weight_graph_from_qubo(qubo_from_maxcut([(u, v, w) for u, v, w in read_graph(demo6_file).edges]))
        mapping, _ = search_initial_mapping(g, g.n)  # the placement compile_graph uses
        assert json.loads(layout_out.read_text())["logical_to_physical"] == list(mapping)


    @pytest.mark.parametrize(
        "doc, location",
        [
            ({"gamma": [0.65]}, "$"),
            ({"gamma": [0.65], "beta": 1.21}, "beta"),
            ({"gamma": [0.65], "beta": ["x"]}, "beta[0]"),
            ([0.65, 1.21], "$"),
        ],
    )
    def test_bad_params_file_exits_one(self, demo6_file, tmp_path, capsys, doc, location):
        params = tmp_path / "bad.json"
        params.write_text(json.dumps(doc))
        code = run(
            ["compile", "--problem", "maxcut", "--graph", demo6_file,
             "--params", str(params), "--out", str(tmp_path / "c.qasm")]
        )
        assert code == 1
        assert f"error: {location}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"gamma": [], "beta": []}, "gamma: expected at least 1 angle, got 0"),
            ({"gamma": [], "beta": [1.21]}, "gamma: expected at least 1 angle, got 0"),
            ({"gamma": [0.65, 0.7], "beta": [1.21]},
             "beta: expected as many angles as gamma (2), got 1"),
            ({"gamma": [0.65], "beta": []}, "beta: expected as many angles as gamma (1), got 0"),
            ({"gamma": [0.65], "beta": [1.21, 1.2]},
             "beta: expected as many angles as gamma (1), got 2"),
        ],
        ids=["both-empty", "gamma-empty", "beta-short", "beta-empty", "beta-long"],
    )
    def test_params_file_angle_counts_are_located(self, demo6_file, tmp_path, capsys, doc,
                                                  message):
        params = tmp_path / "bad.json"
        params.write_text(json.dumps(doc))
        code = run(
            ["compile", "--problem", "maxcut", "--graph", demo6_file,
             "--params", str(params), "--out", str(tmp_path / "c.qasm")]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "c.qasm").exists()

    @pytest.mark.parametrize(
        "gamma, beta, message",
        [
            (",", ",", "--gamma: expected at least 1 angle, got 0"),
            (",", "0.3", "--gamma: expected at least 1 angle, got 0"),
            ("0.5", ",", "--beta: expected as many angles as gamma (1), got 0"),
            ("0.5,0.4", "0.3", "--beta: expected as many angles as gamma (2), got 1"),
        ],
        ids=["both-empty", "gamma-empty", "beta-empty", "beta-short"],
    )
    def test_angle_flag_counts_name_the_flag(self, demo6_file, tmp_path, capsys, gamma, beta,
                                             message):
        code = self._compile_with_flags(demo6_file, tmp_path, "--gamma", gamma, "--beta", beta)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "c.qasm").exists()

    def _compile_with_flags(self, demo6_file, tmp_path, *flags) -> int:
        return run(
            ["compile", "--problem", "maxcut", "--graph", demo6_file,
             *flags, "--out", str(tmp_path / "c.qasm")]
        )

    @pytest.mark.parametrize(
        "gamma, beta, message",
        [("nan", "0.3", "--gamma[0]: expected a finite number, got nan"),
         ("0.5", "inf", "--beta[0]: expected a finite number, got inf"),
         ("0.5,-inf", "0.3,0.2", "--gamma[1]: expected a finite number, got -inf"),
         ("0.5", "0.3x", "--beta: malformed number '0.3x' in '0.3x'")],
        # A non-finite angle is judged by QaoaParams, which locates it.
        ids=["nan-0.3---gamma", "0.5-inf---beta", "0.5,-inf-0.3,0.2---gamma", "0.5-0.3x---beta"],
    )
    def test_bad_angle_flags_exit_one(self, demo6_file, tmp_path, capsys, gamma, beta, message):
        code = self._compile_with_flags(
            demo6_file, tmp_path, "--gamma", gamma, "--beta", beta
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "c.qasm").exists()

    def test_depth_defaults_to_the_angles(self, demo6_file, tmp_path):
        flags = ("--gamma", "0.65,0.7", "--beta", "1.21,1.2")
        assert self._compile_with_flags(demo6_file, tmp_path, *flags) == 0
        rx = [g for g in parse((tmp_path / "c.qasm").read_text()).gates() if g.kind == "rx"]
        assert len(rx) == 2 * 6  # one mixer per qubit per layer


class TestTaskFlow:
    def test_full_pipeline_hundred_shots(self, demo6_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        params = tmp_path / "params.json"
        code = run(
            ["--store", store, "solve", "--problem", "maxcut", "--graph", demo6_file,
             "--p", "1", "--out", str(params)]
        )
        assert code == 0
        qasm_out = tmp_path / "c.qasm"
        code = run(
            ["--store", store, "compile", "--problem", "maxcut", "--graph", demo6_file,
             "--params", str(params), "--out", str(qasm_out)]
        )
        assert code == 0
        capsys.readouterr()
        code = run(["--store", store, "submit", "--qasm", str(qasm_out), "--shots", "100"])
        assert code == 0
        task_id = capsys.readouterr().out.strip().split("\n")[-1]
        assert len(task_id) == 32

        code = run(["--store", store, "status", task_id])
        assert code == 0
        assert capsys.readouterr().out.strip() == "completed"

        dot = tmp_path / "out.dot"
        hist = tmp_path / "hist.csv"
        code = run(
            ["--store", store, "result", task_id, "--problem", "maxcut",
             "--graph", demo6_file, "--top", "2", "--dot", str(dot), "--hist", str(hist)]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        starred = [l for l in lines if l.endswith("*")]
        assert len(starred) == 2
        # top-2 rows decode to the two distinct max-cut partitions, cut 6
        partitions = set()
        for line in starred:
            bits, _count, energy, objective = line.rstrip(" *").split()
            assert float(energy) == pytest.approx(-2.5)
            assert float(objective) == pytest.approx(6.0)
            side = frozenset(i for i, b in enumerate(bits) if b == "1")
            partitions.add(frozenset({side, frozenset(range(6)) - side}))
        assert partitions == {
            frozenset({frozenset({1, 4}), frozenset({0, 2, 3, 5})}),
            frozenset({frozenset({1, 2, 4}), frozenset({0, 3, 5})}),
        }
        dot_text = dot.read_text()
        assert dot_text.startswith("graph solution {")
        assert len({l.split("fillcolor=")[1] for l in dot_text.splitlines() if "fillcolor" in l}) == 2
        with open(hist) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["bitstring", "count", "energy", "objective"]
        assert sum(int(r[1]) for r in rows[1:]) == 100

    def test_submit_while_another_writer_holds_the_store_exits_one(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        qasm = tmp_path / "c.qasm"
        qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
                        "h q[0];\nmeasure q[0] -> c[0];\n")
        with TaskService(store / "tasks.jsonl"):
            code = run(["--store", str(store), "submit", "--qasm", str(qasm), "--shots", "10"])
        assert code == 1
        assert str(store / "tasks.jsonl") in capsys.readouterr().err

    @pytest.mark.parametrize("text, shots, message", [
        ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
         "measure q[0] -> c[0];\n", "0", "shots must be an int of at least 1, got 0"),
        ("not qasm\n", "10", 'document must start with "OPENQASM 2.0;"'),
    ], ids=["zero-shots", "not-qasm"])
    def test_rejected_submit_creates_no_store(self, tmp_path, capsys, text, shots, message):
        qasm = tmp_path / "c.qasm"
        qasm.write_text(text)
        store = tmp_path / "store"
        code = run(["--store", str(store), "submit", "--qasm", str(qasm), "--shots", shots])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not store.exists()

    def test_submit_parses_its_qasm_once(self, tmp_path, monkeypatch):
        import quchain.cli
        import quchain.tasks

        calls = []

        def counted(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(quchain.cli, "parse", counted, raising=False)
        monkeypatch.setattr(quchain.tasks, "parse", counted)
        # a sampler that does not parse, so every counted parse is a check
        monkeypatch.setattr(quchain.tasks.LocalSampler, "run",
                            lambda self, text, shots, seed=None: {"0": shots})
        qasm = tmp_path / "c.qasm"
        qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
                        "h q[0];\nmeasure q[0] -> c[0];\n")
        assert run(["--store", str(tmp_path / "store"), "submit", "--qasm", str(qasm), "--shots", "10"]) == 0
        assert calls == [qasm.read_text()]

    def test_dot_fills_an_edgeless_node_from_its_bit(self, tmp_path, capsys):
        # The max-cut model has one qubit per declared node, edgeless node 3 too.
        store = tmp_path / "store"
        store.mkdir()
        graph = tmp_path / "g4.json"
        write_graph(WeightGraph(nodes=[(i, 1.0) for i in range(4)],
                                edges=[(0, 1, 1.0), (1, 2, 1.0)]), graph)
        qasm = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\ncreg c[4];\n'
                "rx(3.141592653589793) q[1];\nrx(3.141592653589793) q[3];\n"
                + "".join(f"measure q[{i}] -> c[{i}];\n" for i in range(4)))
        with TaskService(store / "tasks.jsonl") as service:
            task_id = service.submit(qasm, shots=5, seed=1, wait=True).id
        dot = tmp_path / "out.dot"
        code = run(["--store", str(store), "result", task_id, "--problem", "maxcut",
                    "--graph", str(graph), "--dot", str(dot)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1] == "0101 5 -1 2 *"
        assert dot.read_text().splitlines() == [
            "graph solution {",
            "  0 [style=filled, fillcolor=lightblue];",
            "  1 [style=filled, fillcolor=salmon];",
            "  2 [style=filled, fillcolor=lightblue];",
            "  3 [style=filled, fillcolor=salmon];",
            "  0 -- 1;", "  1 -- 2;",
            "}",
        ]

    def test_zero_max_cut_objective_prints_as_zero(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        graph = tmp_path / "k2.json"
        write_graph(WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 1.0)]), graph)
        qasm = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
                "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n")
        with TaskService(store / "tasks.jsonl") as service:
            task_id = service.submit(qasm, shots=2, seed=1, wait=True).id
        hist = tmp_path / "hist.csv"
        code = run(["--store", str(store), "result", task_id, "--problem", "maxcut",
                    "--graph", str(graph), "--hist", str(hist)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1] == "00 2 0.5 0 *"
        assert hist.read_text().splitlines()[1] == "00,2,0.5,0.0"

    def test_top_below_one_exits_one(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        graph = tmp_path / "k2.json"
        write_graph(WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 1.0)]), graph)
        qasm = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
                "h q[0];\nh q[1];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n")
        with TaskService(store / "tasks.jsonl") as service:
            task_id = service.submit(qasm, shots=10, seed=1, wait=True).id
        code = run(["--store", str(store), "result", task_id, "--graph", str(graph), "--top", "0"])
        assert code == 1
        assert "top" in capsys.readouterr().err

    def test_unknown_id_exits_two(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = run(["--store", store, "status", "ffffffffffffffffffffffffffffffff"])
        assert code == 2

    @pytest.mark.parametrize("verb", [["status"], ["result", "--graph", "g.json"]])
    def test_read_only_verbs_create_no_store(self, tmp_path, capsys, monkeypatch, verb):
        monkeypatch.chdir(tmp_path)
        for store in ([], ["--store", "sub/dir"]):
            code = run([*store, verb[0], "deadbeef", *verb[1:]])
            assert code == 2
            assert "unknown task id" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


    def test_status_on_a_non_utf8_store_names_store_and_line(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        record = {"id": "ab" * 16, "name": "job", "qasm": "", "shots": 10,
                  "status": "queued", "created_at": 1.5e9, "updated_at": 1.5e9}
        line = json.dumps(record).encode().replace(b'"job"', b'"job\xe9"')
        (store / "tasks.jsonl").write_bytes(line + b"\n")
        code = run(["--store", str(store), "status", "ab" * 16])
        assert code == 1
        assert f"{store / 'tasks.jsonl'}, line 1" in capsys.readouterr().err


    def test_result_of_a_failed_task_exits_three(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        graph = tmp_path / "k2.json"
        write_graph(WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 1.0)]), graph)
        qasm = ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
                "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n")
        with TaskService(store / "tasks.jsonl", backend=_OfflineBackend()) as service:
            task_id = service.submit(qasm, shots=4, wait=True).id
        code = run(["--store", str(store), "result", task_id, "--graph", str(graph)])
        assert code == 3
        assert capsys.readouterr().err == "error: task failed: device offline\n"

    def test_result_of_a_completed_task_without_counts_exits_one(self, tmp_path, capsys):
        store = tmp_path / "store"
        store.mkdir()
        graph = tmp_path / "k2.json"
        write_graph(WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 1.0)]), graph)
        record = {"id": "ab" * 16, "name": "", "qasm": "", "shots": 10, "seed": None,
                  "status": "completed", "counts": "", "error": None,
                  "created_at": 1.5e9, "updated_at": 1.5e9}
        (store / "tasks.jsonl").write_text(json.dumps(record) + "\n")
        dot = tmp_path / "out.dot"
        code = run(["--store", str(store), "result", "ab" * 16, "--problem", "maxcut",
                    "--graph", str(graph), "--dot", str(dot)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: no sampled bitstrings to rank\n"
        assert captured.out == "" and not dot.exists()


class _OfflineBackend:
    def run(self, qasm_text, shots, seed=None):
        raise RuntimeError("device offline")


_WITHOUT_NETWORKX = """
import sys
blocked = sys.argv[1] == "blocked"
if blocked:
    sys.modules["networkx"] = None  # an import of networkx now raises ModuleNotFoundError
from quchain.cli import main
graph, store, dot = sys.argv[2:]
codes = [
    main(["solve", "--problem", "maxcut", "--graph", graph, "--grid-size", "4"]),
    main(["solve", "--problem", "coloring", "--graph", graph, "--colors", "2",
          "--grid-size", "4"]),
    main(["--store", store, "result", "ab" * 16, "--problem", "maxcut", "--graph", graph,
          "--dot", dot]),
]
assert codes == [0, 0, 0], codes
assert sys.modules["networkx"] is None if blocked else "networkx" not in sys.modules
"""


@pytest.mark.parametrize("mode", ["blocked", "free"])
def test_graph_problems_run_without_networkx(tmp_path, mode):
    """``solve`` and ``result --dot`` on graph problems import no networkx,
    and run with it blocked."""
    graph = tmp_path / "path3.json"
    write_graph(WeightGraph(nodes=[(i, 0.0) for i in range(3)],
                            edges=[(0, 1, 1.0), (1, 2, 1.0)]), graph)
    store = tmp_path / "store"
    store.mkdir()
    record = {"id": "ab" * 16, "name": "", "qasm": "", "shots": 4, "seed": None,
              "status": "completed", "counts": "010:3,101:1", "error": None,
              "created_at": 1.5e9, "updated_at": 1.5e9}
    (store / "tasks.jsonl").write_text(json.dumps(record) + "\n")
    dot = tmp_path / "out.dot"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NETWORKX, mode, str(graph),
                           str(store), str(dot)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "010 3 -1 2 *" in proc.stdout
    assert dot.read_text() == ("graph solution {\n"
                               f"  0 [style=filled, fillcolor={PALETTE[0]}];\n"
                               f"  1 [style=filled, fillcolor={PALETTE[1]}];\n"
                               f"  2 [style=filled, fillcolor={PALETTE[0]}];\n"
                               "  0 -- 1;\n  1 -- 2;\n}\n")


class TestColoringFlow:
    """Graph coloring through every verb: the one-hot model, ``submit --wait``
    and the DOT file drawn from the best row."""

    def test_triangle_solve_compile_submit_wait_result_dot(self, tmp_path, capsys):
        graph = tmp_path / "triangle.json"
        write_graph(WeightGraph(nodes=[(i, 0.0) for i in range(3)],
                                edges=[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]), graph)
        problem = ["--problem", "coloring", "--graph", str(graph), "--colors", "3"]
        params = tmp_path / "params.json"
        assert run(["solve", *problem, "--grid-size", "8", "--out", str(params)]) == 0
        assert "(min)" in capsys.readouterr().out
        qasm = tmp_path / "c.qasm"
        assert run(["compile", *problem, "--params", str(params), "--out", str(qasm)]) == 0
        assert parse(qasm.read_text()).n_logical == 9  # vertex v, color c is qubit 3v + c
        capsys.readouterr()

        store = str(tmp_path / "store")
        code = run(["--store", store, "submit", "--qasm", str(qasm), "--shots", "200", "--wait"])
        assert code == 0
        head, *rows = capsys.readouterr().out.splitlines()
        task, task_id, status = head.split()
        assert (task, len(task_id), status) == ("task", 33, "completed")  # id and its colon
        counts = {bits: int(count) for bits, count in (row.split() for row in rows)}
        assert list(counts) == sorted(counts)
        assert sum(counts.values()) == 200 and {len(bits) for bits in counts} == {9}

        dot = tmp_path / "out.dot"
        code = run(["--store", store, "result", task_id.rstrip(":"), *problem, "--dot", str(dot)])
        assert code == 0
        best, count = capsys.readouterr().out.splitlines()[1].split()[:2]
        assert counts[best] == int(count)
        # Bit "0" is x = 1: vertex v takes the first color c whose bit 3v + c
        # is "0", and a vertex with no such bit is drawn white.
        groups = [best[3 * v:3 * v + 3] for v in range(3)]
        fills = [PALETTE[g.index("0")] if "0" in g else "white" for g in groups]
        assert set(fills) - {"white"}
        assert dot.read_text().splitlines() == [
            "graph solution {",
            *(f"  {v} [style=filled, fillcolor={fill}];" for v, fill in enumerate(fills)),
            "  0 -- 1;", "  0 -- 2;", "  1 -- 2;",
            "}",
        ]


class TestMissingInputs:
    @pytest.mark.parametrize("argv, message", [
        (["solve"], "either --graph or --problem is required"),
        (["solve", "--problem", "maxcut"], "--graph is required for the maxcut problem"),
        (["solve", "--problem", "partition"], "--numbers is required for the partition problem"),
        (["solve", "--problem", "setpack"], "--sets is required for set packing"),
        (["compile", "--problem", "partition", "--numbers", "1,2", "--gamma", "0.1",
          "--out", "c.qasm"], "provide --params FILE or both --gamma and --beta"),
    ], ids=["graph-or-problem", "graph", "numbers", "sets", "params"])
    def test_missing_input_exits_one_with_its_message(self, tmp_path, capsys, monkeypatch,
                                                      argv, message):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestGlobalFlags:
    @pytest.mark.parametrize("verb", [
        ["submit", "--qasm", "c.qasm", "--shots", "10", "--wait"],
        ["solve", "--graph", "g.json", "--out", "params.json"],
        ["bench", "--sizes", "4", "--densities", "0.5", "--reps", "1", "--out", "bench.csv"],
    ])
    def test_negative_seed_exits_one_before_the_verb_runs(self, tmp_path, capsys,
                                                          monkeypatch, verb):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.qasm").write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
                                         "creg c[1];\nh q[0];\nmeasure q[0] -> c[0];\n")
        write_graph(WeightGraph(nodes=[(0, 0.0), (1, 0.0)], edges=[(0, 1, 1.0)]),
                    tmp_path / "g.json")
        before = sorted(tmp_path.iterdir())
        code = run(["--seed", "-1", "--store", "st", *verb])
        assert code == 1
        assert "error: --seed must be at least 0, got -1" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before  # no store, no output file


class TestRemovedFlags:
    @pytest.mark.parametrize("argv, named", [
        (["compile", "--graph", "g.json", "--out", "c.qasm", "--p", "1"], "--p"),
        (["compile", "--graph", "g.json", "--out", "c.qasm", "--bmax", "5"], "--bmax"),
        (["compile", "--graph", "g.json", "--out", "c.qasm", "--universe", "3"], "--universe"),
        (["solve", "--graph", "g.json", "--universe", "3"], "--universe"),
        (["result", "ab", "--graph", "g.json", "--universe", "3"], "--universe"),
        (["solve", "--graph", "g.json", "--init", "random"], "--init"),
        (["chains", "--beam-width", "64"], "--beam-width"),
        (["solve", "--graph", "g.json", "--optimizer", "grid"], "--optimizer"),
    ], ids=["compile-p", "bmax", "compile-universe", "solve-universe", "result-universe",
            "init", "beam-width", "optimizer"])
    def test_removed_flag_exits_two(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err


class TestBench:
    @pytest.mark.parametrize("flag, value, message", [
        ("--sizes", "6,x", "malformed number"),
        ("--sizes", "6.5", "malformed number"),
        ("--densities", "0.5,nan", "density must be in [0, 1], got nan"),
        ("--densities", "inf", "density must be in [0, 1], got inf"),
        ("--densities", "0.5x", "malformed number"),
        ("--p-list", "one", "malformed number"),
        ("--sizes", "4,0", "must be at least 1, got 0"),
        ("--sizes", "-3", "must be at least 1, got -3"),
        ("--p-list", "0", "must be at least 1, got 0"),
        ("--p-list", "1,-1", "must be at least 1, got -1"),
        ("--reps", "0", "must be at least 1, got 0"),
        ("--densities", "0.5,2", "density must be in [0, 1], got 2.0"),
    ])
    def test_bad_number_lists_name_their_flag(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "bench.csv"
        args = {"--sizes": "4", "--densities": "0.5", "--p-list": "1", "--reps": "1",
                flag: value}
        code = run(["bench", *[x for kv in args.items() for x in kv], "--out", str(out)])
        assert code == 1
        assert f"error: {flag}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_single_node_size_runs(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--sizes", "1", "--densities", "0.5", "--p-list", "1",
                    "--reps", "1", "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("density", ["2", "-0.5"])
    def test_density_outside_unit_interval_exits_one(self, tmp_path, capsys, density):
        out = tmp_path / "bench.csv"
        code = run(["bench", "--sizes", "4", "--densities", density, "--reps", "1",
                    "--out", str(out)])
        assert code == 1
        assert "density must be in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_schema_and_complete_law(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(
            ["--seed", "3", "bench", "--sizes", "6,8", "--densities", "0.5,1.0",
             "--p-list", "1", "--reps", "2", "--out", str(out)]
        )
        assert code == 0
        with open(out) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["n", "d", "p", "rep", "compile_ms", "depth_pre", "depth_post", "cnot_count"]
        data = [r for r in rows[1:] if r[3] != "mean"]
        means = [r for r in rows[1:] if r[3] == "mean"]
        assert len(data) == 8 and len(means) == 4
        for r in data:
            if r[1] == "1.0":
                n = int(r[0])
                assert int(r[5]) == 2 * n - 2  # complete-graph template law

    def test_structural_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["--seed", "7", "bench", "--sizes", "6", "--densities", "0.5",
                        "--p-list", "1", "--reps", "1", "--out", str(out)]) == 0

        def structural(path):
            with open(path) as f:
                return [[c for i, c in enumerate(row) if i != 4] for row in csv.reader(f)]

        assert structural(a) == structural(b)


class TestChains:
    def test_prints_library(self, capsys):
        code = run(["--calib", fixture_path("chain10.json"), "chains", "--max-len", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "k=2" in out and "k=4" in out

    def test_length_without_a_chain_prints_none(self, tmp_path, capsys):
        calib = tmp_path / "star.json"
        calib.write_text(json.dumps({
            "qubits": [{"id": i, "t1_us": 50, "t2_us": 40, "f1q": 0.99} for i in range(4)],
            "couplers": [{"a": 0, "b": i, "f2q": 0.9} for i in (1, 2, 3)],
        }))
        code = run(["--calib", str(calib), "chains"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "k=2: 0-1 (0.900000), 0-2 (0.900000), 0-3 (0.900000)",
            "k=3: 1-0-2 (0.810000), 1-0-3 (0.810000), 2-0-3 (0.810000)",
            "k=4: (none)",
        ]

    @pytest.mark.parametrize("max_len", [[], ["--max-len", "2"]], ids=["whole-chip", "max-len"])
    def test_one_qubit_chip_names_its_size(self, tmp_path, capsys, max_len):
        code = run(["--calib", one_qubit_calibration(tmp_path), "chains", *max_len])
        assert code == 1
        assert capsys.readouterr() == ("", "error: the chip has 1 qubit; a chain needs at least 2\n")

    def test_requires_calibration(self, capsys):
        code = run(["chains"])
        assert code == 1
