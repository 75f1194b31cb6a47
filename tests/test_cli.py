"""End-to-end command-line flows."""

import csv
import importlib.resources
import json

import pytest

from quchain import TaskService, WeightGraph, parse, write_graph
from quchain.cli import main

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
        assert len(rows) > 16 * 16

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

    def test_interp_chained_depth_two(self, demo6_file, tmp_path):
        out = tmp_path / "p2.json"
        code = run(
            ["solve", "--problem", "maxcut", "--graph", demo6_file, "--p", "2",
             "--grid-size", "16", "--init", "interp", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["gamma"]) == 2 and len(doc["beta"]) == 2

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
        from quchain import QaoaParams, compile_graph, read_graph, qubo_from_maxcut, weight_graph_from_qubo

        g = weight_graph_from_qubo(qubo_from_maxcut([(u, v, w) for u, v, w in read_graph(demo6_file).edges]))
        pc = compile_graph(g, QaoaParams(gamma=(0.65, 0.65), beta=(1.21, 1.21)))
        assert json.loads(layout_out.read_text())["logical_to_physical"] == list(pc.initial_mapping)


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

    def _compile_with_flags(self, demo6_file, tmp_path, *flags) -> int:
        return run(
            ["compile", "--problem", "maxcut", "--graph", demo6_file,
             *flags, "--out", str(tmp_path / "c.qasm")]
        )

    @pytest.mark.parametrize(
        "gamma, beta, flag",
        [("nan", "0.3", "--gamma"), ("0.5", "inf", "--beta"),
         ("0.5,-inf", "0.3,0.2", "--gamma"), ("0.5", "0.3x", "--beta")],
    )
    def test_bad_angle_flags_exit_one(self, demo6_file, tmp_path, capsys, gamma, beta, flag):
        code = self._compile_with_flags(
            demo6_file, tmp_path, "--gamma", gamma, "--beta", beta
        )
        assert code == 1
        assert f"error: {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "c.qasm").exists()

    def test_depth_defaults_to_the_angles(self, demo6_file, tmp_path):
        flags = ("--gamma", "0.65,0.7", "--beta", "1.21,1.2")
        assert self._compile_with_flags(demo6_file, tmp_path, *flags) == 0
        rx = [g for g in parse((tmp_path / "c.qasm").read_text()).gates() if g.kind == "rx"]
        assert len(rx) == 2 * 6  # one mixer per qubit per layer
        assert self._compile_with_flags(demo6_file, tmp_path, "--p", "2", *flags) == 0

    def test_depth_mismatch_exits_one(self, demo6_file, tmp_path, capsys):
        code = self._compile_with_flags(
            demo6_file, tmp_path, "--p", "2", "--params", self._params(tmp_path, p=1)
        )
        assert code == 1
        assert "--p 2" in capsys.readouterr().err
        assert not (tmp_path / "c.qasm").exists()


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


class TestBench:
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

    def test_beam_width_below_one_exits_one(self, capsys):
        code = run(["--calib", fixture_path("chain18.json"), "chains", "--beam-width", "-2"])
        assert code == 1
        assert "beam_width" in capsys.readouterr().err

    def test_requires_calibration(self, capsys):
        code = run(["chains"])
        assert code == 1
