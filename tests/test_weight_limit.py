"""Weights too large to simulate and angles too large to emit are rejected
up front, with a location, instead of overflowing in NumPy later.

pytest turns every RuntimeWarning into an error (pyproject.toml), so a
NumPy overflow anywhere below fails these tests too.
"""

import json

import numpy as np
import pytest

from quchain import (
    LocalSampler,
    ModelError,
    ParseError,
    QaoaParams,
    WeightGraph,
    compile_graph,
    emit,
    optimize,
    process_results,
    qubo_from_maxcut,
    schedule,
)
from quchain.cli import main
from quchain.graph import WEIGHT_LIMIT

TRIANGLE = [(0, 1), (1, 2), (0, 2)]


def _graph(node_w=(0.0, 0.0, 0.0), edges=(), offset=0.0) -> WeightGraph:
    return WeightGraph(nodes=list(enumerate(node_w)), edges=list(edges), offset=offset)


def _write(path, node_w, edges, offset=0.0):
    """A graph document written directly, so that it may break the limit."""
    doc = {"offset": offset, "nodes": [{"id": i, "w": w} for i, w in enumerate(node_w)],
           "edges": [{"u": u, "v": v, "w": w} for u, v, w in edges]}
    path.write_text(json.dumps(doc))
    return str(path)


class TestWeightLimit:
    @pytest.mark.parametrize("node_w, edges, offset, location", [
        ((0.0, 0.0), [(0, 1, 1e308)], 0.0, "edges[0].w"),
        ((0.0, 0.0, 0.0), [(u, v, 1e308) for u, v in TRIANGLE], 0.0, "edges[0].w"),
        ((0.0, 0.0, 0.0), [(u, v, 4e299) for u, v in TRIANGLE], 0.0, "edges[2].w"),
        ((0.0, -7e299, 7e299), [], 0.0, "nodes[2].w"),
        ((6e299, 0.0), [(0, 1, 3e299)], -2e299, "offset"),
    ], ids=["edge", "triangle", "third-edge", "fields", "offset"])
    def test_rejected_where_the_running_sum_passes_the_limit(self, node_w, edges, offset,
                                                              location):
        with pytest.raises(ParseError) as err:
            _graph(node_w, edges, offset)
        assert err.value.location == location
        assert str(err.value) == f"{location}: weights sum past the limit of 1e+300"

    def test_the_limit_itself_is_accepted(self):
        g = _graph((0.0, 0.0, 0.0), [(0, 1, 5e299), (1, 2, -2.5e299)], offset=2.5e299)
        assert WEIGHT_LIMIT == 1e300 and g.edges[0][2] == 5e299

    def test_builders_raise_a_located_model_error(self):
        with pytest.raises(ModelError, match=r"^edges\[1\].w: weights sum past the limit"):
            qubo_from_maxcut([(0, 1, 1.0), (1, 2, 1e308)])

    @pytest.mark.parametrize("node_w, edges, offset", [
        ((0.0, 0.0), [(0, 1, 1e300)], 0.0),
        ((5e299, -5e299), [], 0.0),
        ((0.0, 0.0, 0.0), [(0, 1, 2.5e299), (1, 2, -2.5e299), (0, 2, 2.5e299)], 2.5e299),
        ((1e299, 0.0, 2e299), [(0, 1, 3e299), (1, 2, -4e299)], 0.0),
    ], ids=["edge", "fields", "triangle-offset", "mixed"])
    def test_a_graph_at_the_limit_runs_the_whole_pipeline(self, node_w, edges, offset):
        g = _graph(node_w, edges, offset)
        for p in (1, 2):
            res = optimize(g, p=p, grid_size=8, max_evals=400)
            assert np.isfinite(res.energy) and res.params.p == p
        qasm = emit(compile_graph(g, res.params))
        counts = LocalSampler().run(qasm, shots=64, seed=3)
        ranked = process_results(counts, g)
        assert all(np.isfinite(row.energy) for row in ranked.rows)


class TestNonFiniteAngles:
    @pytest.mark.parametrize("gamma, beta, edge_w, overflows", [
        (1e308, 0.1, 1.0, True), (0.1, 1e308, 1.0, True), (1e10, 0.1, 1e300, True),
        (0.5, 0.1, 1e300, False), (0.1, 8e307, 1.0, False),
    ], ids=["gamma", "beta", "gamma-times-weight", "large-weight", "large-beta"])
    def test_compile_graph_rejects_an_angle_that_overflows(self, gamma, beta, edge_w,
                                                           overflows):
        g = _graph((0.0, 0.5, 0.0), [(0, 1, edge_w), (1, 2, -2.0)])
        params = QaoaParams(gamma=(0.2, gamma), beta=(0.3, beta))
        if not overflows:
            assert "inf" not in emit(compile_graph(g, params))
            return
        message = r"^layer 2: an angle 2\*gamma\*w or 2\*beta overflows$"
        with pytest.raises(ValueError, match=message):
            compile_graph(g, params)
        with pytest.raises(ValueError, match=message):
            schedule(g, (0, 1, 2), params)

    @pytest.mark.parametrize("flags", [
        ["--gamma", "1e308", "--beta", "1e308"], ["--gamma", "0.3", "--beta", "1e308"],
    ], ids=["gamma", "beta"])
    def test_cli_compile_exits_one_and_writes_nothing(self, tmp_path, capsys, flags):
        graph = _write(tmp_path / "g.json", (0.0, 0.5, 0.0), [(0, 1, 1.0), (1, 2, -2.0)])
        out = tmp_path / "huge.qasm"
        assert main(["compile", "--graph", graph, *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: layer 1: an angle 2*gamma*w or 2*beta overflows\n")
        assert not out.exists()


@pytest.mark.parametrize("edges, location", [
    ([(0, 1, 1e308)], "edges[0].w"),
    ([(u, v, 1e308) for u, v in TRIANGLE], "edges[0].w"),
], ids=["edge", "triangle"])
def test_cli_solve_names_the_weight_past_the_limit(tmp_path, capsys, edges, location):
    graph = _write(tmp_path / "g.json", (0.0, 0.0, 0.0), edges)
    assert main(["solve", "--graph", graph, "--grid-size", "4"]) == 1
    err = capsys.readouterr().err
    assert f"{location}: weights sum past the limit of 1e+300" in err
    assert err.count("\n") == 1


def test_cli_solve_runs_at_one_edge_of_1e300(tmp_path, capsys):
    graph = _write(tmp_path / "g.json", (0.0, 0.0), [(0, 1, 1e300)])
    assert main(["solve", "--graph", graph, "--grid-size", "4"]) == 0
    energy = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("E_p"))
    assert -1e300 <= float(energy.split("=")[1]) < -9e299
