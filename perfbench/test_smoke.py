"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root (it is outside the default ``tests/`` path):

    python3 -m pytest -q perfbench/test_smoke.py

It checks BENCHMARK.json against the benchmark contract, runs every workload
for a couple of seconds, checks the result line, the metric names and units
and that the result digest repeats at a fixed seed, and checks that the
runner fails without printing a result when the sources are missing.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, root=ROOT, out=None, seed=3):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--size", "tiny"]
    if out is not None:
        cmd += ["--out", str(out)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(proc) -> str:
    return next(line.split()[1] for line in proc.stdout.splitlines() if line.startswith("digest "))


def test_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][0] == "python3" and len(SPEC["command"]) <= 32
    for path in SPEC["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path) and ".." not in path
        assert (ROOT / path).is_dir()
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct_and_repeatable(workload, tmp_path):
    first, second = run(workload, 0, out=tmp_path), run(workload, 0, out=tmp_path)
    res = result_line(first)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert {name: m["unit"] for name, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert digest(first) == digest(second)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload, tmp_path):
    proc = run(workload, 1, out=tmp_path)
    res = result_line(proc)
    assert res["correct"] is True
    assert {name: m["unit"] for name, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert list(tmp_path.glob(f"{workload}-*-spans.json"))


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
