"""Compiler benchmark harness: metrics over size, edge density and depth.

For each cell (n, d, p) the harness compiles ``reps`` random graphs with
``floor(d * C(n,2))`` unit-weight edges (zero node weights; only the angles
would change otherwise) and records compile wall time, pre-decomposition
scheduled depth, post-optimization dependency depth and CNOT count.

``depth_pre`` counts retained cost-block template cycles, so a complete
graph reports exactly the template law 2n-2 / 2n-1.  Structural metrics are
reproducible for a fixed seed; wall time naturally is not.
"""

from __future__ import annotations

import csv
import itertools
import time
from dataclasses import dataclass

import numpy as np

from .circuits import QaoaParams
from .compiler import compile_graph
from .graph import WeightGraph

CSV_COLUMNS = ("n", "d", "p", "rep", "compile_ms", "depth_pre", "depth_post", "cnot_count")


@dataclass(frozen=True)
class BenchRow:
    """One compile of one cell, or with ``rep="mean"`` the cell's mean."""

    n: int
    d: float
    p: int
    rep: int | str
    compile_ms: float
    depth_pre: float
    depth_post: float
    cnot_count: float


def random_weight_graph(n: int, density: float, seed) -> WeightGraph:
    """Uniform random graph: floor(d*C(n,2)) edges without replacement,
    unit edge weights, zero node weights.  May be disconnected."""
    if not 0 <= density <= 1:
        raise ValueError(f"density must be in [0, 1], got {density}")
    pairs = list(itertools.combinations(range(n), 2))
    m = int(density * len(pairs))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pairs), size=m, replace=False) if m else []
    edges = [(*pairs[i], 1.0) for i in sorted(int(i) for i in chosen)]
    return WeightGraph(nodes=[(i, 0.0) for i in range(n)], edges=edges)


def run_cell(n: int, d: float, p: int, rep: int, seed) -> BenchRow:
    g = random_weight_graph(n, d, [seed, n, int(round(d * 1000)), p, rep])
    params = QaoaParams(gamma=(0.5,) * p, beta=(0.3,) * p)
    t0 = time.perf_counter()
    pc = compile_graph(g, params)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    return BenchRow(
        n=n,
        d=d,
        p=p,
        rep=rep,
        compile_ms=elapsed_ms,
        depth_pre=pc.scheduled_cost_cycles,
        depth_post=pc.depth,
        cnot_count=pc.cnot_count,
    )


def run_bench(sizes, densities, p_list, reps: int = 20, seed: int = 0) -> list[BenchRow]:
    if reps < 1:
        raise ValueError("reps must be at least 1")
    rows = []
    for n in sizes:
        for d in densities:
            for p in p_list:
                for rep in range(reps):
                    rows.append(run_cell(n, d, p, rep, seed))
    return rows


def cell_means(rows) -> list[BenchRow]:
    """One mean row per (n, d, p), its rep set to "mean"."""
    cells: dict[tuple, list[BenchRow]] = {}
    for r in rows:
        cells.setdefault((r.n, r.d, r.p), []).append(r)
    means = []
    for (n, d, p), group in sorted(cells.items()):
        totals = [sum(getattr(r, f) for r in group) for f in CSV_COLUMNS[4:]]
        means.append(BenchRow(n, d, p, "mean", *(t / len(group) for t in totals)))
    return means


def write_csv(rows, path):
    """Data rows in (n, d, p, rep) order, per-cell mean rows appended."""
    ordered = sorted(rows, key=lambda r: (r.n, r.d, r.p, r.rep))
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(
            [r.n, r.d, r.p, r.rep, f"{r.compile_ms:.3f}", r.depth_pre, r.depth_post, r.cnot_count]
            for r in ordered + cell_means(ordered)
        )
