"""The benchmark's three workloads: seeded inputs, timed passes and checks.

Every input (problem instances, graphs, angles, the perturbed calibration,
sampler seeds and the arrival schedule) is generated here; quchain only ever
receives the generated values through its public API.  The run seed drives
the sampler seeds, angles, edge weights, which nodes carry fields and their
values, the re-calibration and the arrival order.  Problem structures (which
edges exist) are drawn once from :data:`INSTANCE_SEED` instead: a fresh draw
per seed moved ``solve``'s ``batch_s`` by about 20% and ``cnot_total`` by
about 15%, and the median per-graph compile time by about 20%, which would
hide any change a later version makes.

A pass runs the workload's fixed job list once.  ``solve`` and ``compile``
are closed loops with one client and repeat whole passes until the time
budget is spent; ``service`` is an open loop whose single pass is the
arrival schedule.

Every recorded latency and read time is in reference seconds (see
``speed.py``): its wall time scaled by the host-speed gauge sampled around
it.  Closed loops sample the gauge between jobs; the service samples it when
no task runs and the next arrival is not yet due.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx
import numpy as np

import oracles
from speed import NOMINAL_S, Gauge
from quchain import (
    LocalSampler,
    QaoaParams,
    QuboMatrix,
    TaskService,
    build_qaoa_circuit,
    build_subchain_library,
    compile_graph,
    decompose,
    decompose_gates,
    emit,
    load_calibration,
    loads_calibration,
    optimize,
    optimize_circuit,
    parse,
    process_results,
    qubo_from_graph_coloring,
    qubo_from_maxcut,
    qubo_from_number_partition,
    refresh,
    schedule,
    search_initial_mapping,
    select_subchain,
    simulate,
    weight_graph_from_qubo,
)
from quchain.errors import QuchainError

DATA = Path(__file__).resolve().parent.parent / "src" / "quchain" / "data"

SHOTS = 1000
#: Each solve result is read back this many times, with gauge samples
#: between the reads, and the median kept: a read of these small stores takes about a
#: millisecond, too short for one sample to be steady.
READ_REPEATS = 5
#: Seed of the fixed problem structures (see the module docstring).
INSTANCE_SEED = 20230517
#: compile_graph's default beam width; the stage-by-stage probe must match it.
B_MAX = 5
#: Jobs of the service schedule that enter the result digest, so the digest
#: does not depend on how many arrivals fit into the run.
DIGEST_JOBS = 20
#: Exceptions a job may raise; they count as a failed operation.
JOB_ERRORS = (QuchainError, ValueError, KeyError, RuntimeError)

# The README's six-node max-cut demo graph.
DEMO6 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 4), (1, 3)]

SIZES = {
    # ``grid_size`` is the p=1 grid of ``optimize`` (the CLI default is 64).
    "full": {
        "solve_jobs": ("demo6_p1", "demo6_p2", "coloring_p1", "partition_p1", "reg3_p1"),
        "grid_size": 8,
        "compile_cells": list(itertools.product((30, 60, 100), (0.2, 0.6, 1.0), (1, 2))),
        # 60% of arrivals are 12-qubit p=1 jobs, so the latency median falls
        # inside one size class, and the top 20% are 14-qubit p=2 jobs, so the
        # 95th percentile does too.
        "pool": [(12, 1)] * 24 + [(10, 1)] * 8 + [(14, 2)] * 8,
        "rate": 5.0,
    },
    "tiny": {
        "solve_jobs": ("demo6_p1", "coloring_p1"),
        "grid_size": 4,
        "compile_cells": [(8, 0.5, 1), (12, 1.0, 2)],
        "pool": [(6, 1), (7, 2), (8, 1)],
        "rate": 20.0,
    },
}


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


@dataclass
class PassResult:
    """What one pass measured, counted and checked."""

    batch_s: float = 0.0  # open loop: first arrival due to last completion
    extra_s: float = 0.0  # closed loop: per-pass work outside the jobs
    latencies: list[tuple[str, float]] = field(default_factory=list)
    reads: list[tuple[str, float]] = field(default_factory=list)
    cnot: int = 0
    depth: int = 0
    attempted: int = 0
    failed: int = 0
    optimal: int = 0
    errors: list[str] = field(default_factory=list)
    counters: collections.Counter = field(default_factory=collections.Counter)
    fidelities: list[float] = field(default_factory=list)
    gen_lags: list[float] = field(default_factory=list)
    hasher: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    factors: list[float] = field(default_factory=list)  # wall -> reference seconds
    # (list name, job, wall seconds, start, end): converted by to_reference
    timed: list[tuple[str, str, float, float, float]] = field(default_factory=list)

    def digest(self, *parts) -> None:
        for part in parts:
            self.hasher.update(str(part).encode())
            self.hasher.update(b"\0")

    def time(self, kind: str, job: str, start: float, end: float, seconds=None) -> None:
        """Record a wall-clock interval of ``kind`` (latencies, reads, extra)."""
        self.timed.append((kind, job, end - start if seconds is None else seconds, start, end))

    def to_reference(self, gauge: Gauge) -> None:
        """Fill latencies, reads and extra_s in reference seconds, once the
        gauge has samples after the last interval (called once per pass)."""
        for kind, job, seconds, start, end in self.timed:
            f = gauge.factor(start, end)
            if kind == "extra":
                self.extra_s += seconds * f
            else:
                getattr(self, kind).append((job, seconds * f))
                self.factors.append(f)

    def fail(self, where: str, exc: Exception) -> None:
        self.failed += 1
        self.errors.append(f"{where}: {type(exc).__name__}: {exc}")


class TracedSampler:
    """The package's LocalSampler with a span around each ``run``; the
    backend argument of TaskService is public API, so nothing is patched."""

    def __init__(self, tracer, job_of_seed: dict):
        self.tracer = tracer
        self.job_of_seed = job_of_seed
        self.sampler = LocalSampler()

    def run(self, qasm_text, shots, seed=None):
        with self.tracer.span("tasks.backend_run", self.job_of_seed.get(seed, "")):
            return self.sampler.run(qasm_text, shots, seed)


def stage_probe(tracer, res: PassResult, g, params, chain, pc, job) -> None:
    """Run compile_graph's stages one by one and check the result is equal."""
    with tracer.span("probe.compile", job):
        with tracer.span("compiler.search", job):
            mapping, _ = search_initial_mapping(g, g.n, B_MAX)
        with tracer.span("compiler.schedule", job):
            sched = schedule(g, mapping, params, n_positions=g.n)
        with tracer.span("compiler.decompose", job):
            raw = decompose_gates(sched)
        with tracer.span("compiler.peephole", job):
            opt = optimize_circuit(raw)
    staged = [
        [(gt.kind, tuple(chain[q] for q in gt.qubits), gt.angle) for gt in cyc]
        for cyc in opt.cycles
    ]
    direct = [[(gt.kind, gt.qubits, gt.angle) for gt in cyc] for cyc in pc.cycles]
    layout = tuple(chain[p] for p in opt.final_layout)
    if staged != direct or layout != pc.final_layout:
        res.errors.append(f"{job}: stage-by-stage compile differs from compile_graph")
    res.counters["cnot_pre"] += raw.cnot_count
    res.counters["cnot_post"] += opt.cnot_count


class Workload:
    """Shared lifecycle: ``setup`` (repeatable), ``run`` for a time budget,
    ``restart`` before a traced phase, ``close``."""

    name = ""
    closed_loop = True

    def __init__(self, seed: int, size: str, workdir: str, gauge: Gauge):
        self.seed = seed
        self.gauge = gauge
        self.cfg = SIZES[size]
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.service = None
        self.backend = None
        self.store_path = ""
        self._stores = itertools.count()
        self.setup_parts: dict[str, float] = {}

    def _timed(self, part: str, fn, *args):
        t = time.perf_counter()
        out = fn(*args)
        self.setup_parts[part] = self.setup_parts.get(part, 0.0) + time.perf_counter() - t
        return out

    def _start_service(self) -> None:
        """A fresh store directory per service, removed with the run's workdir."""
        store_dir = os.path.join(self.workdir, f"store{next(self._stores)}")
        os.makedirs(store_dir)
        self.store_path = os.path.join(store_dir, "tasks.jsonl")
        self.service = TaskService(self.store_path, backend=self.backend)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Oracle inputs computed once after set-up, outside every timing."""

    def restart(self, tracer) -> None:
        """Fresh service (traced backend) so the traced phase starts like the
        untraced one."""
        if self.service is not None:
            self.service.close()
            self.backend = TracedSampler(tracer, self.job_of_seed)
            self._start_service()

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def run_pass(self, tracer) -> PassResult:
        raise NotImplementedError

    def run(self, tracer, budget_s: float) -> list[PassResult]:
        """Whole passes until the next one would overrun the budget (at least
        one), with gauge samples between the jobs."""
        passes: list[PassResult] = []
        self.gauge.sample(4)
        t0 = time.perf_counter()
        while True:
            passes.append(self.run_pass(tracer))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(passes) > budget_s:
                break
        for res in passes:
            res.to_reference(self.gauge)
        return passes

    def _read(self, tracer, res: PassResult, task_id, g, sense, job):
        """The CLI's read path: reopen the store read-only, status, result, rank."""
        t = time.perf_counter()
        with tracer.span("tasks.reopen", job):
            reader = TaskService(self.store_path, read_only=True)
        with tracer.span("tasks.status", job):
            status = reader.status(task_id)
        with tracer.span("tasks.result", job):
            counts = reader.result(task_id)
        with tracer.span("tasks.rank", job):
            ranked = process_results(counts, g, top=2, sense=sense)
        res.time("reads", job, t, time.perf_counter())
        if status != "completed":
            res.errors.append(f"{job}: status {status!r} after completion")
        return counts, ranked


# --------------------------------------------------------------------- solve


@dataclass
class SolveJob:
    name: str
    p: int
    build: object  # () -> QuboMatrix, called inside the timed job
    sampler_seed: int


class Solve(Workload):
    """README sequence per job: problem builder -> weight graph -> optimize ->
    select_subchain on chain18 -> compile_graph -> emit -> submit(wait) ->
    reopen/status/result/process_results."""

    name = "solve"

    def __init__(self, seed, size, workdir, gauge):
        super().__init__(seed, size, workdir, gauge)
        rng = np.random.default_rng(INSTANCE_SEED)
        center = rng.permutation(3)
        coloring = nx.Graph()
        coloring.add_nodes_from(range(3))
        coloring.add_edges_from([(center[0], center[1]), (center[1], center[2])])
        numbers = [int(x) for x in rng.integers(1, 32, size=5)]
        reg3 = nx.random_regular_graph(3, 16, seed=int(rng.integers(2**31)))
        reg3_graph = nx.Graph()
        reg3_graph.add_nodes_from(range(16))
        reg3_graph.add_edges_from(reg3.edges())
        builders = {
            "demo6_p1": (1, lambda: qubo_from_maxcut(DEMO6)),
            "demo6_p2": (2, lambda: qubo_from_maxcut(DEMO6)),
            "coloring_p1": (1, lambda: qubo_from_graph_coloring(coloring, 2)),
            "partition_p1": (1, lambda: qubo_from_number_partition(numbers)),
            "reg3_p1": (1, lambda: qubo_from_maxcut(reg3_graph)),
        }
        base = int(self.rng.integers(2**30))
        self.jobs = [
            SolveJob(name, builders[name][0], builders[name][1], base + j)
            for j, name in enumerate(self.cfg["solve_jobs"])
        ]
        self.job_of_seed = {job.sampler_seed: job.name for job in self.jobs}
        self.chip_path = DATA / "chain18.json"
        self.spectra: dict[str, np.ndarray] = {}

    def setup(self):
        chip = self._timed("hardware.load", load_calibration, self.chip_path)
        self.lib = self._timed("hardware.library", build_subchain_library, chip)
        self._timed("tasks.start", self._start_service)

    def prepare_checks(self):
        self.f2q = oracles.f2q_from_json(self.chip_path.read_text(encoding="utf-8"))

    def run_pass(self, tracer):
        # A fresh store per pass, so every pass reads stores of the same size.
        self.close()
        self._start_service()
        res = PassResult()
        for job in self.jobs:
            res.attempted += 1
            try:
                self._job(tracer, res, job)
            except JOB_ERRORS as exc:
                res.fail(job.name, exc)
        return res

    def _job(self, tracer, res: PassResult, job: SolveJob):
        name = job.name
        with tracer.span("bench.job", name):
            t0 = time.perf_counter()
            with tracer.span("problems.build", name):
                qubo = job.build()
                g = weight_graph_from_qubo(qubo)
            with tracer.span("engine.optimize", name):
                opt = optimize(
                    g, p=job.p, method="grid+simplex", seed=self.seed,
                    grid_size=self.cfg["grid_size"],
                )
            with tracer.span("hardware.select", name):
                chain = select_subchain(self.lib, max(2, g.n))[: g.n]
            with tracer.span("compiler.compile_graph", name):
                pc = compile_graph(g, opt.params, chain=chain)
            with tracer.span("qasm.emit", name):
                text = emit(pc)
            with tracer.span("tasks.submit", name):
                rec = self.service.submit(
                    text, shots=SHOTS, name=name, wait=True, seed=job.sampler_seed
                )
            res.time("latencies", name, t0, time.perf_counter())
        for _ in range(READ_REPEATS):
            self.gauge.sample()
            with tracer.span("bench.read", name):
                counts, ranked = self._read(tracer, res, rec.id, g, qubo.sense, name)
        self.gauge.sample()

        # Checks and probes, outside the timed job.
        if rec.status != "completed":
            res.errors.append(f"{name}: task {rec.status}: {rec.error}")
            return
        spec = self.spectra.get(name)
        if spec is None:
            spec = self.spectra[name] = oracles.spectrum(g.n, g.edges, g.nodes)
        with tracer.span("probe.state", name):
            with tracer.span("simulator.qaoa_state", name):
                state = simulate(build_qaoa_circuit(g, opt.params))
        res.errors += oracles.check_expectation(opt.energy, state, spec, name)
        res.errors += oracles.check_ranked(
            ranked, counts, SHOTS, spec, qubo.q, qubo.offset, qubo.sense, name
        )
        res.errors += oracles.check_couplers(pc, self.f2q, name)
        res.errors += oracles.check_round_trip(pc, parse(text), name)
        if counts != rec.counts:
            res.errors.append(f"{name}: reopened result differs from the writer's record")
        res.optimal += oracles.best_sampled_is_optimal(counts, spec)
        res.cnot += pc.cnot_count
        res.depth += pc.depth
        res.counters["evals"] += opt.evaluations
        res.counters["qasm_bytes"] += len(text.encode())
        res.fidelities.append(oracles.chain_fidelity(self.f2q, chain))
        res.digest(name, text, sorted(counts.items()),
                   [(r.bitstring, r.count, repr(r.energy)) for r in ranked.solutions])
        if tracer.enabled:
            with tracer.span("probe.decompose", name):
                with tracer.span("engine.decompose", name):
                    subs = decompose(g, job.p)
            res.counters["cone_states"] += sum(1 << s.subgraph.n for s in subs)
            stage_probe(tracer, res, g, opt.params, chain, pc, name)


# ------------------------------------------------------------------- compile


@dataclass
class CompileJob:
    name: str
    n: int
    p: int
    q: np.ndarray  # raw QUBO matrix
    edges: list  # expected weight-graph edges (u, v, w)
    fields: list  # expected node weights
    params: QaoaParams


def _dyadic(rng, lo: int, hi: int, size) -> np.ndarray:
    """Multiples of 1/8, so every sum the model conversion forms is exact."""
    return rng.integers(lo, hi + 1, size=size) / 8.0


class Compile(Workload):
    """Per graph: QUBO -> weight graph -> select_subchain on the grid136
    library -> compile_graph(chain=...) -> emit; the read is ``parse`` of the
    emitted text.  Each pass also calls ``refresh`` against a seeded
    re-calibration.

    Chains are selected from the library built from the shipped calibration:
    the beam search behind ``refresh`` finds no 100-qubit chain on most
    perturbed calibrations (measured: 4 of 5 seeds), so selecting from the
    refreshed library would fail every n=100 job.  The longest chain the
    refreshed library holds is reported as ``hardware.refresh_max_len``.
    """

    name = "compile"

    def __init__(self, seed, size, workdir, gauge):
        super().__init__(seed, size, workdir, gauge)
        structure = np.random.default_rng(INSTANCE_SEED)
        self.jobs = [
            self._make_job(structure, self.rng, n, d, p) for n, d, p in self.cfg["compile_cells"]
        ]
        self.base_text = (DATA / "grid136.json").read_text(encoding="utf-8")
        doc = json.loads(self.base_text)
        for c in doc["couplers"]:
            c["f2q"] = round(min(1.0, max(0.5, c["f2q"] + self.rng.normal(0.0, 0.003))), 6)
        self.recal_text = json.dumps(doc)

    @staticmethod
    def _make_job(structure, rng, n, d, p) -> CompileJob:
        pairs = list(itertools.combinations(range(n), 2))
        m = int(d * len(pairs))
        chosen = sorted(int(i) for i in structure.choice(len(pairs), size=m, replace=False))
        weights = _dyadic(rng, 4, 12, m)
        fields = np.zeros(n)
        with_field = rng.choice(n, size=n // 2, replace=False)
        signs = rng.choice((-1.0, 1.0), size=len(with_field))
        fields[with_field] = signs * _dyadic(rng, 1, 8, len(with_field))
        # Ising J_uv = q_uv/2 and h_i = q_ii/2 + sum_j q_ij/2 for symmetric q.
        q = np.zeros((n, n))
        edges = []
        for k, w in zip(chosen, weights):
            u, v = pairs[k]
            q[u, v] = q[v, u] = 2.0 * w
            edges.append((u, v, float(w)))
        for i in range(n):
            q[i, i] = 2.0 * (fields[i] - q[i].sum() / 2.0)
        params = QaoaParams(
            gamma=tuple(rng.uniform(0.0, np.pi, size=p)),
            beta=tuple(rng.uniform(0.0, np.pi / 2.0, size=p)),
        )
        return CompileJob(f"n{n}_d{d}_p{p}", n, p, q, edges, list(fields), params)

    def setup(self):
        chip = self._timed("hardware.load", load_calibration, DATA / "grid136.json")
        self.recal = self._timed("hardware.load", loads_calibration, self.recal_text)
        self.lib = self._timed("hardware.library", build_subchain_library, chip)

    def prepare_checks(self):
        self.f2q = oracles.f2q_from_json(self.base_text)

    def run_pass(self, tracer):
        res = PassResult()
        t = time.perf_counter()
        with tracer.span("bench.refresh"):
            with tracer.span("hardware.refresh"):
                fresh = refresh(self.lib, self.recal)
        res.time("extra", "refresh", t, time.perf_counter())
        self.gauge.sample()
        res.counters["refresh_max_len"] = max(
            (k for k, paths in fresh.entries.items() if paths), default=0
        )
        for job in self.jobs:
            res.attempted += 1
            try:
                self._job(tracer, res, self.lib, job)
            except JOB_ERRORS as exc:
                res.fail(job.name, exc)
        return res

    def _job(self, tracer, res: PassResult, lib, job: CompileJob):
        name = job.name
        with tracer.span("bench.job", name):
            t0 = time.perf_counter()
            with tracer.span("problems.build", name):
                g = weight_graph_from_qubo(QuboMatrix(q=job.q, sense="max"))
            with tracer.span("hardware.select", name):
                chain = select_subchain(lib, job.n)[: job.n]
            with tracer.span("compiler.compile_graph", name):
                pc = compile_graph(g, job.params, chain=chain)
            with tracer.span("qasm.emit", name):
                text = emit(pc)
            res.time("latencies", name, t0, time.perf_counter())
        # Gauge samples on both sides of the read; the one before it also
        # closes the compile's interval.
        self.gauge.sample()
        with tracer.span("bench.read", name):
            t1 = time.perf_counter()
            with tracer.span("qasm.parse", name):
                back = parse(text)
            res.time("reads", name, t1, time.perf_counter())
        self.gauge.sample()

        if g.edges != job.edges or [w for _, w in g.nodes] != job.fields:
            res.errors.append(f"{name}: weight graph differs from the generated instance")
        res.errors += oracles.check_couplers(pc, self.f2q, name)
        res.errors += oracles.check_round_trip(pc, back, name)
        res.cnot += pc.cnot_count
        res.depth += pc.depth
        res.counters["qasm_bytes"] += len(text.encode())
        res.fidelities.append(oracles.chain_fidelity(self.f2q, chain))
        res.digest(name, text)
        if tracer.enabled:
            stage_probe(tracer, res, g, job.params, chain, pc, name)


# ------------------------------------------------------------------- service


@dataclass
class PoolEntry:
    name: str
    qasm: str
    graph: object
    qubo: QuboMatrix
    circuit: object


class Service(Workload):
    """Open loop: one generator thread submits 1,000-shot jobs from a
    precompiled pool at a fixed rate and, between arrivals, reads completed
    tasks back the CLI's way."""

    name = "service"
    closed_loop = False
    POLL_S = 0.002
    #: The generator samples the gauge at most this often, and only while no
    #: task runs and the next arrival is not due for a while.
    GAUGE_EVERY_S = 0.05

    def __init__(self, seed, size, workdir, gauge):
        super().__init__(seed, size, workdir, gauge)
        rng = self.rng
        structure = np.random.default_rng(INSTANCE_SEED)
        self.instances = []
        for i, (n, p) in enumerate(self.cfg["pool"]):
            pairs = list(itertools.combinations(range(n), 2))
            chosen = structure.choice(len(pairs), size=int(1.5 * n), replace=False)
            graph = nx.Graph()
            graph.add_nodes_from(range(n))
            graph.add_edges_from(pairs[int(k)] for k in chosen)
            params = QaoaParams(
                gamma=tuple(rng.uniform(0.0, np.pi, size=p)),
                beta=tuple(rng.uniform(0.0, np.pi / 2.0, size=p)),
            )
            self.instances.append((f"pool{i:02d}_n{n}_p{p}", graph, params))
        self.rate = self.cfg["rate"]
        self.order = rng.permutation(len(self.instances))
        self.seed_base = int(rng.integers(2**30))
        self.job_of_seed = {}
        self.chip_path = DATA / "chain18.json"

    def setup(self):
        chip = self._timed("hardware.load", load_calibration, self.chip_path)
        lib = self._timed("hardware.library", build_subchain_library, chip)
        self.pool = self._timed("pool", self._compile_pool, lib)
        self._timed("tasks.start", self._start_service)

    def _compile_pool(self, lib) -> list[PoolEntry]:
        pool = []
        for name, graph, params in self.instances:
            qubo = qubo_from_maxcut(graph)
            g = weight_graph_from_qubo(qubo)
            chain = select_subchain(lib, g.n)[: g.n]
            pc = compile_graph(g, params, chain=chain)
            pool.append(PoolEntry(name, emit(pc), g, qubo, pc))
        return pool

    def prepare_checks(self):
        couplers = oracles.f2q_from_json(self.chip_path.read_text(encoding="utf-8"))
        self.pool_errors = []
        for entry in self.pool:
            self.pool_errors += oracles.check_couplers(entry.circuit, couplers, entry.name)
            self.pool_errors += oracles.check_round_trip(entry.circuit, parse(entry.qasm), entry.name)
        self.spectra = [oracles.spectrum(e.graph.n, e.graph.edges, e.graph.nodes) for e in self.pool]

    def run(self, tracer, budget_s):
        """One pass: the arrival schedule that fills ``budget_s``."""
        res = PassResult()
        res.errors += self.pool_errors
        for entry in self.pool:
            res.cnot += entry.circuit.cnot_count
            res.depth += entry.circuit.depth
            res.digest(entry.name, entry.qasm)
        n_jobs = max(1, round(self.rate * budget_s))
        schedule_ = [int(self.order[i % len(self.order)]) for i in range(n_jobs)]
        self.job_of_seed.clear()
        self.job_of_seed.update({self.seed_base + i: f"job{i}" for i in range(n_jobs)})
        wall_offset = time.time() - time.perf_counter()
        gauge = self.gauge
        gauge.sample()
        t0 = time.perf_counter()
        deadline = t0 + budget_s + max(60.0, budget_s)
        inflight: dict[str, int] = {}
        ready: collections.deque = collections.deque()
        completed_at: dict[int, float] = {}
        digest_rows: dict[int, tuple] = {}
        submitted = 0
        read_estimate = 0.0
        while submitted < n_jobs or inflight or ready:
            now = time.perf_counter()
            if now > deadline:
                res.errors.append(f"{len(inflight) + n_jobs - submitted} jobs unfinished at the deadline")
                res.failed += len(inflight) + n_jobs - submitted
                res.attempted += n_jobs - submitted
                break
            due = t0 + submitted / self.rate
            if submitted < n_jobs and now >= due:
                i = submitted
                entry = self.pool[schedule_[i]]
                res.gen_lags.append(now - due)
                res.attempted += 1
                try:
                    with tracer.span("bench.submit", f"job{i}"):
                        with tracer.span("tasks.submit", f"job{i}"):
                            task_id = self.service.submit(
                                entry.qasm, shots=SHOTS, name=f"job{i}", seed=self.seed_base + i
                            )
                    inflight[task_id] = i
                except JOB_ERRORS as exc:
                    res.fail(f"job{i}", exc)
                submitted += 1
                continue
            for task_id, i in list(inflight.items()):
                rec = self.service.record(task_id)
                if rec.status in ("completed", "failed"):
                    del inflight[task_id]
                    due_wall = wall_offset + t0 + i / self.rate
                    res.time("latencies", f"job{i}", t0 + i / self.rate,
                             rec.updated_at - wall_offset, rec.updated_at - due_wall)
                    completed_at[i] = rec.updated_at
                    if rec.status == "failed":
                        res.failed += 1
                        res.errors.append(f"job{i}: task failed: {rec.error}")
                    else:
                        ready.append((task_id, i, rec.counts))
            # A read starts only while no task runs and if it should end before
            # the next arrival is due: reads then neither make the generator
            # late nor share the interpreter with a running task, which made
            # both latencies swing with the arrival order.
            fits = submitted >= n_jobs or time.perf_counter() + read_estimate < due
            if ready and not inflight and fits:
                task_id, i, written = ready.popleft()
                k = schedule_[i]
                entry = self.pool[k]
                try:
                    with tracer.span("bench.read", f"job{i}"):
                        counts, ranked = self._read(
                            tracer, res, task_id, entry.graph, entry.qubo.sense, f"job{i}"
                        )
                except JOB_ERRORS as exc:
                    res.fail(f"job{i}", exc)
                    continue
                read_estimate = 1.25 * res.timed[-1][2]
                res.errors += oracles.check_ranked(
                    ranked, counts, SHOTS, self.spectra[k], entry.qubo.q,
                    entry.qubo.offset, entry.qubo.sense, f"job{i}",
                )
                if counts != written:
                    res.errors.append(f"job{i}: reopened result differs from the writer's record")
                res.optimal += oracles.best_sampled_is_optimal(counts, self.spectra[k])
                if i < DIGEST_JOBS:
                    digest_rows[i] = (
                        sorted(counts.items()),
                        [(r.bitstring, r.count, repr(r.energy)) for r in ranked.solutions],
                    )
                continue
            now = time.perf_counter()
            if (not inflight and not ready and submitted < n_jobs
                    and now - gauge.samples[-1][0] > self.GAUGE_EVERY_S
                    and due - now > 3.0 * NOMINAL_S):
                gauge.sample()
                continue
            wait = due - time.perf_counter() if submitted < n_jobs else self.POLL_S
            if inflight or ready:
                wait = min(wait, self.POLL_S)
            if wait > 0:
                time.sleep(wait)
        gauge.sample()
        res.to_reference(gauge)
        if completed_at:
            res.batch_s = max(completed_at.values()) - (wall_offset + t0)
        for i in sorted(digest_rows):
            res.digest(f"job{i}", *digest_rows[i])
        res.counters["qasm_bytes"] += sum(len(self.pool[k].qasm.encode()) for k in schedule_)
        if tracer.enabled:
            with tracer.span("probe.parse"):
                for k in schedule_:
                    with tracer.span("qasm.parse"):
                        parse(self.pool[k].qasm)
        return [res]


WORKLOADS = {"solve": Solve, "compile": Compile, "service": Service}
