"""Benchmark child process: set up one workload, measure it, check it, report.

Started by ``run.py`` in a fresh process with BLAS/OpenMP threads pinned to
one.  Prints a human-readable report and, as the last line of stdout, the
result object (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The full report, and the spans of a traced run, are written
under ``perfbench/out/``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import networkx
import numpy as np
import scipy

import quchain
from speed import Gauge
from tracing import Tracer
from workloads import SIZES, WORKLOADS, pct


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up, and the imports in a fresh interpreter, run this many times per
#: process; ``setup_s`` adds the two medians.
SETUP_REPEATS = 3
IMPORTS = "import networkx, numpy, scipy, quchain"
#: Gauge samples before and after each timed set-up step.
GAUGE_BURST = 4
#: Layers the benchmark calls directly; the simulator is reached only through
#: engine and tasks, so its time is charged to them.
LAYERS = ("problems", "engine", "compiler", "hardware", "qasm", "tasks", "bench")


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "quchain": quchain.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def import_seconds(gauge: Gauge) -> float:
    """Time of the imports a quchain process starts with, in a fresh
    interpreter (the benchmark's own process imported them already)."""
    code = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    gauge.sample(GAUGE_BURST)
    t = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    end = time.perf_counter()
    gauge.sample(GAUGE_BURST)
    return float(out.stdout) * gauge.factor(t, end)


def per_job_medians(passes, attr: str) -> dict[str, float]:
    samples: dict[str, list[float]] = {}
    for p in passes:
        for job, x in getattr(p, attr):
            samples.setdefault(job, []).append(x)
    return {job: statistics.median(v) for job, v in samples.items()}


def end_to_end(w, passes, setup_s: float) -> dict:
    """Closed loops: each job's time is its median over the passes, and the
    percentiles run over the job list.  Open loop: over every arrival."""
    if w.closed_loop:
        lat = list(per_job_medians(passes, "latencies").values())
        reads = list(per_job_medians(passes, "reads").values())
        batch = sum(lat) + sum(reads) + statistics.median(p.extra_s for p in passes)
    else:
        lat = [x for p in passes for _, x in p.latencies]
        reads = [x for p in passes for _, x in p.reads]
        batch = statistics.median(p.batch_s for p in passes)
    return {
        "setup_s": setup_s,
        "batch_s": batch,
        "latency_p50_s": pct(lat, 50),
        "latency_p95_s": pct(lat, 95),
        "read_p50_s": pct(reads, 50),
        "read_p95_s": pct(reads, 95),
        "cnot_total": passes[0].cnot,
        "depth_total": passes[0].depth,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def store_lifecycle(path: str) -> tuple[list[float], list[float]]:
    """Queue wait and run time per task from the store's own timestamps."""
    stamps: dict[str, dict[str, float]] = {}
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                rec = json.loads(line)
                row = stamps.setdefault(rec["id"], {})
                row["queued"] = rec["created_at"]
                row[rec["status"]] = rec["updated_at"]
    except FileNotFoundError:
        return [], []
    waits = [r["running"] - r["queued"] for r in stamps.values() if "running" in r]
    runs = [r["completed"] - r["running"] for r in stamps.values() if "completed" in r]
    return waits, runs


def per_layer(w, tracer, traced, untraced, setup_parts) -> dict:
    """Per-layer numbers of the traced phase, per pass of the job list."""
    n = len(traced)

    def count(key):
        return sum(p.counters[key] for p in traced) / n

    def total(name, job=None):
        return tracer.total(name, job) / n

    m = {}
    m["engine.optimize_s"] = total("engine.optimize")
    for job in SIZES["full"]["solve_jobs"]:
        m[f"engine.optimize_s.{job}"] = total("engine.optimize", job)
    m["engine.evals"] = count("evals")
    m["engine.eval_us"] = 1e6 * m["engine.optimize_s"] / m["engine.evals"] if m["engine.evals"] else 0.0
    m["engine.decompose_s"] = total("engine.decompose")
    m["engine.cone_states"] = count("cone_states")
    m["solve_optimal"] = sum(p.optimal for p in traced) / n if w.name == "solve" else 0.0
    m["simulator.qaoa_state_s"] = total("simulator.qaoa_state")
    m["problems.build_s"] = total("problems.build")
    m["hardware.load_s"] = setup_parts.get("hardware.load", 0.0)
    m["hardware.library_s"] = setup_parts.get("hardware.library", 0.0)
    m["hardware.refresh_s"] = total("hardware.refresh")
    m["hardware.refresh_max_len"] = count("refresh_max_len")
    m["hardware.select_s"] = total("hardware.select")
    fid = [f for p in traced for f in p.fidelities]
    m["hardware.chain_fidelity"] = float(np.mean(fid)) if fid else 0.0
    for stage in ("search", "schedule", "decompose", "peephole"):
        m[f"compiler.{stage}_s"] = total(f"compiler.{stage}")
    m["compiler.cnot_pre"] = count("cnot_pre")
    m["compiler.cnot_post"] = count("cnot_post")
    pre = m["compiler.cnot_pre"]
    m["compiler.cancel_frac"] = (pre - m["compiler.cnot_post"]) / pre if pre else 0.0
    m["qasm.emit_s"] = total("qasm.emit")
    m["qasm.parse_s"] = total("qasm.parse")
    m["qasm.bytes"] = count("qasm_bytes")
    m["tasks.submit_s"] = total("tasks.submit")
    m["tasks.backend_run_s"] = total("tasks.backend_run")
    waits, runs = store_lifecycle(w.store_path) if w.store_path else ([], [])
    m["tasks.queue_wait_p50_s"] = pct(waits, 50)
    m["tasks.queue_wait_p95_s"] = pct(waits, 95)
    m["tasks.run_p50_s"] = pct(runs, 50)
    m["tasks.run_p95_s"] = pct(runs, 95)
    m["tasks.reopen_s"] = total("tasks.reopen")
    m["tasks.rank_s"] = total("tasks.rank")
    m["tasks.store_mb"] = os.path.getsize(w.store_path) / 1e6 if w.store_path else 0.0
    m["service.gen_lag_p95_s"] = pct([x for p in traced for x in p.gen_lags], 95)
    self_times = tracer.layer_self_times("bench")
    for layer in LAYERS:
        m[f"self.{layer}_s"] = self_times.get(layer, 0.0) / n
    # Tracing overhead: the traced phase minus the untraced one, same process.
    key = "batch_s" if w.closed_loop else "latency_p50_s"
    base = end_to_end(w, untraced, 0.0)[key]
    m["trace.overhead_s"] = end_to_end(w, traced, 0.0)[key] - base
    m["trace.overhead_frac"] = m["trace.overhead_s"] / base if base else 0.0
    m["trace.spans"] = len(tracer.spans) / n
    m["trace.span_us"] = 1e6 * span_cost()
    return m


def span_cost(repeats: int = 20000) -> float:
    """Seconds one recorded span adds, measured on empty spans."""
    tracer = Tracer(True)
    t = time.perf_counter()
    for _ in range(repeats):
        with tracer.span("bench.empty"):
            pass
    return (time.perf_counter() - t) / repeats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", default=str(HERE / "out"))
    args = ap.parse_args(argv)
    bench = spec()

    gauge = Gauge()
    w = WORKLOADS[args.workload](args.seed, args.size, args.workdir, gauge)
    import_times = [import_seconds(gauge) for _ in range(SETUP_REPEATS)]
    setup_times, parts = [], []
    for _ in range(SETUP_REPEATS):
        w.close()
        w.setup_parts = {}
        gauge.sample(GAUGE_BURST)
        t = time.perf_counter()
        w.setup()
        end = time.perf_counter()
        gauge.sample(GAUGE_BURST)
        setup_times.append((end - t) * gauge.factor(t, end))
        parts.append(w.setup_parts)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)
    setup_parts = {k: statistics.median(p[k] for p in parts) for k in parts[0]}
    w.prepare_checks()
    # Keep what set-up built out of the cyclic collector's generations: with
    # the grid136 library in them, every full collection added ~30 ms to
    # whichever parse it landed in, and which job that was changed per run.
    gc.collect()
    gc.freeze()

    if args.trace:
        untraced = w.run(Tracer(False), args.seconds / 2)
        tracer = Tracer(True)
        w.restart(tracer)
        passes = w.run(tracer, args.seconds / 2)
    else:
        tracer = Tracer(False)
        passes = untraced = w.run(tracer, args.seconds)
    w.close()

    all_passes = untraced + passes if args.trace else passes
    errors = [e for p in all_passes for e in p.errors]
    digests = [p.hasher.hexdigest() for p in all_passes]
    if len(set(digests)) != 1:
        errors.append(f"passes disagree on the result digest: {sorted(set(digests))}")
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    e2e = end_to_end(w, passes, setup_s)
    layer = per_layer(w, tracer, passes, untraced, setup_parts) if args.trace else {}
    quality = {
        "fail_frac": failed / attempted if attempted else 1.0,
        "solve_optimal": passes[0].optimal if w.name == "solve" else 0,
        "jobs_per_pass": len(passes[0].latencies),
        "gen_lag_p95_s": pct([x for p in passes for x in p.gen_lags], 95),
        "passes": len(passes),
        "speed_factor_median": statistics.median(f for p in all_passes for f in p.factors),
        "gauge_median_s": gauge.median(),
        "gauge_samples": len(gauge.samples),
        "latency_samples": sum(len(p.latencies) for p in passes),
        "read_samples": sum(len(p.reads) for p in passes),
    }

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = layer if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "environment": environment(),
        "digest": digests[0],
        "errors": errors[:50],
        "setup": {"import_s": import_times, "repeats_s": setup_times, "parts_s": setup_parts},
        "gauge_s": gauge.samples,
        "intervals": [p.timed for p in all_passes],
        "end_to_end": e2e,
        "quality": quality,
        "job_latency_s": per_job_medians(passes, "latencies") if w.closed_loop else {},
        "job_read_s": per_job_medians(passes, "reads") if w.closed_loop else {},
        "per_layer": layer,
        "result": result,
    }
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    if args.trace:
        tracer.write(stem + "-spans.json")

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"passes {len(passes)}  env {json.dumps(report['environment'])}")
    print(f"digest {digests[0]}")
    for name, value in {**e2e, **quality, **layer}.items():
        print(f"  {name:32s} {value:.6g}")
    for e in errors[:10]:
        print(f"CHECK FAILED: {e}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
