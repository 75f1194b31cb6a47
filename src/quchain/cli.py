"""Command-line surface: solve, compile, submit, status, result, bench, chains."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import bench as bench_mod
from .circuits import QaoaParams
from .compiler import compile_graph, layout_document
from .engine import DEFAULT_GRID_SIZE, DEFAULT_MAX_EVALS, optimize
from .errors import ConfigError, ParseError, QuchainError, ResultUnavailableError, TaskNotFoundError
from .graph import WeightGraph, read_graph
from .hardware import build_subchain_library, load_calibration, select_subchain
from .problems import (
    qubo_from_graph_coloring,
    qubo_from_maxcut,
    qubo_from_number_partition,
    qubo_from_set_packing,
    weight_graph_from_qubo,
)
from .qasm import emit
from .tasks import TaskService, _queued, process_results
from .validate import json_object, real, required

PALETTE = [
    "lightblue", "salmon", "palegreen", "khaki", "plum", "lightgray",
    "orange", "cyan", "pink", "yellowgreen", "tan", "orchid",
]


def _parse_number_list(text: str, flag: str, cast=float) -> list:
    """Comma-separated numbers; a malformed or non-finite entry raises
    :class:`ConfigError` naming ``flag``."""
    values = []
    for tok in text.split(","):
        if not tok.strip():
            continue
        try:
            value = cast(tok)
        except ValueError:
            raise ConfigError(f"{flag}: malformed number {tok!r} in {text!r}") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{flag}: numbers must be finite, got {tok!r} in {text!r}")
        values.append(value)
    return values


def _load_problem(args):
    """Build the weight graph, the original optimization sense and, for a
    problem posed on ``--graph``, that graph (else None)."""
    problem = getattr(args, "problem", None)
    if problem is None:
        if not args.graph:
            raise QuchainError("either --graph or --problem is required")
        return read_graph(args.graph), "min", None
    graph = None
    if problem in ("maxcut", "coloring"):
        if not args.graph:
            raise QuchainError(f"--graph is required for the {problem} problem")
        graph = read_graph(args.graph)
        if problem == "maxcut":
            qubo = qubo_from_maxcut(graph)
        else:
            qubo = qubo_from_graph_coloring(graph, args.colors)
    elif problem == "partition":
        if not args.numbers:
            raise QuchainError("--numbers is required for the partition problem")
        qubo = qubo_from_number_partition(_parse_number_list(args.numbers, "--numbers", int))
    else:  # "setpack": argparse's choices admit no other problem
        if not args.sets:
            raise QuchainError("--sets is required for set packing")
        sets = [set(_parse_number_list(group, "--sets", int)) for group in args.sets.split(";")]
        qubo = qubo_from_set_packing(sets, args.penalty)
    return weight_graph_from_qubo(qubo), qubo.sense, graph


def _add_problem_flags(sub):
    sub.add_argument("--graph", help="weight-graph JSON file")
    sub.add_argument(
        "--problem", choices=["maxcut", "coloring", "partition", "setpack"],
        help="build the model from a named problem instead of a raw weight graph",
    )
    sub.add_argument("--colors", type=int, default=3, help="color count for coloring")
    sub.add_argument("--numbers", help="comma-separated integers for partition")
    sub.add_argument("--sets", help="semicolon-separated sets, e.g. '1;2;1,2'")
    sub.add_argument("--penalty", type=float, default=2.0, help="set-packing penalty")


def _load_params(args) -> QaoaParams:
    """Angles from --params or --gamma/--beta."""
    if args.params:
        with open(args.params, encoding="utf-8") as f:
            doc = json_object(f.read())
        angles = {}
        for key in ("gamma", "beta"):
            values = required(doc, key, "$")
            if not isinstance(values, list):
                raise ParseError("expected a list of angles", key)
            angles[key] = [real(x, f"{key}[{k}]") for k, x in enumerate(values)]
        return QaoaParams(**angles)
    if args.gamma and args.beta:
        return QaoaParams(
            gamma=_parse_number_list(args.gamma, "--gamma"),
            beta=_parse_number_list(args.beta, "--beta"),
        )
    raise QuchainError("provide --params FILE or both --gamma and --beta")


def _pick_chain(args, k: int):
    """The best k-chain; the sweep finishes each length before the next, so a
    library built only to k holds the same chain as one built to the chip."""
    if not args.calib:
        return None
    chip = load_calibration(args.calib)
    lib = build_subchain_library(chip, max_len=min(max(2, k), chip.n))
    return select_subchain(lib, max(2, k))


def _store_path(args) -> str:
    return os.path.join(args.store, "tasks.jsonl")


def cmd_solve(args) -> int:
    for flag, value in (("--p", args.p), ("--grid-size", args.grid_size),
                        ("--max-evals", args.max_evals)):
        if value < 1:
            raise ConfigError(f"{flag} must be at least 1, got {value}")
    g, sense, _ = _load_problem(args)
    result = optimize(g, p=args.p, grid_size=args.grid_size, max_evals=args.max_evals)
    print(f"p = {args.p}")
    print("gamma =", " ".join(f"{x:.10g}" for x in result.params.gamma))
    print("beta  =", " ".join(f"{x:.10g}" for x in result.params.beta))
    print(f"E_p = {result.energy:.12g}")
    print(f"objective estimate ({sense}) = {g.objective(result.energy, sense):.12g}")
    print(f"evaluations = {result.evaluations}  converged = {result.converged}")
    if args.out:
        doc = {
            "p": args.p,
            "gamma": list(result.params.gamma),
            "beta": list(result.params.beta),
            "energy": result.energy,
            "sense": sense,
        }
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    if args.trace:
        with open(args.trace, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["eval"]
                + [f"gamma_{i + 1}" for i in range(args.p)]
                + [f"beta_{i + 1}" for i in range(args.p)]
                + ["energy"]
            )
            writer.writerows(
                (i, *params.flat(), e)
                for i, (params, e) in enumerate(result.trace)
                if params.p == args.p
            )
    return 0


def cmd_compile(args) -> int:
    g, _, _ = _load_problem(args)
    params = _load_params(args)
    chain = _pick_chain(args, g.n)
    pc = compile_graph(g, params, chain=chain)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(emit(pc))
    if args.layout:
        with open(args.layout, "w", encoding="utf-8") as f:
            f.write(layout_document(pc))
    print(f"wrote {args.out}")
    print(f"depth = {pc.depth}")
    print(f"cnot_count = {pc.cnot_count}")
    print(f"scheduled cost cycles = {pc.scheduled_cost_cycles}")
    return 0


def cmd_submit(args) -> int:
    with open(args.qasm, encoding="utf-8") as f:
        text = f.read()
    # The checks submit makes, before the store directory or file exists.
    rec = _queued(text, args.shots, args.name, args.seed)
    os.makedirs(args.store, exist_ok=True)  # only a writer creates the store
    with TaskService(_store_path(args)) as service:
        out = service._enqueue(rec, args.wait)
        if args.wait:
            print(f"task {out.id}: {out.status}")
            if out.status == "completed":
                for bits, count in sorted(out.counts.items()):
                    print(f"{bits} {count}")
            return 0 if out.status == "completed" else 1
        print(out)
        service.drain()  # the sampler is in-process; finish before exiting
    return 0


def cmd_status(args) -> int:
    service = TaskService(_store_path(args), read_only=True)
    print(service.status(args.id))
    return 0


def cmd_result(args) -> int:
    service = TaskService(_store_path(args), read_only=True)
    counts = service.result(args.id)
    g, sense, graph = _load_problem(args)
    ranked = process_results(counts, g, top=args.top, sense=sense)
    if not ranked.rows:  # a completed task may hold no counts; --dot needs a row
        raise ValueError("no sampled bitstrings to rank")
    print("bitstring count energy objective")
    for k, row in enumerate(ranked.rows):
        mark = " *" if k < ranked.top else ""
        print(f"{row.bitstring} {row.count} {row.energy:.10g} {row.objective:.10g}{mark}")
    if args.hist:
        with open(args.hist, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["bitstring", "count", "energy", "objective"])
            for row in ranked.rows:
                writer.writerow([row.bitstring, row.count, row.energy, row.objective])
    if args.dot:
        _write_dot(args, graph or g, ranked)
    return 0


def _write_dot(args, graph: WeightGraph, ranked) -> None:
    """Draw ``graph`` with its nodes filled from the best row."""
    best = ranked.rows[0].bitstring
    lines = ["graph solution {"]
    k = args.colors
    for v, _ in graph.nodes:
        if args.problem == "coloring":
            chosen = [c for c in range(k) if best[v * k + c] == "0"]
            color = PALETTE[chosen[0] % len(PALETTE)] if chosen else "white"
        else:
            color = PALETTE[int(best[v])]
        lines.append(f'  {v} [style=filled, fillcolor={color}];')
    lines.extend(f"  {u} -- {v};" for u, v, _ in graph.edges)
    lines.append("}")
    with open(args.dot, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def cmd_bench(args) -> int:
    sizes = _parse_number_list(args.sizes, "--sizes", int)
    densities = _parse_number_list(args.densities, "--densities")
    p_list = _parse_number_list(args.p_list, "--p-list", int)
    for flag, values in (("--sizes", sizes), ("--p-list", p_list), ("--reps", [args.reps])):
        for value in values:
            if value < 1:
                raise ConfigError(f"{flag}: must be at least 1, got {value}")
    for d in densities:
        if not 0 <= d <= 1:
            raise ConfigError(f"--densities: density must be in [0, 1], got {d}")
    rows = bench_mod.run_bench(
        sizes=sizes, densities=densities, p_list=p_list, reps=args.reps, seed=args.seed
    )
    bench_mod.write_csv(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")
    for m in bench_mod.cell_means(rows):
        print(
            f"n={m.n} d={m.d} p={m.p}: compile_ms={m.compile_ms:.1f} "
            f"depth_pre={m.depth_pre:.1f} depth_post={m.depth_post:.1f} cnots={m.cnot_count:.1f}"
        )
    return 0


def cmd_chains(args) -> int:
    if not args.calib:
        raise QuchainError("chains requires --calib")
    chip = load_calibration(args.calib)
    lib = build_subchain_library(chip, max_len=args.max_len)
    for k in sorted(lib.entries):
        paths = lib.entries[k]
        if not paths:
            print(f"k={k}: (none)")
            continue
        shown = ", ".join(
            f"{'-'.join(map(str, p))} ({lib.fidelity(p):.6f})" for p in paths[:3]
        )
        print(f"k={k}: {shown}" + (" ..." if len(paths) > 3 else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quchain",
        description="Model QUBO problems, optimize QAOA angles and compile for chain hardware.",
    )
    parser.add_argument("--seed", type=int, default=1, help="global random seed")
    parser.add_argument("--calib", help="chip calibration JSON")
    parser.add_argument("--store", default=".quchain", help="task store directory")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="optimize QAOA angles for a problem")
    _add_problem_flags(s)
    s.add_argument("--p", type=int, default=1)
    s.add_argument(
        "--grid-size", type=int, default=DEFAULT_GRID_SIZE,
        help="p=1 lines of fixed gamma the scan fits, three evaluations each "
             "(default %(default)s)")
    s.add_argument("--max-evals", type=int, default=DEFAULT_MAX_EVALS)
    s.add_argument("--out", help="write optimal parameters JSON")
    s.add_argument("--trace", help="write optimizer trace CSV")
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("compile", help="compile a graph + angles to QASM")
    _add_problem_flags(s)
    s.add_argument("--params", help="parameters JSON from solve")
    s.add_argument("--gamma", help="comma-separated gamma angles")
    s.add_argument("--beta", help="comma-separated beta angles")
    s.add_argument("--out", required=True, help="output QASM path")
    s.add_argument("--layout", help="output layout JSON path")
    s.set_defaults(func=cmd_compile)

    s = sub.add_parser("submit", help="submit a QASM file for sampling")
    s.add_argument("--qasm", required=True)
    s.add_argument("--shots", type=int, default=100)
    s.add_argument("--name", default="")
    s.add_argument("--wait", action="store_true")
    s.set_defaults(func=cmd_submit)

    s = sub.add_parser("status", help="query task status")
    s.add_argument("id")
    s.set_defaults(func=cmd_status)

    s = sub.add_parser("result", help="fetch counts and rank solutions")
    s.add_argument("id")
    _add_problem_flags(s)
    s.add_argument("--top", type=int, default=2)
    s.add_argument("--dot", help="write a DOT file colored by solution")
    s.add_argument("--hist", help="write histogram CSV")
    s.set_defaults(func=cmd_result)

    s = sub.add_parser("bench", help="compiler benchmark sweep")
    s.add_argument("--sizes", default="10,20,30")
    s.add_argument("--densities", default="0.3,0.8")
    s.add_argument("--p-list", default="1")
    s.add_argument("--reps", type=int, default=20)
    s.add_argument("--out", default="bench.csv")
    s.set_defaults(func=cmd_bench)

    s = sub.add_parser("chains", help="print the subchain library")
    s.add_argument("--max-len", type=int, default=None)
    s.set_defaults(func=cmd_chains)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be at least 0, got {args.seed}")
        return args.func(args)
    except TaskNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResultUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QuchainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
