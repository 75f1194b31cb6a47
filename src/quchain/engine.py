"""QAOA expectation evaluation and variational parameter search.

There is one evaluation route, the light-cone route.
:func:`expectation_decomposed` groups the Hamiltonian's terms by their
p-hop neighborhood subgraph (the term's light cone), simulates each
distinct cone independently and sums the per-cone expectations;
:func:`optimize` evaluates the same way, so cone sizes depend on local
graph structure, not on the total qubit count.  :func:`decompose`
returns the distinct cones of one depth, or one cone of the whole graph when
the distinct cones together hold more amplitudes than the register
(sum of 2**|cone| > 2**n) and the register fits the simulator; there is no
knob.  The evaluator alone decides what it stores: it stacks the cones by
width, so the cost diagonals and observables of the cones of one width form
one block each, built once per depth within ``CONE_CACHE_BYTES``.  A cone
serving every term of its subgraph counts one array against that budget,
its cost diagonal doubling as its observable; any other cone counts two.
:func:`~quchain.simulator.qaoa_state` runs once per stack and batch of
points: one diagonal phase per cost layer and in-place 2x2 rotations for the
mixer.  The p=1 grid is one gamma-major batch, cut into chunks whose states
fit in ``CHUNK_BYTES``; simplex and interpolation steps are batches of one,
and :func:`expectation_decomposed` is one too.
Each (point, cone) energy is its own dot product and each point sums its
cones in cone order, so a batched energy is bit-equal to the point alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .circuits import QaoaParams
from .errors import CapacityError
from .graph import WeightGraph
from .simulator import QUBIT_LIMIT, qaoa_state, spin_product

DEFAULT_GRID_SIZE = 64
DEFAULT_MAX_EVALS = 20000
#: Memory the light cones of one decomposition may keep their cost diagonal
#: and observable in; cones beyond it rebuild both on every evaluation.
CONE_CACHE_BYTES = 1 << 26
#: State bytes one kernel call may hold for a batch of points (at least one
#: point; never more than ``CONE_CACHE_BYTES``).  Chunks of a few MiB stay in
#: the CPU cache: a 64 MiB chunk made the default p=1 grid slower.
CHUNK_BYTES = 1 << 21


def _terms(g: WeightGraph) -> list[tuple[tuple[int, ...], float]]:
    """(support, weight) of every Hamiltonian term: edges, then nonzero nodes."""
    return [((u, v), w) for u, v, w in g.edges] + [((i,), w) for i, w in g.nodes if w != 0.0]


def _diagonal(n: int, terms) -> np.ndarray:
    """Sum over ``terms`` of weight * prod_{q in support} z_q for every basis state.

    Each term is one broadcast add over the ``[2] * n`` view of the result.
    """
    diag = np.zeros(1 << n)
    view = diag.reshape([2] * n)
    for support, w in terms:
        view += w * spin_product(n, support)
    return diag


def energy_table(g: WeightGraph) -> np.ndarray:
    """C(z) for every basis state (offset excluded), little-endian indexing."""
    return _diagonal(g.n, _terms(g))


class LightCone:
    """Induced p-hop subgraph shared by every term whose light cone it is,
    or the whole graph holding every term (see :func:`decompose`).

    ``index_map[i]`` is the original id of subgraph node ``i`` and ``terms``
    holds the (support, weight) pairs, in original ids, of the terms it
    serves.  Its observable is the sum of those terms over the subgraph's
    basis states; what the evaluator stores of it is the evaluator's
    choice (see :class:`_ConeStacks`).
    """

    def __init__(self, subgraph: WeightGraph, index_map: tuple[int, ...],
                 terms: tuple[tuple[tuple[int, ...], float], ...]):
        self.subgraph = subgraph
        self.index_map = index_map
        self.terms = terms


def _p_hop_closure(adj, support, p: int) -> frozenset[int]:
    frontier = set(support)
    seen = set(support)
    for _ in range(p):
        frontier = {v for u in frontier for v in adj[u]} - seen
        seen |= frontier
    return frozenset(seen)


def decompose(g: WeightGraph, p: int) -> list[LightCone]:
    """The distinct p-hop light cones of the Hamiltonian's terms.

    Every edge and every nonzero-weight node is a term of exactly one cone,
    so the cones partition H_C without overlap; terms with the same light
    cone share it.  Cones come in order of first appearance, the order their
    energies are summed in.  When the distinct cones together cost more
    than the whole graph (sum of 2**|cone| > 2**n) and n is within the
    simulator limit, the result is one cone of every node holding every
    term in :func:`_terms` order; larger graphs keep their cones.  It
    builds no array and counts no bytes: the evaluator decides what it
    stores.  A light cone wider than the simulator limit raises
    :class:`CapacityError` naming its term.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    adj = g.adjacency()
    terms = _terms(g)
    groups: dict[frozenset[int], list] = {}
    for support, w in terms:
        keep = _p_hop_closure(adj, support, p)
        if len(keep) > QUBIT_LIMIT:
            kind = "edge" if len(support) == 2 else "node"
            raise CapacityError(
                f"{kind} term {support} has a {len(keep)}-qubit light cone, "
                f"above the simulator limit of {QUBIT_LIMIT}"
            )
        groups.setdefault(keep, []).append((support, w))
    if g.n <= QUBIT_LIMIT and sum(1 << len(keep) for keep in groups) > 1 << g.n:
        groups = {frozenset(range(g.n)): terms}  # one whole-graph cone is cheaper
    cones = []
    for keep, members in groups.items():
        sub, index_map = g.induced_subgraph(keep)
        cones.append(LightCone(sub, tuple(index_map), tuple(members)))
    return cones


def _blocks(cones: list[LightCone], serves_all: bool) -> tuple[np.ndarray, np.ndarray]:
    """Cost diagonals, shape (C, 2**k), and observables, shape (C, 2**k, 1),
    of equal-width ``cones``, one row each.  When the cones serve every term
    of their subgraphs, the observables are a view of the diagonals."""
    n = cones[0].subgraph.n
    tables = np.zeros((len(cones), 1 << n))
    observables = tables if serves_all else np.zeros((len(cones), 1 << n))
    for row, cone in enumerate(cones):
        tables[row] = _diagonal(n, _terms(cone.subgraph))
        if not serves_all:
            pos = {orig: i for i, orig in enumerate(cone.index_map)}
            local = [(tuple(pos[s] for s in support), w) for support, w in cone.terms]
            observables[row] = _diagonal(n, local)
    return tables, observables.reshape(len(cones), 1 << n, 1)


def _stack_energies(tables: np.ndarray, observables: np.ndarray, points) -> np.ndarray:
    """(B, C) energies of C equal-width cones at B points, one dot each."""
    pr = np.abs(qaoa_state(tables, points)) ** 2
    # A (1, 2**k) @ (2**k, 1) matmul is the same dot as a 1-D ``@``.
    return np.matmul(pr[:, :, None, :], observables)[:, :, 0, 0]


class _ConeStacks:
    """The cones of one depth, stacked by width: the light-cone evaluator,
    and the one place that decides what is stored.

    A cone serving every term of its subgraph, such as the whole-graph cone,
    takes its cost diagonal as its observable and stores one float64 array;
    any other cone stores two.  Cones are kept, in :func:`decompose` order,
    while those arrays total at most ``CONE_CACHE_BYTES``.  Kept cones of one
    width share a stack when they agree on serving every term, the flag
    :func:`_blocks` is given.  A stack is the positions of its cones, the
    cones, their (C, 2**k) blocks of cost diagonals and observables, built
    once, and that flag.  Each cone beyond the budget is a stack of its own
    with no blocks and rebuilds its arrays on every evaluation, as the cone
    alone would.
    """

    def __init__(self, cones: list[LightCone]):
        self.size = len(cones)
        self.row_bytes = 16 * sum(1 << c.subgraph.n for c in cones)  # one point's states
        groups: dict[tuple, list[int]] = {}
        stored = 0
        for i, c in enumerate(cones):
            # A cone's terms are those of the whole graph within its subgraph, in
            # _terms order, as are the subgraph's: equal counts mean equal lists.
            serves_all = len(c.terms) == len(_terms(c.subgraph))
            need = (8 if serves_all else 16) << c.subgraph.n
            kept = stored + need <= CONE_CACHE_BYTES
            stored += need if kept else 0
            # A cone beyond the budget stands alone, so one rebuilds at a time.
            groups.setdefault((kept, c.subgraph.n if kept else i, serves_all), []).append(i)
        self.stacks = []
        for (kept, _, serves_all), at in groups.items():
            members = [cones[i] for i in at]
            blocks = _blocks(members, serves_all) if kept else None
            self.stacks.append((np.array(at), members, blocks, serves_all))

    def energies(self, points: list[QaoaParams]) -> list[float]:
        """<H_C> at each of ``points``, all of one depth.

        Points go through the kernel in chunks whose states fit in
        ``CHUNK_BYTES`` and ``CONE_CACHE_BYTES``, one call per stack and
        chunk; without cones every energy is 0.0.  Each (point,
        cone) energy is its own dot product, and each point's energies are
        summed with ``sum`` in cone order, so every result is bit-equal to
        evaluating the point alone, cone by cone.
        """
        cap = min(CONE_CACHE_BYTES, CHUNK_BYTES)
        rows = max(1, cap // self.row_bytes) if self.row_bytes else len(points)
        out: list[float] = []
        for start in range(0, len(points), rows):
            chunk = points[start:start + rows]
            per_cone = np.empty((len(chunk), self.size))
            for at, members, blocks, serves_all in self.stacks:
                per_cone[:, at] = _stack_energies(*(blocks or _blocks(members, serves_all)), chunk)
            out += [float(sum(energies)) for energies in per_cone.tolist()]
        return out


def expectation_decomposed(g: WeightGraph, params: QaoaParams) -> float:
    """<gamma,beta| H_C |gamma,beta>: the sum of per-cone expectations in cone order."""
    return _ConeStacks(decompose(g, params.p)).energies([params])[0]


def interp_initialize(params: QaoaParams) -> QaoaParams:
    """Depth p+1 initialization interpolated from optimized depth-p angles.

    new_v[i] = ((i-1)/p) v[i-1] + ((p-i+1)/p) v[i] for i = 1..p+1 (1-based,
    out-of-range entries zero).
    """

    def stretch(v: tuple[float, ...]) -> tuple[float, ...]:
        p = len(v)
        padded = [0.0, *v, 0.0]
        return tuple(
            ((i - 1) / p) * padded[i - 1] + ((p - i + 1) / p) * padded[i]
            for i in range(1, p + 2)
        )

    return QaoaParams(gamma=stretch(params.gamma), beta=stretch(params.beta))


@dataclass
class OptimizationResult:
    params: QaoaParams
    energy: float
    converged: bool
    evaluations: int
    trace: list[tuple] = field(default_factory=list)


def random_params(p: int, seed) -> QaoaParams:
    """Seeded draw from the optimizer's search box [0,pi) x [0,pi/2)."""
    rng = np.random.default_rng(seed)
    return QaoaParams(
        gamma=tuple(rng.uniform(0.0, np.pi, size=p)),
        beta=tuple(rng.uniform(0.0, np.pi / 2.0, size=p)),
    )


class _Objective:
    """Counts evaluations against the budget and keeps the trace.

    ``best`` is the lowest-energy evaluation (the first on ties) at the depth
    of the latest evaluation; a change of depth starts it afresh.  The graph
    is decomposed once per depth and only the cone stacks of the latest
    depth are kept, reused for every evaluation at that depth.
    """

    def __init__(self, g, max_evals):
        self.g = g
        self.max_evals = max_evals
        self.trace: list[tuple[QaoaParams, float]] = []
        self.best: tuple[QaoaParams, float] | None = None
        self.cones: tuple[int, _ConeStacks] | None = None  # (depth, stacks)

    def exhausted(self) -> bool:
        return len(self.trace) >= self.max_evals

    def batch(self, points: list[QaoaParams]) -> list[float]:
        """Evaluate ``points`` of one depth together, then record them in order."""
        depth = points[0].p
        if self.cones is None or self.cones[0] != depth:
            self.cones = None  # free the previous depth's blocks first
            self.cones = (depth, _ConeStacks(decompose(self.g, depth)))
        energies = self.cones[1].energies(points)
        for params, e in zip(points, energies):
            self.trace.append((params, e))
            if self.best is None or params.p != self.best[0].p or e < self.best[1]:
                self.best = (params, e)
        return energies

    def __call__(self, params: QaoaParams) -> float:
        return self.batch([params])[0]


def _grid_search(obj: _Objective, grid_size: int) -> bool:
    """Evaluate the p=1 grid gamma-major as one batch, cut at the budget left;
    False if the budget ran out before its end."""
    gammas = np.linspace(0.0, np.pi, grid_size, endpoint=False)
    betas = np.linspace(0.0, np.pi / 2.0, grid_size, endpoint=False)
    left = obj.max_evals - len(obj.trace)
    points = [QaoaParams(gamma=(gammas[i // grid_size],), beta=(betas[i % grid_size],))
              for i in range(min(left, grid_size * grid_size))]
    obj.batch(points)
    return left >= grid_size * grid_size


def _simplex(obj: _Objective, start: QaoaParams) -> bool:
    """Nelder-Mead from ``start``, capped at the evaluations left in the
    budget; True if it converged.  Its best point is ``obj.best``."""
    from scipy.optimize import minimize  # here, so importing quchain loads no SciPy

    def f(x):
        return obj(QaoaParams.from_flat(x))

    budget = obj.max_evals - len(obj.trace)
    res = minimize(
        f,
        np.asarray(start.flat()),
        method="Nelder-Mead",
        options={
            "xatol": 1e-8,
            "fatol": 1e-10,
            "maxfev": budget,
            "maxiter": 10 * budget,
        },
    )
    return bool(res.success)


def optimize(
    g: WeightGraph,
    p: int = 1,
    method: str = "grid+simplex",
    init: QaoaParams | str | None = None,
    seed=0,
    grid_size: int = DEFAULT_GRID_SIZE,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> OptimizationResult:
    """Minimize E_p over the variational angles.

    ``method`` is "grid", "simplex" or "grid+simplex".  The grid stage
    applies at p=1 (64x64 over [0,pi) x [0,pi/2) by default).  ``init`` may
    be explicit :class:`QaoaParams` of depth p, the string "random" (seeded
    draw at depth p), or None: at p>1 this chains upward from the p=1
    optimum, interpolating from the best point of the depth below and
    simplex-refining at every depth.  The run
    is deterministic for a fixed seed.  All stages share one budget of
    ``max_evals`` evaluations; if it runs out, the remaining stages are
    skipped and the best depth-p parameters so far are returned flagged as
    non-converged.
    """
    for name, value in (("p", p), ("grid_size", grid_size), ("max_evals", max_evals)):
        if not isinstance(value, Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if method not in ("grid", "simplex", "grid+simplex"):
        raise ValueError(f"unknown method {method!r}")
    if not (init is None or isinstance(init, QaoaParams)
            or isinstance(init, str) and init == "random"):
        raise ValueError(f"init must be None, 'random' or QaoaParams, got {init!r}")
    if isinstance(init, QaoaParams) and init.p != p:
        raise ValueError(f"init has depth {init.p}, requested p={p}")
    if isinstance(init, QaoaParams) or init == "random":
        depth = p
        start = init if isinstance(init, QaoaParams) else random_params(p, seed)
    else:
        depth, start = 1, None
    # start -> grid -> simplex, then [interp -> simplex] for each further depth.
    stages = [] if start is None else ["start"]
    if "grid" in method and depth == 1:
        stages.append("grid")
    refine = ["simplex"] if "simplex" in method else []
    stages += refine + (["interp"] + refine) * (p - depth)

    obj = _Objective(g, max_evals)
    converged = True
    for stage in stages:
        if obj.exhausted():
            converged = False
            break
        if stage == "start":
            obj(start)
        elif stage == "grid":
            converged &= _grid_search(obj, grid_size)
        elif stage == "simplex":
            origin = obj.best[0] if obj.best is not None else random_params(depth, seed)
            converged &= _simplex(obj, origin)
        else:  # "interp": every depth hands on its best point
            depth += 1
            obj(interp_initialize(obj.best[0]))
    if obj.best is None or obj.best[0].p != p:
        raise ValueError("optimizer made no depth-p evaluations; increase max_evals")
    best_params, best_energy = obj.best
    return OptimizationResult(
        params=best_params,
        energy=best_energy,
        converged=converged,
        evaluations=len(obj.trace),
        trace=obj.trace,
    )
