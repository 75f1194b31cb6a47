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
mixer.  At p=1 the energy along a line of fixed gamma is exactly
E = A sin 4b + B sin^2 2b + C sin 2b, fields included (Wang, Hadfield et
al., arXiv:1706.02998), so three evaluations at b = pi/8, pi/4, 3pi/8 fix
the whole line and its minimum over the full period b in [0, pi).  Half of
it is not enough: b -> b + pi/2 flips the sign of C, the part linear in
the fields.  :func:`optimize` has one search route: a scan of such lines
and line searches over gamma at p=1, then, at each deeper depth,
interpolated angles (Zhou et al., arXiv:1812.01041) refined by Nelder-Mead.
The scan evaluates the three points of all its lines as one batch, cut
into chunks whose states fit in ``CHUNK_BYTES``; each step of the line
searches after it is a batch of three; simplex and interpolation steps are
batches of one, and :func:`expectation_decomposed` is one too.
Each (point, cone) energy is its own dot product and each point sums its
cones in cone order, so a batched energy is bit-equal to the point alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import QaoaParams
from .errors import CapacityError
from .graph import WeightGraph
from .simulator import QUBIT_LIMIT, diagonal, qaoa_state
from .validate import is_integer

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


def energy_table(g: WeightGraph) -> np.ndarray:
    """C(z) for every basis state (offset excluded), little-endian indexing."""
    return diagonal(g.n, _terms(g))


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
        tables[row] = diagonal(n, _terms(cone.subgraph))
        if not serves_all:
            pos = {orig: i for i, orig in enumerate(cone.index_map)}
            local = [(tuple(pos[s] for s in support), w) for support, w in cone.terms]
            observables[row] = diagonal(n, local)
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

    def left(self) -> int:
        return self.max_evals - len(self.trace)

    def exhausted(self) -> bool:
        return self.left() <= 0

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


def _line_basis(betas) -> np.ndarray:
    """(sin 4b, sin^2 2b, sin 2b) at each of ``betas``, stacked on a last axis."""
    t = 2.0 * np.asarray(betas, dtype=float)
    return np.stack([np.sin(2.0 * t), np.sin(t) ** 2, np.sin(t)], axis=-1)


#: The three beta that fix a p=1 line, and the inverse of their
#: ``_line_basis`` rows, which maps a line's energies there, (E1, E2, E3), to
#: its (A, B, C) in E = A sin 4b + B sin^2 2b + C sin 2b:
#: E1 = A + B/2 + C/sqrt2, E2 = B + C and E3 = -A + B/2 + C/sqrt2.
LINE_BETAS = (np.pi / 8, np.pi / 4, 3 * np.pi / 8)
_R = 1.0 + np.sqrt(2.0)  # 1 / (sqrt2 - 1)
_FIT = np.array([[0.5, 0.0, -0.5], [-_R, 1.0 + _R, -_R], [_R, -_R, _R]])
#: The companion matrix of a monic quartic, less its first row.
_SHIFT = np.eye(4, k=-1, dtype=complex)[None]


def _fit_lines(obj: _Objective, gammas) -> np.ndarray:
    """(A, B, C) of the p=1 line at each of ``gammas``, shape (L, 3): three
    evaluations per line, all in one batch."""
    points = [QaoaParams(gamma=(g,), beta=(b,)) for g in gammas for b in LINE_BETAS]
    return np.reshape(obj.batch(points), (-1, 3)) @ _FIT.T


def _line_minima(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The minimizing beta in [0, pi] of each line of ``coeffs``, rows of
    (A, B, C), and the line's value there.

    In t = 2 beta a line is A sin 2t + B sin^2 t + C sin t.  With z = e^(it),
    z^2 dE/dt = (A - iB/2) z^4 + (C/2) z^3 + (C/2) z + (A + iB/2), so every
    critical point is the argument of one of its roots, and each line takes
    the root argument of lowest value.  Where A and B vanish (to 1e-12 of
    the line's size) the line is C sin t, critical at t = pi/2 and 3pi/2,
    and the roots of z^4 - 1 are tried instead.
    """
    a, b, c = coeffs.T[:, :, None]
    lead = a - 0.5j * b
    flat = np.abs(lead) <= 1e-12 * np.abs(coeffs).sum(axis=1, keepdims=True)
    lead[flat] = 1.0
    companion = np.repeat(_SHIFT, len(coeffs), axis=0)
    companion[:, 0, 0::2] = -0.5 * c / lead
    companion[:, 0, 3:] = -lead.conj() / lead
    companion[flat[:, 0], 0] = (0.0, 0.0, 0.0, 1.0)
    t = np.angle(np.linalg.eigvals(companion))
    values = (_line_basis(t / 2.0) @ coeffs[:, :, None])[:, :, 0]
    rows, best = np.arange(len(coeffs)), values.argmin(axis=1)
    return np.mod(t[rows, best], 2.0 * np.pi) / 2.0, values[rows, best]


def _refine_line(obj: _Objective, center: float, width: float) -> bool:
    """Bounded search over gamma in [center - width, center + width] for the
    lowest line minimum, one line per step, then evaluate the best line's
    minimizer; True if it converged within the budget.  A search that ends
    at an edge of its bracket searches again around that edge, twice as wide,
    until it ends inside or the budget runs out."""
    from scipy.optimize import minimize_scalar  # here, so importing quchain loads no SciPy

    best: list = []  # [gamma, beta, fitted value] of the lowest line minimum

    def profile(offset):
        # The search variable is the offset from the center: the search's
        # tolerance grows with |x|, and the offset is the smaller number.
        gamma = center + float(offset)
        betas, values = _line_minima(_fit_lines(obj, [gamma]))
        if not best or values[0] < best[2]:
            best[:] = gamma, betas[0], values[0]
        return values[0]

    converged = False
    # The bounded search evaluates two lines before it checks its limit.
    while (steps := (obj.left() - 1) // 3) >= 2:
        res = minimize_scalar(profile, bounds=(-width, width), method="bounded",
                              options={"xatol": 1e-8, "maxiter": steps})
        converged = bool(res.success)
        if not converged or abs(best[0] - center) < (1.0 - 1e-3) * width:
            break
        # It ended within 0.1% of the width from an edge: search a bracket
        # twice as wide around that edge.
        center, width, converged = best[0], 2.0 * width, False
    if best:
        obj(QaoaParams(gamma=(best[0],), beta=(best[1],)))
    return converged


def _depth_one(obj: _Objective, grid_size: int) -> bool:
    """The p=1 stage: a scan, then line searches; True if every line fit and
    every search converged within the budget.

    The scan fits the p=1 lines at the ``grid_size`` gamma
    (k + 1/2) pi / grid_size, as many whole lines as the budget holds with
    one evaluation to spare, and evaluates the lowest line minimum.  A line
    search (:func:`_refine_line`) within pi/grid_size follows around each of
    the two lowest local minima of the scanned line minima, lowest first.
    The first and last lines count one neighbour each.
    """
    gammas = (np.arange(min(grid_size, (obj.left() - 1) // 3)) + 0.5) * (np.pi / grid_size)
    if not len(gammas):
        return False
    betas, values = _line_minima(_fit_lines(obj, gammas))
    k = int(np.argmin(values))
    obj(QaoaParams(gamma=(gammas[k],), beta=(betas[k],)))
    below_left = np.r_[True, values[1:] < values[:-1]]
    below_right = np.r_[values[:-1] <= values[1:], True]
    pool = [(values[i], gammas[i]) for i in np.flatnonzero(below_left & below_right)]
    converged = len(gammas) == grid_size
    for _, center in sorted(pool)[:2]:
        converged &= _refine_line(obj, float(center), np.pi / grid_size)
    return converged


def _simplex(obj: _Objective) -> bool:
    """Nelder-Mead from ``obj.best``, capped at the evaluations left in the
    budget; True if it converged, and False at once when none is left.  Its
    best point is then ``obj.best``."""
    from scipy.optimize import minimize  # here, so importing quchain loads no SciPy

    def f(x):
        return obj(QaoaParams.from_flat(x))

    if obj.exhausted():
        return False
    budget = obj.left()
    res = minimize(
        f,
        np.asarray(obj.best[0].flat()),
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
    seed=0,
    grid_size: int = DEFAULT_GRID_SIZE,
    max_evals: int = DEFAULT_MAX_EVALS,
) -> OptimizationResult:
    """Minimize E_p over the variational angles.

    One route, in this order:

    * **Depth 1.**  The scan fits ``grid_size`` lines of fixed gamma, at
      (k + 1/2) pi / grid_size for k = 0..grid_size-1 (64 lines by default;
      gamma = 0, where every energy is 0, is not a line).  Each line costs
      three evaluations, is fitted exactly and minimized over the full beta
      period [0, pi), and the lowest line minimum is evaluated.  A bounded
      search over gamma (:func:`scipy.optimize.minimize_scalar`) follows
      within pi/grid_size of each of the two lowest local minima of the
      scanned line minima, each step one line with beta at that line's
      minimum.  A search that ends at an edge of its bracket searches again
      around that edge, twice as wide, and each search's best point is
      evaluated last.
    * **Each further depth** up to p.  One evaluation at angles interpolated
      from the best point of the depth below (:func:`interp_initialize`),
      then Nelder-Mead from the best point so far.

    ``method`` has one accepted value, "grid+simplex", the route above; any
    other raises ``ValueError``.  ``seed`` is accepted and unused: the route
    draws nothing at random, so every run is deterministic.

    ``evaluations`` and ``trace`` count kernel evaluations only: a fitted
    line value is not an evaluation, and the returned energy always is one.
    All stages share one budget of ``max_evals`` evaluations.  A line is
    taken whole or not at all, and a line stage that cannot fit one more
    line and the evaluation of its minimizer stops there; so the scan needs
    at least four evaluations, and a run with a smaller budget makes no
    evaluation and raises ``ValueError``, as any run does whose budget ends
    before depth p.  Otherwise, once the budget is spent, the remaining
    stages are skipped and the best depth-p parameters so far are returned
    flagged as non-converged.
    """
    for name, value in (("p", p), ("grid_size", grid_size), ("max_evals", max_evals)):
        if not is_integer(value):
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if method != "grid+simplex":
        raise ValueError(f"unknown method {method!r}")

    obj = _Objective(g, max_evals)
    converged = _depth_one(obj, grid_size)
    while obj.best and obj.best[0].p < p and not obj.exhausted():  # each further depth
        obj(interp_initialize(obj.best[0]))
        converged &= _simplex(obj)
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
