"""Chip calibration ingestion and fidelity-aware subchain selection.

A subchain is a simple path in the chip's coupling graph; its overall
fidelity is the product of the two-qubit gate fidelities along it.  The
library maps chain length to candidate paths sorted by that product.  One
search builds it: a sweep that keeps the best path per (vertex set, endpoint
pair) state, exhaustive on small chips and cut to the best states per length
on large ones, rerun from scratch on every calibration refresh.
Single-qubit fidelity and T1/T2 are parsed and validated but enter neither
the ranking nor any output.  :class:`ChipModel` is the one judge of a chip's
values and structure, so a chip built in code is checked as a calibration
document is; :func:`loads_calibration` only decodes the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import WIRE_LIMIT
from .errors import CapacityError, ConfigError, ParseError
from .validate import as_index, is_integer, json_object, real, records, required


@dataclass(frozen=True)
class Qubit:
    id: int
    t1_us: float
    t2_us: float
    f1q: float


@dataclass(frozen=True)
class Coupler:
    a: int
    b: int
    f2q: float


def _fidelity(value, where: str) -> float:
    f = real(value, where)
    if not 0.0 <= f <= 1.0:
        raise ParseError(f"fidelity {f} outside [0, 1]", where)
    return f


@dataclass(frozen=True, eq=False)
class ChipModel:
    """A chip's qubits and couplers, judged on construction.

    The first fault raises :class:`ParseError` (a :class:`ValueError`),
    checking in this order: qubit by qubit, an id that is not a non-negative
    int below ``WIRE_LIMIT`` (:func:`~quchain.validate.as_index`; bools and
    floats fail), T1 and T2 that are not finite reals, an ``f1q`` outside
    [0, 1], each at its field (``qubits[k].id``, ...); no qubit at all, and a
    duplicate id, at ``qubits``; coupler by coupler, an endpoint that is not
    a declared qubit's id at ``couplers[k].a`` or ``.b``, equal endpoints or
    a duplicate (the later row) at ``couplers[k]``, an ``f2q`` outside
    [0, 1] at ``couplers[k].f2q``.  The chip stores the values it judged:
    ids and endpoints as ints (a NumPy integer counts), T1, T2 and
    fidelities as floats.  This is the one judge of a chip's values and
    structure; :func:`loads_calibration` only decodes rows, so a chip built
    in code fails as its document does.
    """

    qubits: tuple[Qubit, ...]
    couplers: tuple[Coupler, ...]

    def __post_init__(self):
        qubits = []
        for k, q in enumerate(self.qubits):
            where = f"qubits[{k}]."
            if (i := as_index(q.id, WIRE_LIMIT)) is None:
                raise ParseError(f"qubit id must be a non-negative int below {WIRE_LIMIT}, "
                                 f"got {q.id!r}", where + "id")
            qubits.append(Qubit(i, real(q.t1_us, where + "t1_us"), real(q.t2_us, where + "t2_us"),
                                _fidelity(q.f1q, where + "f1q")))
        if not qubits:
            raise ParseError("a chip needs at least one qubit", "qubits")
        if len(known := {q.id for q in qubits}) != len(qubits):
            raise ParseError("duplicate qubit id", "qubits")
        couplers = []
        seen = set()
        for k, c in enumerate(self.couplers):
            where = f"couplers[{k}]"
            a, b = as_index(c.a), as_index(c.b)
            if a not in known or b not in known:
                end, x = ("a", c.a) if a not in known else ("b", c.b)
                raise ParseError(f"endpoint {x!r} is not a declared qubit", f"{where}.{end}")
            if a == b:
                raise ParseError("coupler endpoints must differ", where)
            if (key := (min(a, b), max(a, b))) in seen:
                raise ParseError(f"duplicate coupler {key}", where)
            seen.add(key)
            couplers.append(Coupler(a, b, _fidelity(c.f2q, where + ".f2q")))
        object.__setattr__(self, "qubits", tuple(qubits))
        object.__setattr__(self, "couplers", tuple(couplers))

    @property
    def n(self) -> int:
        return len(self.qubits)

    def adjacency(self) -> dict[int, dict[int, float]]:
        adj: dict[int, dict[int, float]] = {q.id: {} for q in self.qubits}
        for c in self.couplers:
            adj[c.a][c.b] = c.f2q
            adj[c.b][c.a] = c.f2q
        return adj


def loads_calibration(text: str) -> ChipModel:
    """Parse a calibration document; errors carry the offending field path.

    The reader only decodes the document's shape and hands the raw values to
    :class:`ChipModel`, which judges them.  The first fault found is
    reported: first the shape, in this order: the top level, the qubit rows,
    the coupler rows (see :func:`~quchain.validate.records`); then the
    chip's values and structure, in the order :class:`ChipModel` gives.
    Fields beyond the ones read here are ignored, and ``couplers`` may be
    left out.
    """
    doc = json_object(text)
    qubits = records(required(doc, "qubits", "$"), "qubits", ("id", "t1_us", "t2_us", "f1q"))
    couplers = records(doc.get("couplers", []), "couplers", ("a", "b", "f2q"))
    return ChipModel(qubits=tuple(Qubit(*row) for row in qubits),
                     couplers=tuple(Coupler(*row) for row in couplers))


def load_calibration(path) -> ChipModel:
    with open(path, encoding="utf-8") as f:
        return loads_calibration(f.read())


def _canonical(path: tuple[int, ...]) -> tuple[int, ...]:
    # Reversals describe the same chain; keep the lexicographically smaller end first.
    return path if path[0] <= path[-1] else tuple(reversed(path))


def path_fidelity(chip: ChipModel, path) -> float:
    adj = chip.adjacency()
    f = 1.0
    for a, b in zip(path, path[1:]):
        if b not in adj.get(a, ()):
            raise ValueError(f"({a},{b}) is not a coupler")
        f *= adj[a][b]
    return f


@dataclass(frozen=True, eq=False)
class SubchainLibrary:
    """Chain length -> fidelity-sorted candidate paths, up to ``max_len``.

    Immutable once built; :func:`refresh` returns a brand-new library so
    concurrent readers never observe partial state.
    """

    chip: ChipModel
    entries: dict[int, list[tuple[int, ...]]]
    max_len: int

    def fidelity(self, path) -> float:
        return path_fidelity(self.chip, path)


#: Chips up to this size keep every state, which makes each entry's head the
#: exact fidelity argmax; larger chips extend only each length's harvest.
EXACT_SEARCH_LIMIT = 12

#: Candidate paths kept per chain length.
BEAM_WIDTH = 64


def _collect(chip: ChipModel, max_len: int):
    """Best path per (vertex set, endpoint pair) state, grown one qubit per length.

    Keeping the best path per state dominates every simple path with the
    same support and ends, so on chips of at most :data:`EXACT_SEARCH_LIMIT`
    qubits the per-length argmax is exact; the state count is O(2^n n^2).
    Larger chips extend only the :data:`BEAM_WIDTH` states harvested per length.
    """
    adj = chip.adjacency()
    bit = {q.id: 1 << i for i, q in enumerate(chip.qubits)}
    # state key (mask, lo_end, hi_end) -> (fidelity, canonical path)
    frontier: dict[tuple[int, int, int], tuple[float, tuple[int, ...]]] = {}
    for c in chip.couplers:
        lo, hi = min(c.a, c.b), max(c.a, c.b)
        frontier[(bit[lo] | bit[hi], lo, hi)] = (c.f2q, (lo, hi))
    entries: dict[int, list[tuple[int, ...]]] = {}
    for k in range(2, max_len + 1):
        if k > 2:
            grown: dict[tuple[int, int, int], tuple[float, tuple[int, ...]]] = {}
            for (mask, lo, hi), (f, path) in frontier.items():
                for end in (lo, hi):
                    for nxt, fe in adj[end].items():
                        if mask & bit[nxt]:
                            continue
                        new_path = _canonical((nxt,) + path if end == lo else path + (nxt,))
                        key = (mask | bit[nxt], new_path[0], new_path[-1])
                        cand = (f * fe, new_path)
                        old = grown.get(key)
                        if old is None or (-cand[0], cand[1]) < (-old[0], old[1]):
                            grown[key] = cand
            frontier = grown
        ranked = sorted(frontier.items(), key=lambda kv: (-kv[1][0], kv[1][1]))[:BEAM_WIDTH]
        entries[k] = [path for _, (_, path) in ranked]
        if chip.n > EXACT_SEARCH_LIMIT:
            frontier = dict(ranked)
    return entries


def build_subchain_library(chip: ChipModel, max_len: int | None = None) -> SubchainLibrary:
    """Collect high-fidelity simple paths for every length in [2, max_len].

    One sweep grows the best path per vertex-set/endpoint state from every
    coupler, one qubit per length at either end, and stores the
    :data:`BEAM_WIDTH` best states per length, sorted by fidelity and then path.
    On chips of at most :data:`EXACT_SEARCH_LIMIT` qubits every state is
    extended, so the head of every entry is the true fidelity argmax; on
    larger chips only the stored states are, which scales but may miss the
    optimum.  Lengths the sweep cannot reach map to empty lists.  A
    ``max_len`` that is not an int (:func:`~quchain.validate.is_integer`;
    bools fail) raises :class:`ConfigError`, and a one-qubit chip holds no
    chain and raises :class:`CapacityError`.
    """
    if max_len is not None and not is_integer(max_len):
        raise ConfigError(f"max_len must be an int, got {max_len!r}")
    if chip.n < 2:
        raise CapacityError("the chip has 1 qubit; a chain needs at least 2")
    requested = chip.n if max_len is None else int(max_len)
    if requested > chip.n:
        raise ConfigError(f"max_len {requested} exceeds the {chip.n}-qubit chip")
    if requested < 2:
        raise ConfigError("max_len must be at least 2")
    return SubchainLibrary(chip=chip, entries=_collect(chip, requested), max_len=requested)


def select_subchain(lib: SubchainLibrary, k: int) -> tuple[int, ...]:
    """Best stored chain of exactly k qubits: the head of the length-k entry.

    Every stored length-(k+1) path grows from a stored length-k one, so a
    library holds an entry at every length up to its longest chain.
    """
    if k < 2:
        raise ValueError("subchain selection needs k >= 2")
    paths = lib.entries.get(k)
    if not paths:
        raise CapacityError(f"no stored chain offers {k} qubits")
    return paths[0]


def refresh(lib: SubchainLibrary, chip: ChipModel) -> SubchainLibrary:
    """Rebuild against fresh calibration data; returns a new immutable library."""
    return build_subchain_library(chip, max_len=min(lib.max_len, chip.n))
