"""Chip calibration ingestion and fidelity-aware subchain selection.

A subchain is a simple path in the chip's coupling graph; its overall
fidelity is the product of the two-qubit gate fidelities along it.  The
library maps chain length to candidate paths sorted by that product.  One
search builds it: a sweep that keeps the best path per (vertex set, endpoint
pair) state, exhaustive on small chips and cut to the best states per length
on large ones, rerun from scratch on every calibration refresh.
Single-qubit fidelity and T1/T2 are parsed and validated but enter neither
the ranking nor any output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, ConfigError, ParseError
from .validate import integer, json_object, real, required


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


@dataclass(frozen=True, eq=False)
class ChipModel:
    qubits: tuple[Qubit, ...]
    couplers: tuple[Coupler, ...]

    def __post_init__(self):
        ids = [q.id for q in self.qubits]
        if len(set(ids)) != len(ids):
            raise ParseError("duplicate qubit id", "qubits")
        known = set(ids)
        seen = set()
        for k, c in enumerate(self.couplers):
            where = f"couplers[{k}]"
            if c.a not in known:
                raise ParseError(f"endpoint {c.a} is not a declared qubit", where + ".a")
            if c.b not in known:
                raise ParseError(f"endpoint {c.b} is not a declared qubit", where + ".b")
            if c.a == c.b:
                raise ParseError("coupler endpoints must differ", where)
            key = (min(c.a, c.b), max(c.a, c.b))
            if key in seen:
                raise ParseError(f"duplicate coupler {key}", where)
            seen.add(key)

    @property
    def n(self) -> int:
        return len(self.qubits)

    def adjacency(self) -> dict[int, dict[int, float]]:
        adj: dict[int, dict[int, float]] = {q.id: {} for q in self.qubits}
        for c in self.couplers:
            adj[c.a][c.b] = c.f2q
            adj[c.b][c.a] = c.f2q
        return adj


def _fidelity(value, where: str) -> float:
    f = real(value, where)
    if not 0.0 <= f <= 1.0:
        raise ParseError(f"fidelity {f} outside [0, 1]", where)
    return f


def loads_calibration(text: str) -> ChipModel:
    """Parse a calibration document; errors carry the offending field path.

    Fields beyond the ones read here are ignored.
    """
    doc = json_object(text)
    qubits = []
    raw_qubits = required(doc, "qubits", "$")
    if not isinstance(raw_qubits, list) or not raw_qubits:
        raise ParseError("qubits must be a non-empty list", "qubits")
    for k, row in enumerate(raw_qubits):
        where = f"qubits[{k}]"
        if not isinstance(row, dict):
            raise ParseError("qubit entry must be an object", where)
        qubits.append(
            Qubit(
                id=integer(required(row, "id", where), where + ".id"),
                t1_us=real(required(row, "t1_us", where), where + ".t1_us"),
                t2_us=real(required(row, "t2_us", where), where + ".t2_us"),
                f1q=_fidelity(required(row, "f1q", where), where + ".f1q"),
            )
        )
    raw_couplers = doc.get("couplers", [])
    if not isinstance(raw_couplers, list):
        raise ParseError("couplers must be a list", "couplers")
    couplers = []
    for k, row in enumerate(raw_couplers):
        where = f"couplers[{k}]"
        if not isinstance(row, dict):
            raise ParseError("coupler entry must be an object", where)
        couplers.append(
            Coupler(
                a=integer(required(row, "a", where), where + ".a"),
                b=integer(required(row, "b", where), where + ".b"),
                f2q=_fidelity(required(row, "f2q", where), where + ".f2q"),
            )
        )
    return ChipModel(qubits=tuple(qubits), couplers=tuple(couplers))


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
        if b not in adj[a]:
            raise ValueError(f"({a},{b}) is not a coupler")
        f *= adj[a][b]
    return f


@dataclass(frozen=True, eq=False)
class SubchainLibrary:
    """Chain length -> fidelity-sorted candidate paths, plus build settings.

    Immutable once built; :func:`refresh` returns a brand-new library so
    concurrent readers never observe partial state.
    """

    chip: ChipModel
    entries: dict[int, list[tuple[int, ...]]]
    max_len: int
    beam_width: int

    def fidelity(self, path) -> float:
        return path_fidelity(self.chip, path)


#: Chips up to this size keep every state, which makes each entry's head the
#: exact fidelity argmax; larger chips extend only each length's harvest.
EXACT_SEARCH_LIMIT = 12

#: Candidate paths kept per chain length.
DEFAULT_BEAM_WIDTH = 64


def _collect(chip: ChipModel, max_len: int, beam_width: int):
    """Best path per (vertex set, endpoint pair) state, grown one qubit per length.

    Keeping the best path per state dominates every simple path with the
    same support and ends, so on chips of at most :data:`EXACT_SEARCH_LIMIT`
    qubits the per-length argmax is exact; the state count is O(2^n n^2).
    Larger chips extend only the ``beam_width`` states harvested per length.
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
        ranked = sorted(frontier.items(), key=lambda kv: (-kv[1][0], kv[1][1]))[:beam_width]
        entries[k] = [path for _, (_, path) in ranked]
        if chip.n > EXACT_SEARCH_LIMIT:
            frontier = dict(ranked)
    return entries


def build_subchain_library(
    chip: ChipModel,
    max_len: int | None = None,
    beam_width: int = DEFAULT_BEAM_WIDTH,
) -> SubchainLibrary:
    """Collect high-fidelity simple paths for every length in [2, max_len].

    One sweep grows the best path per vertex-set/endpoint state from every
    coupler, one qubit per length at either end, and stores the
    ``beam_width`` best states per length, sorted by fidelity and then path.
    On chips of at most :data:`EXACT_SEARCH_LIMIT` qubits every state is
    extended, so the head of every entry is the true fidelity argmax; on
    larger chips only the stored states are, which scales but may miss the
    optimum.  Lengths the sweep cannot reach map to empty lists.
    """
    requested = chip.n if max_len is None else max_len
    if requested > chip.n:
        raise ConfigError(f"max_len {requested} exceeds the {chip.n}-qubit chip")
    if requested < 2:
        raise ConfigError("max_len must be at least 2")
    if beam_width < 1:
        raise ConfigError(f"beam_width must be at least 1, got {beam_width}")
    return SubchainLibrary(
        chip=chip,
        entries=_collect(chip, requested, beam_width),
        max_len=requested,
        beam_width=beam_width,
    )


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
    return build_subchain_library(
        chip, max_len=min(lib.max_len, chip.n), beam_width=lib.beam_width
    )
