"""Asynchronous sampling jobs over an append-only on-disk store.

Tasks move queued -> running -> completed | failed, one JSON line per state,
so the log is diffable.  The queued line holds the whole record; each later
line holds only the id, the status, both timestamps and the counts or error.
On reload lines merge per id in order; QASM is written once.  A full line from
an older store merges the same way.  A ``completed`` line holds its counts as
one packed string of ``bitstring:count`` pairs in key order, ``"00:3,01:12"``;
a reader checks each string with one regular expression on load and decodes
it only when the counts are asked for, so a read that returns one task's
counts does not build every task's.  A line from an older store holds them as
a JSON object, which loads as well.  One reader parses the lines for readers
and writers.  One writer at a time holds the store: it ``flock``-s the file
once, reads the records through that handle and appends every record through
it.  A crash mid-append leaves a torn final line without its newline: readers
skip it, and the next writer cuts it off after a clean read.  Any other bad
line, a non-UTF-8 byte or a later line for an id with no earlier one included,
is a located ``ParseError``; a writer that refuses a store writes nothing to
it.  A job is submitted as QASM text, the form the store keeps and a backend
runs; a compiled circuit goes through ``qasm.emit`` first.  The built-in
backend samples exact simulator probabilities with a seeded generator; a
remote backend can be slotted in by implementing ``run``.  Sampled counts
are ranked by :func:`process_results`, which scores them through the
weight graph.

Bit convention: measured bit b maps to spin z = 1 - 2b (bit 0 is the +1
eigenstate of Pauli Z).  Count keys are bitstrings in logical order:
character l is classical bit l.
"""

from __future__ import annotations

import collections
import fcntl
import json
import os
import re
import secrets
import threading
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ParseError, QuchainError, ResultUnavailableError, TaskNotFoundError
from .graph import WeightGraph
from .qasm import parse
from .simulator import sample_outcomes, simulate_levels
from .validate import as_index, is_integer, is_real

_TRANSITIONS = {
    "queued": {"running"},
    "running": {"completed", "failed"},
    "completed": set(),
    "failed": set(),
}


_COUNT = "(?:0|[1-9][0-9]*)"
# Packed counts: "" or "bits:count" pairs joined by commas, each bitstring
# non-empty and of 0s and 1s, each count a JSON integer of at least 0.
_PACKED = re.compile(f"(?:[01]+:{_COUNT}(?:,[01]+:{_COUNT})*)?")
_BAD_COUNTS = "counts must map bitstrings of 0s and 1s to non-negative ints"


def _pack_counts(counts) -> str | None:
    """``counts`` as its packed string: None stays None, a dict is packed in
    key order, and a packed string is kept as it is.  Raise ValueError unless
    every key is a non-empty string of 0s and 1s and every value an int of at
    least 0.

    A stored string is checked by one regular-expression match, because every
    read checks every completed record.  A dict is checked before it is
    packed, since packing drops the quotes round a str value and would write
    an int key as if it were quoted; a bool value packs as ``true`` and fails
    the match.
    """
    if isinstance(counts, dict):
        if not (all(isinstance(k, str) for k in counts)
                and all(isinstance(v, int) for v in counts.values())):
            raise ValueError(_BAD_COUNTS)
        counts = json.dumps(counts, sort_keys=True, separators=(",", ":"))[1:-1].replace('"', "")
    if not (counts is None or (isinstance(counts, str) and _PACKED.fullmatch(counts))):
        raise ValueError(_BAD_COUNTS)
    return counts


def _unpack_counts(packed: str, task_id: str) -> dict[str, int]:
    """The dict that checked ``packed`` holds, built by ``json.loads``.  A
    bitstring that occurs twice, or a count past ``int``'s digit limit,
    raises ``ParseError`` naming the task."""
    if not packed:
        return {}
    try:
        counts = json.loads('{"' + packed.replace(":", '":').replace(",", ',"') + "}")
    except ValueError as exc:
        raise ParseError(f"task {task_id!r}: malformed counts: {exc}") from None
    if len(counts) != packed.count(",") + 1:
        raise ParseError(f"task {task_id!r}: a bitstring occurs twice in its counts")
    return counts


class _PackedCounts:
    """The ``counts`` field of :class:`TaskRecord`: set from a dict or a packed
    string, checked either way and kept packed in ``_packed``; each read
    decodes a new dict.  Records compare by their decoded counts."""

    def __get__(self, rec, owner=None):
        if rec is None:
            return None  # the field's default
        return None if rec._packed is None else _unpack_counts(rec._packed, rec.id)

    def __set__(self, rec, counts):
        rec._packed = _pack_counts(counts)


@dataclass
class TaskRecord:
    id: str
    name: str
    qasm: str
    shots: int
    status: str
    seed: int | None = None
    counts: dict[str, int] | None = _PackedCounts()  # kept packed, read decoded
    error: str | None = None
    created_at: float = 0.0
    updated_at: float = 0.0

    def __post_init__(self):
        """Reject a field outside its type or range, naming the field."""
        if self.status not in _TRANSITIONS:
            raise ValueError(f"status must be one of {sorted(_TRANSITIONS)}, got {self.status!r}")
        if not (isinstance(self.id, str) and isinstance(self.name, str) and isinstance(self.qasm, str)):
            raise ValueError("id, name and qasm must be str")
        if not is_integer(self.shots) or self.shots < 1:
            raise ValueError(f"shots must be an int of at least 1, got {self.shots!r}")
        if self.seed is not None and not is_integer(self.seed):
            raise ValueError(f"seed must be an int or None, got {self.seed!r}")
        if self.error is not None and not isinstance(self.error, str):
            raise ValueError(f"error must be a str or None, got {type(self.error).__name__}")
        if not (is_real(self.created_at) and is_real(self.updated_at)):
            raise ValueError(
                f"created_at and updated_at must be finite reals, got "
                f"{self.created_at!r} and {self.updated_at!r}"
            )

    def to_json(self) -> str:
        """The whole record as one JSON object, its counts packed."""
        fields = dict(vars(self))  # holds the packed counts as "_packed"
        fields["counts"] = fields.pop("_packed")
        return json.dumps(fields, sort_keys=True)

    def log_line(self) -> str:
        """The store line for this state: the whole record when queued, else
        the fields a transition sets.  ``created_at`` rides on every line so
        a line can be timed without its queued line."""
        if self.status == "queued":
            return self.to_json()
        fields = {"id": self.id, "status": self.status,
                  "created_at": self.created_at, "updated_at": self.updated_at}
        if self._packed is not None:
            fields["counts"] = self._packed
        if self.error is not None:
            fields["error"] = self.error
        return json.dumps(fields, sort_keys=True)

    @classmethod
    def from_json(cls, line: str | bytes, earlier: dict | None = None) -> "TaskRecord":
        """The record ``line`` leaves for its id: its fields merged onto the
        id's record in ``earlier`` (records by id), or a whole record when
        ``earlier`` has none.  A line that is neither is a ``ParseError``."""
        try:
            fields = json.loads(line)
            if not isinstance(fields, dict):
                raise ValueError("a task record must be a JSON object")
            prev = earlier.get(fields.get("id")) if earlier else None
            if prev is not None:
                return replace(prev, **fields)
            if "qasm" not in fields:
                raise ValueError(f"no earlier record for task {fields.get('id')!r}")
            return cls(**fields)
        except (ValueError, TypeError, RecursionError) as exc:
            raise ParseError(f"malformed task record: {exc}") from exc


def _moved(rec: TaskRecord, status: str, counts=None, error=None) -> TaskRecord:
    """``rec`` moved on to ``status``, a new record checked as any record is;
    an illegal transition or malformed counts raise ``ValueError``."""
    if status not in _TRANSITIONS[rec.status]:
        raise ValueError(f"illegal transition {rec.status} -> {status}")
    return replace(rec, status=status, counts=counts, error=error, updated_at=time.time())


def _read_log(f, path) -> tuple[dict[str, TaskRecord], int | None]:
    """The record per id in the store open at ``f`` (binary, at its start),
    each id's lines merged in order, and the offset of a torn final line, or
    None: a final line without its newline that is not a record, blank
    included.  A blank line is skipped; any other bad line, a transition for
    an id with no earlier line included, raises a ``ParseError`` naming
    ``path`` and the line."""
    records: dict[str, TaskRecord] = {}
    for k, line in enumerate(f, start=1):
        whole = line.endswith(b"\n")
        if whole and line.isspace():
            continue
        try:
            rec = TaskRecord.from_json(line, records)
        except ParseError as exc:
            if not whole:
                return records, f.tell() - len(line)
            raise ParseError(str(exc), f"{path}, line {k}") from exc
        records[rec.id] = rec
    return records, None


def _open_log(path):
    """The store file opened "a+b" and exclusively flock-ed (the writer's lease
    and the only handle records reach it by), and the records read through it.
    Only a clean read lets it cut a torn tail or end a final record with its
    newline; a store it refuses is left as it was."""
    f = open(path, "a+b")
    try:
        fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        f.seek(0)
        records, torn = _read_log(f, path)
        end = f.tell()
        if torn is not None:
            f.truncate(torn)
        elif end and os.pread(f.fileno(), 1, end - 1) != b"\n":
            f.write(b"\n")
    except BlockingIOError:
        f.close()
        raise QuchainError(f"{path}: task store is held by another writer") from None
    except BaseException:
        f.close()
        raise
    return f, records


def _load_log(path) -> dict[str, TaskRecord]:
    """A reader's records, read without the lock; a missing store has none."""
    try:
        # A 1000-shot record's line runs to ~25 KB; reading such a store
        # through 8 KiB buffers took ~5% longer than through 64 KiB.
        with open(path, "rb", buffering=1 << 16) as f:
            return _read_log(f, path)[0]
    except FileNotFoundError:
        return {}


def _queued(qasm, shots, name, seed) -> TaskRecord:
    """A new queued record, after the checks ``TaskService.submit`` makes:
    the record's fields, a ``seed`` of at least 0, then a parse of ``qasm``.
    A stored record may hold a negative seed; only a new one is refused."""
    now = time.time()
    rec = TaskRecord(id=secrets.token_hex(16), name=name, qasm=qasm, shots=shots,
                     status="queued", seed=seed, created_at=now, updated_at=now)
    if seed is not None and as_index(seed) is None:
        raise ValueError(f"seed must be at least 0, got {seed}")
    parse(qasm)  # reject invalid circuits before enqueueing
    return rec


class LocalSampler:
    """Samples the exact output distribution of a parsed QASM circuit.

    Only the qubits that carry gates or measurements are simulated, straight
    from the parsed circuit's arrays by :func:`~quchain.simulator.simulate_levels`;
    no ``Gate`` and no second circuit is built.  The sampled basis states are
    decoded through the measure map in whole-array steps, so the returned
    bitstrings are already in logical order.  States that differ only on
    unmeasured qubits share a key, which keeps the place of the lowest of
    them.  Deterministic for a fixed seed.
    """

    def run(self, qasm_text: str, shots: int, seed=None) -> dict[str, int]:
        pc = parse(qasm_text)
        used = np.unique(np.concatenate((pc.a, pc.b, pc.final_layout)))
        index = used.searchsorted  # wire -> simulated qubit
        state = simulate_levels(len(used), pc.kind, index(pc.a), index(pc.b), pc.angle)
        basis, counts = sample_outcomes(state, shots, seed)
        layout = index(pc.final_layout)  # classical bit -> simulated qubit
        measured = basis & np.bitwise_or.reduce(1 << layout)  # unmeasured qubits cleared
        kept, first, group = np.unique(measured, return_index=True, return_inverse=True)
        order = np.argsort(first)  # each key where its lowest basis state was
        totals = np.bincount(group, weights=counts).astype(np.int64)[order]
        chars = ((kept[order, None] >> layout) & 1).astype(np.uint8) + ord("0")
        keys = chars.view(f"S{len(layout)}")[:, 0].astype(str)
        return dict(zip(keys.tolist(), totals.tolist()))


class TaskService:
    """FIFO executor with persistent task records, run on one condition that
    guards the records, the pending ids and the stopping flag.

    Invalid circuits and record fields are rejected before anything is
    written.  A capacity or backend failure, or counts that are not a map of
    bitstrings to non-negative ints, marks the task failed; the service
    keeps going.  On restart, terminal records are reloaded intact,
    interrupted running tasks are marked failed, and queued ones re-enqueued.
    A writer appends only through the store handle it ``flock``-ed before
    loading, held until :meth:`close` has waited out the running task, so no
    other writer sees that task as interrupted.  A second writer, and
    ``submit`` on a closed or read-only service, raise :class:`QuchainError`.

    The worker is a daemon thread, not a ``ThreadPoolExecutor``.  Executor
    workers are joined at interpreter exit, so a process that exits without
    :meth:`close` would first run every queued job (four queued 0.3 s jobs
    held a bare executor's exit for 1.3 s).  The daemon worker stops with the
    process and leaves those jobs ``queued`` for the next writer to re-enqueue.
    """

    def __init__(self, store_path, backend=None, read_only: bool = False):
        self.store_path = store_path
        self.backend = backend if backend is not None else LocalSampler()
        self.read_only = read_only
        self._cond = threading.Condition()
        self._pending: collections.deque[str] = collections.deque()
        self._stopping = False
        self._worker = None
        if read_only:
            self._log, self._records = None, _load_log(store_path)
            return
        self._log, self._records = _open_log(store_path)
        with self._cond:
            for rec in list(self._records.values()):
                if rec.status == "running":
                    self._append(_moved(rec, "failed", error="interrupted by restart"))
                elif rec.status == "queued":
                    self._pending.append(rec.id)
        self._worker = threading.Thread(target=self._loop, daemon=True)
        self._worker.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if self._worker is not None:
            self._worker.join()  # a task still inside backend.run keeps the lease
        if self._log is not None:
            self._log.close()
            self._log = None

    def _settled(self, rec: TaskRecord) -> bool:
        """Not to be moved on here: read-only, or neither running nor queued
        before close."""
        live = ("running",) if self._stopping else ("queued", "running")
        return self.read_only or rec.status not in live

    def drain(self):
        """Block until every task queued or running now is settled."""
        with self._cond:
            pending = [r.id for r in self._records.values() if not self._settled(r)]
            self._cond.wait_for(lambda: all(self._settled(self._records[i]) for i in pending))

    def _append(self, rec: TaskRecord) -> None:
        """Write ``rec`` through the writer's handle; the caller holds the condition.

        Once ``close`` has begun only the running task's records are taken."""
        if self._log is None or (self._stopping and rec.status == "queued"):
            raise QuchainError(f"{self.store_path}: task store is not open for writing")
        self._log.write((rec.log_line() + "\n").encode("utf-8"))
        self._log.flush()
        self._records[rec.id] = rec
        self._cond.notify_all()

    def _loop(self):
        while True:
            with self._cond:
                self._cond.wait_for(lambda: self._pending or self._stopping)
                if self._stopping:
                    return
                rec = _moved(self._records[self._pending.popleft()], "running")
                self._append(rec)
            try:
                counts = self.backend.run(rec.qasm, rec.shots, rec.seed)
                done = _moved(rec, "completed", counts=counts)  # the record checks the counts
                total = sum(counts.values())
                if total != rec.shots:
                    raise ValueError(f"backend returned {total} counts for {rec.shots} shots")
            except Exception as exc:  # failure terminates the task, not the service
                done = _moved(rec, "failed", error=str(exc))
            with self._cond:
                self._append(done)

    def submit(self, qasm: str, shots: int, name: str = "", wait: bool = False, seed=None):
        """Enqueue a sampling job for the QASM text ``qasm``; returns the task
        id, or the terminal record when ``wait`` is set.  ``qasm`` must be a
        str that parses, ``shots`` a positive int, ``name`` a str and ``seed``
        an int or None; otherwise ``ValueError`` or ``ParseError``, nothing
        written."""
        return self._enqueue(_queued(qasm, shots, name, seed), wait)

    def _enqueue(self, rec: TaskRecord, wait: bool):
        """Append and queue the record :func:`_queued` built."""
        with self._cond:
            self._append(rec)
            self._pending.append(rec.id)
        return self.wait(rec.id) if wait else rec.id

    def record(self, task_id: str) -> TaskRecord:
        with self._cond:
            if task_id not in self._records:
                raise TaskNotFoundError(f"unknown task id {task_id!r}")
            return self._records[task_id]

    def status(self, task_id: str) -> str:
        return self.record(task_id).status

    def result(self, task_id: str) -> dict[str, int]:
        rec = self.record(task_id)
        if rec.status == "completed":
            return rec.counts  # decoded now, a new dict
        if rec.status == "failed":
            raise ResultUnavailableError(
                f"task failed: {rec.error}", status=rec.status
            )
        raise ResultUnavailableError(
            f"task is {rec.status}, result not ready", status=rec.status
        )

    def wait(self, task_id: str, timeout: float | None = None) -> TaskRecord:
        """The task's record once it is settled, or after ``timeout`` seconds."""
        with self._cond:
            self.record(task_id)
            self._cond.wait_for(lambda: self._settled(self._records[task_id]), timeout)
            return self._records[task_id]


class SolutionRow(NamedTuple):
    bitstring: str
    count: int
    energy: float
    objective: float


@dataclass
class RankedSolutions:
    """Sampled bitstrings scored and sorted ascending by Hamiltonian energy."""

    rows: list[SolutionRow]
    top: int

    @property
    def solutions(self) -> list[SolutionRow]:
        return self.rows[: self.top]


def process_results(
    counts: dict[str, int], g: WeightGraph, top: int = 2, sense: str = "min"
) -> RankedSolutions:
    """Score every sampled bitstring by C(z) with z = 1 - 2*bit, all at once.

    The keys are decoded once into an (m, n) array of spins, which
    :meth:`WeightGraph.energies` scores; :meth:`WeightGraph.objective` turns
    each energy back into the original problem's value and checks ``sense``.
    Rows are sorted stably by (energy, -count); the first ``top`` rows are
    flagged as solutions.  A key that is not a str of ``g.n`` characters of
    0 and 1, then a count that is not an int in [0, 2**63) (a float, a str,
    a negative int), raises ``ValueError`` naming the bitstring, before a bad
    ``sense`` does.
    """
    if top < 1:
        raise ValueError(f"top must be at least 1, got {top}")
    keys = list(counts)
    for key in keys:
        if not isinstance(key, str):
            raise ValueError(f"bitstring {key!r} is not a str")
        if len(key) != g.n:
            raise ValueError(f"bitstring {key!r} does not cover {g.n} qubits")
    # Each non-ASCII character becomes one b"?", so every key keeps n bytes.
    raw = "".join(keys).encode("ascii", "replace")
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(len(keys), g.n) - ord("0")
    bad = (bits > 1).any(axis=1)
    if bad.any():
        raise ValueError(f"bitstring {keys[int(bad.argmax())]!r} is not made of 0s and 1s")
    hits = np.asarray(list(counts.values()) or np.zeros(0, np.int64))
    if hits.dtype.kind != "i" or (hits < 0).any():
        # The first count that is no index, or else the largest: every one is
        # an int, and one is past int64.
        key = ([k for k in keys if as_index(counts[k]) is None] or [max(keys, key=counts.get)])[0]
        raise ValueError(f"count of bitstring {key!r} must be an int in [0, 2**63), "
                         f"got {counts[key]!r}")
    energy = g.energies(1.0 - 2.0 * bits)
    objective = g.objective(energy, sense)
    order = np.lexsort((-hits, energy))
    rows = list(map(SolutionRow._make, zip(
        map(keys.__getitem__, order.tolist()), hits[order].tolist(),
        energy[order].tolist(), objective[order].tolist(),
    )))
    return RankedSolutions(rows=rows, top=top)
