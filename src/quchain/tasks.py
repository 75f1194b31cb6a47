"""Asynchronous sampling jobs over an append-only on-disk store.

Tasks move queued -> running -> completed | failed, one JSON record per line;
on reload the last line per id wins, so the log is diffable.  One writer
at a time holds the store: it opens and ``flock``-s the file once, and every
record it appends goes through that handle.  A crash in the middle of an
append leaves a torn final line without its newline: readers skip it and the
next writer cuts it off when it takes the store.
The built-in backend samples exact simulator probabilities with a seeded
generator; a remote backend can be slotted in by implementing ``run``.

Bit convention: measured bit b maps to spin z = 1 - 2b (bit 0 is the +1
eigenstate of Pauli Z).  Count keys are bitstrings in logical order:
character l is classical bit l.
"""

from __future__ import annotations

import collections
import fcntl
import json
import secrets
import threading
import time
from dataclasses import asdict, dataclass, replace

from .circuits import Gate
from .compiler import PhysicalCircuit
from .errors import ParseError, QuchainError, ResultUnavailableError, TaskNotFoundError
from .graph import WeightGraph
from .qasm import emit, parse
from .simulator import sample_counts, simulate_gates

_TRANSITIONS = {
    "queued": {"running"},
    "running": {"completed", "failed"},
    "completed": set(),
    "failed": set(),
}


@dataclass
class TaskRecord:
    id: str
    name: str
    qasm: str
    shots: int
    status: str
    seed: int | None = None
    counts: dict[str, int] | None = None
    error: str | None = None
    created_at: float = 0.0
    updated_at: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TaskRecord":
        try:
            return cls(**json.loads(line))
        except (json.JSONDecodeError, TypeError) as exc:
            raise ParseError(f"malformed task record: {exc}") from exc


def _mend_tail(f) -> None:
    """Make the file at ``f`` (opened "a+b") end with a newline.

    A final line without one is cut off when it does not parse as a record,
    and terminated when it does.
    """
    end = f.seek(0, 2)
    if end == 0:
        return
    f.seek(end - 1)
    if f.read(1) == b"\n":
        return
    f.seek(0)
    data = f.read()
    start = data.rfind(b"\n") + 1
    try:
        TaskRecord.from_json(data[start:].decode("utf-8"))
    except (ParseError, UnicodeDecodeError):
        f.truncate(start)
    else:
        f.write(b"\n")


def _open_log(path):
    """The store file opened "a+b", exclusively flock-ed and with its tail
    mended: the writer's lease and the only handle records reach it by."""
    f = open(path, "a+b")
    try:
        fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
        _mend_tail(f)
    except BlockingIOError:
        f.close()
        raise QuchainError(f"{path}: task store is held by another writer") from None
    except BaseException:
        f.close()
        raise
    return f


def _load_log(path) -> dict[str, TaskRecord]:
    """The last record per id; a torn final line is skipped."""
    records: dict[str, TaskRecord] = {}
    try:
        with open(path, encoding="utf-8") as f:
            for k, line in enumerate(f, start=1):
                if line.isspace():
                    continue
                try:
                    rec = TaskRecord.from_json(line)
                except ParseError as exc:
                    if not line.endswith("\n"):
                        break  # torn final line: an append cut short by a crash
                    raise ParseError(str(exc), f"{path}, line {k}") from exc
                records[rec.id] = rec
    except FileNotFoundError:
        pass
    return records


class LocalSampler:
    """Samples the exact output distribution of a parsed QASM circuit.

    Only the qubits that carry gates or measurements are simulated; sampled
    basis states are decoded through the measure map so returned bitstrings
    are already in logical order.  Deterministic for a fixed seed.
    """

    def run(self, qasm_text: str, shots: int, seed=None) -> dict[str, int]:
        pc = parse(qasm_text)
        used = sorted(
            {q for g in pc.gates() for q in g.qubits} | set(pc.final_layout)
        )
        index = {q: i for i, q in enumerate(used)}
        gates = [
            Gate(g.kind, tuple(index[q] for q in g.qubits), g.angle)
            for g in pc.gates()
        ]
        state = simulate_gates(len(used), gates)
        counts: dict[str, int] = {}
        for basis, c in sample_counts(state, shots, seed).items():
            bits = "".join(
                str((basis >> index[phys]) & 1) for phys in pc.final_layout
            )
            counts[bits] = counts.get(bits, 0) + c
        return counts


class TaskService:
    """FIFO executor with persistent task records, run on one condition that
    guards the records, the pending ids and the stopping flag.

    Invalid circuits and shot counts are rejected before anything is
    written.  A capacity or backend failure marks the task failed; the
    service keeps going.  On restart, terminal records are reloaded intact,
    interrupted running tasks are marked failed, and queued ones re-enqueued.
    A writer appends only through the store handle it ``flock``-ed before
    loading, held until :meth:`close` has waited out the running task, so no
    other writer sees that task as interrupted.  A second writer, and
    ``submit`` on a closed or read-only service, raise :class:`QuchainError`.
    """

    def __init__(self, store_path, backend=None, read_only: bool = False):
        self.store_path = store_path
        self.backend = backend if backend is not None else LocalSampler()
        self.read_only = read_only
        self._cond = threading.Condition()
        self._pending: collections.deque[str] = collections.deque()
        self._stopping = False
        self._worker = None
        self._log = None if read_only else _open_log(store_path)
        try:
            self._records = _load_log(store_path)
        except BaseException:
            self.close()
            raise
        if read_only:
            return
        with self._cond:
            for rec in list(self._records.values()):
                if rec.status == "running":
                    self._transition(rec.id, "failed", error="interrupted by restart")
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
        self._log.write((rec.to_json() + "\n").encode("utf-8"))
        self._log.flush()
        self._records[rec.id] = rec
        self._cond.notify_all()

    def _transition(self, task_id: str, status: str, counts=None, error=None):
        rec = self._records[task_id]
        if status not in _TRANSITIONS[rec.status]:
            raise ValueError(f"illegal transition {rec.status} -> {status}")
        self._append(
            replace(rec, status=status, counts=counts, error=error, updated_at=time.time())
        )

    def _loop(self):
        while True:
            with self._cond:
                self._cond.wait_for(lambda: self._pending or self._stopping)
                if self._stopping:
                    return
                rec = self._records[self._pending.popleft()]
                self._transition(rec.id, "running")
            try:
                counts = self.backend.run(rec.qasm, rec.shots, rec.seed)
                total = sum(counts.values())
                if total != rec.shots:
                    raise ValueError(f"backend returned {total} counts for {rec.shots} shots")
                done = dict(status="completed", counts=counts)
            except Exception as exc:  # failure terminates the task, not the service
                done = dict(status="failed", error=str(exc))
            with self._cond:
                self._transition(rec.id, **done)

    def submit(self, circuit, shots: int, name: str = "", wait: bool = False, seed=None):
        """Enqueue a sampling job; returns the task id, or the terminal record
        when ``wait`` is set."""
        if isinstance(shots, bool) or not isinstance(shots, int):
            raise ValueError(f"shots must be an int, got {shots!r}")
        if shots < 1:
            raise ValueError(f"shots must be positive, got {shots}")
        qasm_text = emit(circuit) if isinstance(circuit, PhysicalCircuit) else str(circuit)
        parse(qasm_text)  # reject invalid circuits before enqueueing
        now = time.time()
        rec = TaskRecord(id=secrets.token_hex(16), name=name, qasm=qasm_text, shots=shots,
                         status="queued", seed=seed, created_at=now, updated_at=now)
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
            return dict(rec.counts)
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


@dataclass(frozen=True)
class SolutionRow:
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
    """Score each sampled bitstring by C(z) with z = 1 - 2*bit.

    ``objective`` restores the original problem value: energy plus the
    graph's offset, re-negated for maximization problems.  Rows are sorted by
    (energy, -count); the first ``top`` rows are flagged as solutions.
    """
    if top < 1:
        raise ValueError(f"top must be at least 1, got {top}")
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    rows = []
    for bits, count in counts.items():
        if len(bits) != g.n:
            raise ValueError(f"bitstring {bits!r} does not cover {g.n} qubits")
        z = [1 - 2 * int(b) for b in bits]
        energy = g.energy(z)
        objective = energy + g.offset
        if sense == "max":
            objective = -objective
        rows.append(SolutionRow(bits, int(count), energy, objective))
    rows.sort(key=lambda r: (r.energy, -r.count))
    return RankedSolutions(rows=rows, top=top)
