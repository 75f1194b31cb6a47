"""Asynchronous sampling jobs over an append-only on-disk store.

Tasks move queued -> running -> completed | failed, one JSON record per line;
on reload the last line per id wins, so the log is diffable.  A crash in
the middle of an append leaves a torn final line without its newline:
readers skip it and the next writer cuts it off before appending.
The built-in backend samples exact simulator probabilities with a seeded
generator; a remote backend can be slotted in by implementing ``run``.

Bit convention: measured bit b maps to spin z = 1 - 2b (bit 0 is the +1
eigenstate of Pauli Z).  Count keys are bitstrings in logical order:
character l is classical bit l.
"""

from __future__ import annotations

import fcntl
import json
import queue
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


class TaskStore:
    """JSON-lines record log; one writer, any number of readers."""

    def __init__(self, path):
        self.path = path
        self._lock = threading.Lock()
        self._tail_checked = False

    def append(self, record: TaskRecord):
        with self._lock:
            with open(self.path, "a+b") as f:
                if not self._tail_checked:
                    _mend_tail(f)
                    self._tail_checked = True
                f.write((record.to_json() + "\n").encode("utf-8"))
                f.flush()

    def load(self) -> dict[str, TaskRecord]:
        records: dict[str, TaskRecord] = {}
        try:
            with open(self.path, encoding="utf-8") as f:
                for k, line in enumerate(f, start=1):
                    if line.isspace():
                        continue
                    try:
                        rec = TaskRecord.from_json(line)
                    except ParseError as exc:
                        if not line.endswith("\n"):
                            break  # torn final line: an append cut short by a crash
                        raise ParseError(str(exc), f"{self.path}, line {k}") from exc
                    records[rec.id] = rec
        except FileNotFoundError:
            pass
        return records


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


def _writer_lease(path):
    """The store file, opened and exclusively flock-ed; one writer at a time."""
    f = open(path, "ab")
    try:
        fcntl.flock(f, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        f.close()
        raise QuchainError(f"{path}: task store is held by another writer") from None
    return f


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
    """FIFO executor with persistent task records.

    Invalid circuits are rejected at submit time, before anything is
    enqueued.  A capacity or backend failure marks the task failed; the
    service keeps going.  On restart, terminal records are reloaded intact,
    interrupted running tasks are marked failed, and queued ones re-enqueued.
    A writer holds an exclusive ``flock`` on the store file from before it
    loads it until :meth:`close` has waited out the running task, so no other
    writer can see that task as interrupted; a second writer raises
    :class:`QuchainError` and read-only openers take no lock.
    """

    def __init__(self, store_path, backend=None, read_only: bool = False):
        self.store = TaskStore(store_path)
        self.backend = backend if backend is not None else LocalSampler()
        self.read_only = read_only
        self._lock = threading.Lock()
        self._worker = None
        self._lease = None if read_only else _writer_lease(store_path)
        try:
            self._records = self.store.load()
        except BaseException:
            self.close()
            raise
        self._done: dict[str, threading.Event] = {}
        self._queue: queue.Queue[str] = queue.Queue()
        if read_only:
            return
        for rec in list(self._records.values()):
            if rec.status == "running":
                self._transition(rec.id, "failed", error="interrupted by restart")
            elif rec.status == "queued":
                self._done[rec.id] = threading.Event()
                self._queue.put(rec.id)
        self._stop = threading.Event()
        self._worker = threading.Thread(target=self._loop, daemon=True)
        self._worker.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self._worker is not None:
            self._stop.set()
            self._worker.join()  # a task still inside backend.run keeps the lease
        if self._lease is not None:
            self._lease.close()
            self._lease = None

    def drain(self):
        """Block until every queued task reaches a terminal state."""
        with self._lock:
            pending = [r.id for r in self._records.values() if r.status in ("queued", "running")]
        for task_id in pending:
            self.wait(task_id)

    def _transition(self, task_id: str, status: str, counts=None, error=None):
        with self._lock:
            rec = self._records[task_id]
            if status not in _TRANSITIONS[rec.status]:
                raise ValueError(f"illegal transition {rec.status} -> {status}")
            rec = replace(
                rec, status=status, counts=counts, error=error, updated_at=time.time()
            )
            self._records[task_id] = rec
            self.store.append(rec)

    def _loop(self):
        while not self._stop.is_set():
            try:
                task_id = self._queue.get(timeout=0.05)
            except queue.Empty:
                continue
            rec = self._records[task_id]
            self._transition(task_id, "running")
            try:
                counts = self.backend.run(rec.qasm, rec.shots, rec.seed)
                total = sum(counts.values())
                if total != rec.shots:
                    raise ValueError(f"backend returned {total} counts for {rec.shots} shots")
                self._transition(task_id, "completed", counts=counts)
            except Exception as exc:  # failure terminates the task, not the service
                self._transition(task_id, "failed", error=str(exc))
            self._done[task_id].set()

    def submit(self, circuit, shots: int, name: str = "", wait: bool = False, seed=None):
        """Enqueue a sampling job; returns the task id, or the terminal record
        when ``wait`` is set."""
        if self.read_only:
            raise ValueError("service opened read-only")
        if shots < 1:
            raise ValueError(f"shots must be positive, got {shots}")
        if isinstance(circuit, PhysicalCircuit):
            qasm_text = emit(circuit)
        else:
            qasm_text = str(circuit)
        parse(qasm_text)  # reject invalid circuits before enqueueing
        task_id = secrets.token_hex(16)
        rec = TaskRecord(
            id=task_id,
            name=name,
            qasm=qasm_text,
            shots=int(shots),
            status="queued",
            seed=seed,
            created_at=time.time(),
            updated_at=time.time(),
        )
        with self._lock:
            self._records[task_id] = rec
            self._done[task_id] = threading.Event()
            self.store.append(rec)
        self._queue.put(task_id)
        if wait:
            self._done[task_id].wait()
            return self.record(task_id)
        return task_id

    def record(self, task_id: str) -> TaskRecord:
        with self._lock:
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
        rec = self.record(task_id)
        if rec.status in ("completed", "failed"):
            return rec
        event = self._done.get(task_id)
        if event is not None:
            event.wait(timeout)
        return self.record(task_id)


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
