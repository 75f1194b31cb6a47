"""Task lifecycle, persistence, local sampling and result ranking."""

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from quchain import (
    Gate,
    LocalSampler,
    ParseError,
    QaoaParams,
    QuchainError,
    ResultUnavailableError,
    TaskNotFoundError,
    TaskService,
    build_qaoa_circuit,
    compile_graph,
    emit,
    optimize,
    parse,
    process_results,
    simulate,
    simulate_gates,
)

from quchain.simulator import sample_outcomes

from conftest import random_graph, random_qaoa_params
from oracles import row_energies


@pytest.fixture
def store(tmp_path):
    return tmp_path / "tasks.jsonl"


def single_qubit_plus_qasm() -> str:
    return (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
        "h q[0];\nmeasure q[0] -> c[0];\n"
    )


class TestLifecycle:
    def test_submit_returns_fresh_id(self, store, k2_graph):
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        with TaskService(store) as svc:
            a = svc.submit(emit(pc), shots=100, name="a")
            b = svc.submit(emit(pc), shots=100, name="b")
            assert a != b
            assert len(a) == 32 and all(c in "0123456789abcdef" for c in a)
            assert svc.status(a) in ("queued", "running", "completed")
            svc.drain()
            assert svc.status(a) == "completed"

    def test_wait_completes_with_conserved_counts(self, store, k2_graph):
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        with TaskService(store) as svc:
            rec = svc.submit(emit(pc), shots=100, wait=True, seed=4)
            assert rec.status == "completed"
            assert sum(rec.counts.values()) == 100

    def test_unknown_id(self, store):
        with TaskService(store) as svc:
            with pytest.raises(TaskNotFoundError):
                svc.status("deadbeef" * 4)
            with pytest.raises(TaskNotFoundError):
                svc.result("deadbeef" * 4)

    def test_result_unavailable_carries_status(self, store):
        # a 30-qubit register blows the simulator capacity -> failed task
        big = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[30];\ncreg c[30];\n'
            + "".join(f"h q[{i}];\n" for i in range(30))
            + "".join(f"measure q[{i}] -> c[{i}];\n" for i in range(30))
        )
        with TaskService(store) as svc:
            rec = svc.submit(big, shots=10, wait=True)
            assert rec.status == "failed"
            assert "limit" in rec.error
            with pytest.raises(ResultUnavailableError) as err:
                svc.result(rec.id)
            assert err.value.status == "failed"

    def test_invalid_circuit_rejected_before_enqueue(self, store):
        from quchain import ParseError

        with TaskService(store) as svc:
            with pytest.raises(ParseError):
                svc.submit("not a circuit", shots=10)
        assert TaskService(store, read_only=True)._records == {}

    def test_zero_shots_rejected(self, store, k2_graph):
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        with TaskService(store) as svc:
            with pytest.raises(ValueError):
                svc.submit(emit(pc), shots=0)

    @pytest.mark.parametrize("shots", [2.7, True])
    def test_non_int_shots_rejected(self, store, k2_graph, shots):
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        with TaskService(store) as svc:
            with pytest.raises(ValueError, match="shots"):
                svc.submit(emit(pc), shots=shots)
        assert store.read_bytes() == b""

    def test_circuit_object_rejected(self, store, k2_graph):
        # submit takes QASM text only; a PhysicalCircuit is refused by the
        # record's type check and nothing is written.
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        with TaskService(store) as svc:
            svc.submit(single_qubit_plus_qasm(), shots=5, wait=True, seed=0)
            before = store.read_bytes()
            with pytest.raises(ValueError, match="id, name and qasm must be str"):
                svc.submit(pc, shots=5)
        assert store.read_bytes() == before


class TestConcurrency:
    def test_parallel_submissions_all_complete(self, store, k2_graph):
        import threading

        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        ids = []
        lock = threading.Lock()

        def job(svc, i):
            task_id = svc.submit(emit(pc), shots=20, name=f"job-{i}", seed=i)
            with lock:
                ids.append(task_id)

        with TaskService(store) as svc:
            threads = [threading.Thread(target=job, args=(svc, i)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(set(ids)) == 8
            svc.drain()
            for task_id in ids:
                assert svc.status(task_id) == "completed"
                assert sum(svc.result(task_id).values()) == 20


class _CountingSampler:
    """Puts every shot on the all-zero string, without simulating."""

    def run(self, qasm_text, shots, seed=None):
        return {"0": shots}


class TestConditionStress:
    def test_submitters_waiters_and_drain_lose_no_record(self, store):
        n_threads, per_thread = 6, 15
        ids, errors = [], []
        lock = threading.Lock()

        def job(svc, i):
            try:
                for j in range(per_thread):
                    out = svc.submit(single_qubit_plus_qasm(), shots=3, seed=j, wait=j % 3 == 0)
                    task_id = out if isinstance(out, str) else out.id
                    if j % 5 == 0:
                        svc.drain()
                    with lock:
                        ids.append(task_id)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with TaskService(store, backend=_CountingSampler()) as svc:
                threads = [threading.Thread(target=job, args=(svc, i)) for i in range(n_threads)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(60.0)
                assert not any(t.is_alive() for t in threads)
                svc.drain()
        finally:
            sys.setswitchinterval(old)
        assert errors == []
        assert len(set(ids)) == n_threads * per_thread
        lines = store.read_text().splitlines()
        assert len(lines) == 3 * len(ids)  # queued, running, completed per task
        reloaded = TaskService(store, read_only=True)
        assert all(reloaded.result(task_id) == {"0": 3} for task_id in ids)


class TestPersistence:
    def test_terminal_records_survive_restart(self, store, k2_graph):
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        with TaskService(store) as svc:
            rec = svc.submit(emit(pc), shots=50, wait=True, seed=1)
        reloaded = TaskService(store, read_only=True)
        assert reloaded.status(rec.id) == "completed"
        assert reloaded.result(rec.id) == rec.counts

    def test_last_line_wins(self, store, k2_graph):
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        with TaskService(store) as svc:
            rec = svc.submit(emit(pc), shots=50, wait=True, seed=1)
        lines = store.read_text().strip().split("\n")
        assert len(lines) == 3  # queued, running, completed
        assert '"status": "completed"' in lines[-1]

    def test_restart_reenqueues_queued_tasks(self, store, k2_graph):
        import time

        from quchain.tasks import TaskRecord

        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        rec = TaskRecord(
            id="ab" * 16, name="orphan", qasm=emit(pc), shots=40,
            status="queued", seed=6, created_at=time.time(), updated_at=time.time(),
        )
        with open(store, "w", encoding="utf-8") as f:
            f.write(rec.to_json() + "\n")
        with TaskService(store) as svc:
            svc.drain()
            assert svc.status(rec.id) == "completed"
            assert sum(svc.result(rec.id).values()) == 40

    def test_restart_fails_interrupted_running_tasks(self, store, k2_graph):
        import time

        from quchain.tasks import TaskRecord

        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        rec = TaskRecord(
            id="cd" * 16, name="stale", qasm=emit(pc), shots=40,
            status="running", created_at=time.time(), updated_at=time.time(),
        )
        with open(store, "w", encoding="utf-8") as f:
            f.write(rec.to_json() + "\n")
        with TaskService(store) as svc:
            assert svc.status(rec.id) == "failed"
            assert "interrupted" in svc.record(rec.id).error


class TestTornTail:
    """A crash during an append leaves a final line without its newline."""

    def _completed_store(self, store, k2_graph):
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        with TaskService(store) as svc:
            rec = svc.submit(emit(pc), shots=50, wait=True, seed=1)
        text = store.read_text()
        store.write_text(text + text.splitlines()[-1][:40])  # torn copy of the last record
        return rec

    def test_readers_skip_torn_final_line(self, store, k2_graph):
        rec = self._completed_store(store, k2_graph)
        reloaded = TaskService(store, read_only=True)
        assert reloaded.status(rec.id) == "completed"
        assert reloaded.result(rec.id) == rec.counts

    def test_append_after_torn_tail_starts_a_fresh_line(self, store, k2_graph):
        rec = self._completed_store(store, k2_graph)
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.5,), beta=(0.1,)))
        with TaskService(store) as svc:
            new = svc.submit(emit(pc), shots=30, wait=True, seed=2)
        lines = store.read_text().split("\n")
        assert lines[-1] == ""
        assert len(lines) == 7  # 3 records per task, then the final newline
        reloaded = TaskService(store, read_only=True)
        assert reloaded.status(rec.id) == "completed"
        assert reloaded.status(new.id) == "completed"

    def test_complete_final_line_without_newline_is_kept(self, store, k2_graph):
        rec = self._completed_store(store, k2_graph)
        store.write_text(store.read_text().rsplit("\n", 1)[0])  # drop tail and newline
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.5,), beta=(0.1,)))
        with TaskService(store) as svc:
            assert svc.status(rec.id) == "completed"
            new = svc.submit(emit(pc), shots=30, wait=True, seed=2)
        reloaded = TaskService(store, read_only=True)
        assert reloaded.status(rec.id) == "completed"
        assert reloaded.status(new.id) == "completed"

    def test_malformed_inner_line_is_located_parse_error(self, store, k2_graph):
        self._completed_store(store, k2_graph)
        lines = store.read_text().split("\n")
        lines[1] = lines[1][:40]
        store.write_text("\n".join(lines))
        with pytest.raises(ParseError, match="line 2"):
            TaskService(store, read_only=True)

    @pytest.mark.parametrize("tail", ["torn record", "unterminated record", "blank"])
    def test_writer_repairs_the_tail_byte_for_byte(self, store, k2_graph, tail):
        self._completed_store(store, k2_graph)
        body = store.read_bytes().rsplit(b"\n", 1)[0] + b"\n"  # without the torn copy
        stored = {"torn record": body + body.splitlines()[-1][:40],
                  "unterminated record": body[:-1], "blank": body + b" \t "}[tail]
        store.write_bytes(stored)
        TaskService(store).close()
        assert store.read_bytes() == body

    def test_non_utf8_byte_is_located_parse_error(self, store):
        line = json.dumps(_VALID_RECORD).encode().replace(b'"job"', b'"job\xe9"')
        store.write_bytes(line + b"\n" + json.dumps(_VALID_RECORD).encode() + b"\n")
        before = store.read_bytes()
        for read_only in (True, False):
            with pytest.raises(ParseError, match=re.escape(f"{store}, line 1")):
                TaskService(store, read_only=read_only)
        assert store.read_bytes() == before

    def test_refusing_writer_leaves_the_store_as_it_was(self, store, k2_graph):
        self._completed_store(store, k2_graph)
        lines = store.read_text().split("\n")
        good = lines[1]
        lines[1] = good[:40]
        store.write_text("\n".join(lines))
        before = store.read_bytes()
        with pytest.raises(ParseError, match="line 2"):
            TaskService(store)
        assert store.read_bytes() == before  # the torn tail is still there
        lines[1] = good
        store.write_text("\n".join(lines))
        with TaskService(store) as svc:  # the refused writer released its lock
            assert svc.status(json.loads(good)["id"]) == "completed"
        assert store.read_text() == "\n".join(lines[:-1]) + "\n"


class _BlockingSampler(LocalSampler):
    """Holds every task in "running" until ``release`` is set."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()

    def run(self, qasm_text, shots, seed=None):
        self.started.set()
        self.release.wait(30.0)
        return super().run(qasm_text, shots, seed)


_SECOND_WRITER = """
import sys
from quchain import QuchainError, TaskService
try:
    TaskService(sys.argv[1]).close()
except QuchainError as exc:
    print(exc)
    sys.exit(3)
"""


class TestWriterLease:
    """One writer process at a time; readers take no lock."""

    def test_second_writer_process_is_refused(self, store):
        backend = _BlockingSampler()
        with TaskService(store, backend=backend) as svc:
            task_id = svc.submit(single_qubit_plus_qasm(), shots=20, seed=1)
            assert backend.started.wait(30.0)
            before = store.read_bytes()
            src = str(Path(__file__).resolve().parent.parent / "src")
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p))
            proc = subprocess.run(
                [sys.executable, "-c", _SECOND_WRITER, str(store)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 3, proc.stderr
            assert str(store) in proc.stdout
            assert store.read_bytes() == before  # the running task was left alone
            assert TaskService(store, read_only=True).status(task_id) == "running"
            backend.release.set()
            assert svc.wait(task_id, timeout=30.0).status == "completed"
        with TaskService(store) as again:
            assert again.status(task_id) == "completed"

    def test_close_keeps_the_lease_until_the_worker_returns(self, store, monkeypatch):
        backend = _BlockingSampler()
        svc = TaskService(store, backend=backend)
        # A close() that gives up on a bounded join would do so at once here.
        join = svc._worker.join
        monkeypatch.setattr(
            svc._worker, "join",
            lambda timeout=None: join(None if timeout is None else min(timeout, 0.05)),
        )
        task_id = svc.submit(single_qubit_plus_qasm(), shots=20, seed=1)
        closer = threading.Thread(target=svc.close)
        try:
            assert backend.started.wait(30.0)
            closer.start()
            closer.join(0.3)
            assert closer.is_alive(), "close() returned while the task was running"
            with pytest.raises(QuchainError, match=re.escape(str(store))):
                TaskService(store).close()
        finally:
            backend.release.set()
            closer.join(30.0)
        assert not closer.is_alive()
        records = [json.loads(line) for line in store.read_text().splitlines()]
        terminal = [r for r in records if r["status"] in ("completed", "failed")]
        assert [(r["id"], r["status"]) for r in terminal] == [(task_id, "completed")]
        assert "interrupted by restart" not in store.read_text()
        with TaskService(store, read_only=True) as again:
            assert again.status(task_id) == "completed"

    def test_lease_is_released_on_close(self, store):
        first = TaskService(store)
        with pytest.raises(QuchainError, match=re.escape(str(store))):
            TaskService(store)
        first.close()
        first.close()
        with TaskService(store) as second:
            second.submit(single_qubit_plus_qasm(), shots=5, wait=True, seed=0)


class TestClosedWriter:
    """A closed service appends nothing, and waits on nothing it will not run."""

    def test_submit_after_close_raises_and_writes_nothing(self, store):
        svc = TaskService(store)
        svc.submit(single_qubit_plus_qasm(), shots=5, wait=True, seed=0)
        svc.close()
        before = store.read_bytes()
        with pytest.raises(QuchainError, match=re.escape(str(store))):
            svc.submit(single_qubit_plus_qasm(), shots=5, seed=1)
        assert store.read_bytes() == before
        with TaskService(store) as second:  # holds the lease now
            with pytest.raises(QuchainError, match=re.escape(str(store))):
                svc.submit(single_qubit_plus_qasm(), shots=5, seed=2)
            assert store.read_bytes() == before
        assert len(TaskService(store, read_only=True)._records) == 1

    def test_submit_wait_after_close_raises_instead_of_blocking(self, store):
        svc = TaskService(store)
        svc.close()
        outcome = []

        def submit():
            try:
                outcome.append(svc.submit(single_qubit_plus_qasm(), shots=5, wait=True))
            except QuchainError as exc:
                outcome.append(exc)

        thread = threading.Thread(target=submit, daemon=True)
        thread.start()
        thread.join(30.0)
        assert not thread.is_alive(), "submit(wait=True) on a closed service blocked"
        assert len(outcome) == 1 and isinstance(outcome[0], QuchainError)

    def test_read_only_submit_raises_naming_the_store(self, store):
        reader = TaskService(store, read_only=True)
        with pytest.raises(QuchainError, match=re.escape(str(store))):
            reader.submit(single_qubit_plus_qasm(), shots=5)
        assert not store.exists()

    def test_read_only_wait_on_queued_task_returns_at_once(self, store, k2_graph):
        import time

        from quchain.tasks import TaskRecord

        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        rec = TaskRecord(
            id="ef" * 16, name="queued", qasm=emit(pc), shots=40,
            status="queued", created_at=time.time(), updated_at=time.time(),
        )
        store.write_text(rec.to_json() + "\n")
        reader = TaskService(store, read_only=True)
        t0 = time.perf_counter()
        assert reader.wait(rec.id).status == "queued"
        assert reader.wait(rec.id, timeout=30.0).status == "queued"
        reader.drain()
        assert time.perf_counter() - t0 < 5.0


_VALID_RECORD = {
    "id": "ab" * 16, "name": "job", "qasm": single_qubit_plus_qasm(), "shots": 10,
    "status": "completed", "seed": 3, "counts": {"0": 4, "1": 6}, "error": None,
    "created_at": 1.5e9, "updated_at": 1.5e9,
}


class _NegativeCountsSampler(LocalSampler):
    """Counts that sum to the shot count but hold a negative entry."""

    def run(self, qasm_text, shots, seed=None):
        return {"0": -3, "1": shots + 3}


class _ShortCountsSampler(LocalSampler):
    """Puts one shot fewer than asked for on the all-zero string."""

    def run(self, qasm_text, shots, seed=None):
        return {"0": shots - 1}


class TestRecordChecks:
    """Every stored field is checked on load; a writer cannot store a record
    its readers would reject."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("status", "bogus"), ("shots", -5), ("shots", 0), ("shots", True), ("shots", 2.5),
            ("id", 1), ("name", None), ("qasm", ["h q[0];"]), ("seed", "1"), ("seed", True),
            ("counts", {"0": -3}), ("counts", {"0": 1.5}), ("counts", {"0": "4"}),
            ("counts", [4, 6]), ("error", 7), ("created_at", float("nan")),
            ("updated_at", float("inf")), ("updated_at", "now"),
            # past the float range, as validate.real judges it
            pytest.param("created_at", 10**400, id="created_at-10**400"),
            pytest.param("updated_at", -10**400, id="updated_at--10**400"),
        ],
    )
    def test_field_outside_its_type_or_range_is_parse_error(self, field, value):
        from quchain.tasks import TaskRecord

        line = json.dumps({**_VALID_RECORD, field: value})
        with pytest.raises(ParseError, match=field):
            TaskRecord.from_json(line)

    def test_bad_inner_record_is_located(self, store):
        lines = [json.dumps(_VALID_RECORD), json.dumps({**_VALID_RECORD, "status": "bogus"})]
        store.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            TaskService(store, read_only=True)

    @pytest.mark.parametrize("kwargs", [{"name": 5}, {"seed": True}, {"seed": 2.5}])
    def test_submit_rejects_a_field_readers_would_reject(self, store, kwargs):
        with TaskService(store) as svc:
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                svc.submit(single_qubit_plus_qasm(), shots=5, **kwargs)
        assert store.read_bytes() == b""

    def test_submit_rejects_a_negative_seed_and_writes_nothing(self, store):
        with TaskService(store) as svc:
            svc.submit(single_qubit_plus_qasm(), shots=5, seed=3, wait=True)
            before = store.read_bytes()
            with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
                svc.submit(single_qubit_plus_qasm(), shots=5, seed=-1)
            assert store.read_bytes() == before
        # A stored record with a negative seed still loads.
        from quchain.tasks import TaskRecord

        assert TaskRecord.from_json(json.dumps({**_VALID_RECORD, "seed": -1})).seed == -1

    def test_negative_backend_counts_fail_the_task(self, store):
        with TaskService(store, backend=_NegativeCountsSampler()) as svc:
            rec = svc.submit(single_qubit_plus_qasm(), shots=10, wait=True)
        assert rec.status == "failed"
        assert "counts" in rec.error
        assert TaskService(store, read_only=True).status(rec.id) == "failed"

    def test_backend_counts_short_of_the_shots_fail_the_task(self, store):
        with TaskService(store, backend=_ShortCountsSampler()) as svc:
            rec = svc.submit(single_qubit_plus_qasm(), shots=10, wait=True)
            assert rec.status == "failed"
            assert rec.error == "backend returned 9 counts for 10 shots"
            assert rec.counts is None
            svc.backend = _CountingSampler()  # the worker outlives the failure
            assert svc.submit(single_qubit_plus_qasm(), shots=10, wait=True).counts == {"0": 10}
        assert TaskService(store, read_only=True).record(rec.id).error == rec.error


class TestLocalSampler:
    def test_plus_state_within_five_sigma(self):
        counts = LocalSampler().run(single_qubit_plus_qasm(), 10000, seed=8)
        sigma = np.sqrt(10000 * 0.25)
        assert abs(counts.get("0", 0) - 5000) < 5 * sigma
        assert abs(counts.get("1", 0) - 5000) < 5 * sigma

    def test_deterministic_circuit(self):
        text = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
            "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
        )
        counts = LocalSampler().run(text, 250, seed=0)
        assert counts == {"00": 250}

    def test_same_seed_identical(self, k2_graph):
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        text = emit(pc)
        s = LocalSampler()
        assert s.run(text, 1000, seed=5) == s.run(text, 1000, seed=5)

    def test_single_shot(self):
        counts = LocalSampler().run(single_qubit_plus_qasm(), 1, seed=2)
        assert sum(counts.values()) == 1

    def test_optimum_concentrates_on_cut_states(self, k2_graph):
        res = optimize(k2_graph, p=1, method="grid+simplex", seed=1)
        pc = compile_graph(k2_graph, res.params)
        counts = LocalSampler().run(emit(pc), 10000, seed=3)
        cut = counts.get("01", 0) + counts.get("10", 0)
        assert cut > 9000

    def test_unused_register_wires_ignored(self, k2_graph):
        # compile onto chain qubits 5,6 of a wide register; only 2 are simulated
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)), chain=(5, 6))
        counts = LocalSampler().run(emit(pc), 300, seed=9)
        assert sum(counts.values()) == 300
        assert all(len(k) == 2 for k in counts)


def _counts_by_loop(text: str, shots: int, seed) -> dict[str, int]:
    """The sampler's former route: the used wires simulated gate by gate, and
    each sampled outcome decoded through the measure map in a Python loop."""
    pc = parse(text)
    used = sorted({*pc.a.tolist(), *pc.b.tolist(), *pc.final_layout})
    index = {w: i for i, w in enumerate(used)}
    gates = [Gate(g.kind, tuple(index[q] for q in g.qubits), g.angle) for g in pc.gates()]
    counts: dict[str, int] = {}
    values, totals = sample_outcomes(simulate_gates(len(used), gates), shots, seed)
    for basis, c in zip(values.tolist(), totals.tolist()):
        bits = "".join(str((basis >> index[q]) & 1) for q in pc.final_layout)
        counts[bits] = counts.get(bits, 0) + c
    return counts


def _measured_qasm(nq: int, measures) -> str:
    """A document over ``nq`` wires whose fixed body spreads wires 0..3 over
    many outcomes, measured as ``measures`` lists: (wire, classical bit)."""
    body = [
        "h q[0];", "h q[1];", "rx(0.7) q[2];", "cx q[0],q[1];", "rz(1.1) q[1];",
        "cx q[1],q[2];", "rx(0.4) q[0];", "h q[3];", "rz(0.3) q[3];", "cx q[2],q[3];",
        "rx(1.3) q[1];", "rx(0.9) q[3];",
    ]
    return "\n".join([
        'OPENQASM 2.0;\ninclude "qelib1.inc";', f"qreg q[{nq}];", f"creg c[{len(measures)}];",
        *body, *(f"measure q[{q}] -> c[{c}];" for q, c in measures),
    ]) + "\n"


class TestSamplerDecode:
    """Whole count dicts, key order included, against the per-outcome loop."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_unmeasured_gated_wires_merge_their_counts(self, seed):
        # q[1] and q[3] carry gates but are not measured; q[4] is idle.
        text = _measured_qasm(5, [(2, 0), (0, 1)])
        counts = LocalSampler().run(text, 2000, seed)
        assert list(counts.items()) == list(_counts_by_loop(text, 2000, seed).items())
        assert len(counts) == 4 and sum(counts.values()) == 2000

    def test_one_wire_measured_into_two_bits(self):
        text = _measured_qasm(4, [(1, 0), (3, 1), (1, 2), (0, 3)])
        counts = LocalSampler().run(text, 2000, 3)
        assert list(counts.items()) == list(_counts_by_loop(text, 2000, 3).items())
        assert all(k[0] == k[2] for k in counts)

    def test_permuted_measure_map(self):
        text = _measured_qasm(4, [(2, 0), (0, 1), (3, 2), (1, 3)])
        counts = LocalSampler().run(text, 2000, 7)
        assert list(counts.items()) == list(_counts_by_loop(text, 2000, 7).items())
        assert len(counts) > 8

    def test_too_many_used_wires_fail_the_task(self, store):
        text = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[25];\ncreg c[1];\n'
            + "".join(f"h q[{i}];\n" for i in range(25))
            + "measure q[0] -> c[0];\n"
        )
        with TaskService(store) as svc:
            rec = svc.submit(text, shots=10, wait=True)
        assert rec.status == "failed"
        assert rec.error == "25 qubits exceeds the simulator limit of 24"


class TestProcessResults:
    def test_uniform_counts_rank_by_energy(self, k2_graph):
        counts = {"00": 10, "01": 10, "10": 10, "11": 10}
        ranked = process_results(counts, k2_graph, top=2)
        assert sorted(r.bitstring for r in ranked.rows[:2]) == ["01", "10"]
        assert ranked.rows[0].energy == -1.0
        assert ranked.rows[-1].energy == 1.0

    def test_rows_are_named_tuples_with_the_same_fields_and_repr(self, k2_graph):
        row = process_results({"01": 3}, k2_graph).rows[0]
        assert row == ("01", 3, -1.0, -1.0) and isinstance(row, tuple)
        assert row._fields == ("bitstring", "count", "energy", "objective")
        assert repr(row) == "SolutionRow(bitstring='01', count=3, energy=-1.0, objective=-1.0)"

    def test_sort_secondary_key_is_count(self, k2_graph):
        counts = {"01": 5, "10": 50}
        ranked = process_results(counts, k2_graph, top=1)
        assert ranked.rows[0].bitstring == "10"

    def test_top_flagging(self, k2_graph):
        counts = {"00": 1, "01": 2, "10": 3, "11": 4}
        ranked = process_results(counts, k2_graph, top=1)
        assert len(ranked.solutions) == 1
        assert ranked.solutions[0].bitstring == "10"

    @pytest.mark.parametrize("top", [0, -1])
    def test_top_below_one_rejected(self, k2_graph, top):
        with pytest.raises(ValueError, match="top"):
            process_results({"01": 1, "10": 1, "11": 1}, k2_graph, top=top)

    def test_length_mismatch(self, k2_graph):
        with pytest.raises(ValueError):
            process_results({"0": 1}, k2_graph)

    def test_sense_restoration(self, demo6_graph):
        ranked = process_results({"010010": 3}, demo6_graph, top=1, sense="max")
        row = ranked.rows[0]
        assert row.energy == pytest.approx(-2.5)
        assert row.objective == pytest.approx(6.0)  # cut value restored

    def test_unknown_sense_rejected(self, k2_graph):
        with pytest.raises(ValueError, match="sense"):
            process_results({"01": 1}, k2_graph, sense="maximize")

    def test_bad_key_is_reported_before_a_bad_sense(self, k2_graph):
        # The sense is checked where it is used, once the keys are scored.
        with pytest.raises(ValueError, match="does not cover"):
            process_results({"0": 1}, k2_graph, sense="maximize")

    def test_decoding_matches_uncompiled_simulation(self):
        # ranked energies from compiled-samples equal those of the logical circuit
        rng = np.random.default_rng(64)
        for _ in range(6):
            g = random_graph(rng, 2, 6)
            params = random_qaoa_params(rng, 1)
            pc = compile_graph(g, params)
            counts = LocalSampler().run(emit(pc), 4000, seed=13)
            ranked = process_results(counts, g, top=1)
            state = simulate(build_qaoa_circuit(g, params))
            probs = np.abs(state) ** 2
            exact_best = min(
                (
                    g.energy([1 - 2 * ((z >> i) & 1) for i in range(g.n)])
                    for z in range(1 << g.n)
                    if probs[z] > 0.02
                ),
            )
            sampled_best = ranked.rows[0].energy
            assert sampled_best <= exact_best + 1e-9


class TestMaxcutDemoFlow:
    def test_two_partitions_recovered(self, demo6_graph):
        res = optimize(demo6_graph, p=1, method="grid+simplex", seed=1, grid_size=16)
        pc = compile_graph(demo6_graph, res.params)
        counts = LocalSampler().run(emit(pc), 10000, seed=11)
        ranked = process_results(counts, demo6_graph, top=4, sense="max")
        best_rows = [
            r for r in ranked.rows if abs(r.energy - ranked.rows[0].energy) < 1e-12
        ]
        partitions = set()
        for r in best_rows:
            side = frozenset(i for i, b in enumerate(r.bitstring) if b == "1")
            partitions.add(frozenset({side, frozenset(range(6)) - side}))
        assert len(best_rows) == 4  # two partitions, each a complement pair
        assert partitions == {
            frozenset({frozenset({1, 4}), frozenset({0, 2, 3, 5})}),
            frozenset({frozenset({1, 2, 4}), frozenset({0, 3, 5})}),
        }
        assert all(r.objective == pytest.approx(6.0) for r in best_rows)


def _ranked_by_loop(counts, g, sense):
    """The per-bitstring ranking through the ``row_energies`` oracle: rows as
    (bitstring, count, energy, objective), sorted stably by (energy, -count)."""
    rows = []
    spins = [[1 - 2 * int(b) for b in bits] for bits in counts]
    for (bits, count), energy in zip(counts.items(), row_energies(g, spins)):
        objective = energy + g.offset
        rows.append((bits, int(count), energy, -objective if sense == "max" else objective))
    return sorted(rows, key=lambda r: (r[2], -r[1]))


class TestRankingDifferential:
    """``process_results`` against the per-bitstring loop it replaced."""

    @pytest.mark.parametrize("seed", range(12))
    def test_energies_bit_equal_and_order_equal(self, seed):
        from quchain import WeightGraph

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))

        def draw():
            # A short non-dyadic list makes energy ties likely; normal draws
            # make them rare.
            return float(rng.choice([0.1, 0.2, 0.3, -0.7, 1 / 3]) if seed % 2 else rng.normal())

        edges = [(u, v, draw()) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
        nodes = [(i, draw() if rng.random() < 0.5 else 0.0) for i in range(n)]  # half with fields
        g = WeightGraph(nodes=nodes, edges=edges, offset=float(rng.normal()))
        states = rng.permutation(1 << n)[: int(rng.integers(1, (1 << n) + 1))]
        counts = {
            "".join(str((int(z) >> i) & 1) for i in range(n)): int(rng.integers(1, 4))
            for z in states
        }
        for sense in ("min", "max"):
            ranked = process_results(counts, g, top=3, sense=sense)
            want = _ranked_by_loop(counts, g, sense)
            got = [(r.bitstring, r.count, r.energy, r.objective) for r in ranked.rows]
            assert [r[:2] for r in got] == [r[:2] for r in want]
            assert [repr(r[2]) for r in got] == [repr(r[2]) for r in want]
            assert [r[3] for r in got] == [r[3] for r in want]

    def test_energy_ties_keep_count_then_insertion_order(self, k2_graph):
        counts = {"00": 2, "11": 5, "01": 1, "10": 1}
        rows = process_results(counts, k2_graph, top=1).rows
        assert [r.bitstring for r in rows] == ["01", "10", "11", "00"]

    @pytest.mark.parametrize("key", ["010", "0", "2", "x", "é", "0€"])
    def test_bad_bitstrings_raise_value_error(self, k2_graph, key):
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            process_results({"01": 1, key: 1}, k2_graph)

    @pytest.mark.parametrize("key", [1, b"01", None, ("0", "1")],
                             ids=["int", "bytes", "none", "tuple"])
    def test_keys_must_be_str(self, k2_graph, key):
        message = f"bitstring {key!r} is not a str"
        with pytest.raises(ValueError, match=re.escape(message)):
            process_results({"01": 1, key: 1}, k2_graph)

    @pytest.mark.parametrize("count", [2.7, "3", -3, 2**63],
                             ids=["float", "str", "negative", "past-int64"])
    def test_counts_must_be_non_negative_ints(self, k2_graph, count):
        message = f"count of bitstring '00' must be an int in [0, 2**63), got {count!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            process_results({"01": 1, "00": count}, k2_graph, sense="maximize")

    def test_empty_counts_give_no_rows(self, k2_graph):
        ranked = process_results({}, k2_graph, top=2)
        assert ranked.rows == [] and ranked.solutions == []

    def test_zero_objective_of_a_max_problem_is_positive_zero(self, demo6_graph):
        row = process_results({"000000": 2}, demo6_graph, top=1, sense="max").rows[0]
        assert repr(row.objective) == "0.0"  # not -0.0
        assert row.energy + demo6_graph.offset == 0.0


# Three full-record lines per task, as stores written before transition lines
# hold them: one completed task, and one left running by a crash.
_OLD_QASM = json.dumps(single_qubit_plus_qasm())
_OLD_STORE = (
    '{"counts": null, "created_at": 1792388888.4655244, "error": null, "id": '
    '"de2c8b44d013f332f0e946d0688fe992", "name": "old", "qasm": ' + _OLD_QASM + ', "seed": 3, '
    '"shots": 10, "status": "queued", "updated_at": 1792388888.4655244}\n'
    '{"counts": null, "created_at": 1792388888.4655244, "error": null, "id": '
    '"de2c8b44d013f332f0e946d0688fe992", "name": "old", "qasm": ' + _OLD_QASM + ', "seed": 3, '
    '"shots": 10, "status": "running", "updated_at": 1792388888.4659379}\n'
    '{"counts": {"0": 9, "1": 1}, "created_at": 1792388888.4655244, "error": null, "id": '
    '"de2c8b44d013f332f0e946d0688fe992", "name": "old", "qasm": ' + _OLD_QASM + ', "seed": 3, '
    '"shots": 10, "status": "completed", "updated_at": 1792388888.4660566}\n'
    '{"counts": null, "created_at": 1792388890.25, "error": null, "id": '
    '"0123456789abcdef0123456789abcdef", "name": "stale", "qasm": ' + _OLD_QASM + ', '
    '"seed": null, "shots": 5, "status": "queued", "updated_at": 1792388890.25}\n'
    '{"counts": null, "created_at": 1792388890.25, "error": null, "id": '
    '"0123456789abcdef0123456789abcdef", "name": "stale", "qasm": ' + _OLD_QASM + ', '
    '"seed": null, "shots": 5, "status": "running", "updated_at": 1792388890.5}\n'
)


class TestTransitionLines:
    """The queued line holds the whole record; later lines hold what changed."""

    def test_old_full_record_store_loads_to_the_same_records(self, store):
        from quchain.tasks import TaskRecord

        store.write_text(_OLD_STORE)
        records = TaskService(store, read_only=True)._records
        assert records == {
            "de2c8b44d013f332f0e946d0688fe992": TaskRecord(
                id="de2c8b44d013f332f0e946d0688fe992", name="old",
                qasm=single_qubit_plus_qasm(), shots=10, status="completed", seed=3,
                counts={"0": 9, "1": 1}, created_at=1792388888.4655244,
                updated_at=1792388888.4660566),
            "0123456789abcdef0123456789abcdef": TaskRecord(
                id="0123456789abcdef0123456789abcdef", name="stale",
                qasm=single_qubit_plus_qasm(), shots=5, status="running",
                created_at=1792388890.25, updated_at=1792388890.5),
        }

    def test_new_writer_on_an_old_store(self, store):
        store.write_text(_OLD_STORE)
        with TaskService(store, backend=_CountingSampler()) as svc:
            new = svc.submit(single_qubit_plus_qasm(), shots=4, name="new", wait=True)
            written = dict(svc._records)
        assert written["0123456789abcdef0123456789abcdef"].status == "failed"
        assert written[new.id].counts == {"0": 4}
        assert TaskService(store, read_only=True)._records == written
        added = store.read_text()[len(_OLD_STORE):].splitlines()
        assert len(added) == 4  # failed, then queued, running, completed
        assert ['"qasm"' in line for line in added] == [False, True, False, False]

    def test_writer_and_reader_agree_on_every_record(self, store):
        with TaskService(store, backend=_NegativeCountsSampler()) as svc:
            failed = svc.submit(single_qubit_plus_qasm(), shots=6, wait=True)
        with TaskService(store) as svc:
            done = svc.submit(single_qubit_plus_qasm(), shots=7, name="x", seed=2, wait=True)
            written = dict(svc._records)
        assert written[failed.id].status == "failed"
        assert written[done.id].status == "completed"
        assert TaskService(store, read_only=True)._records == written
        text = store.read_text()
        assert text.count(json.dumps(single_qubit_plus_qasm())) == 2  # once per task
        for line in text.splitlines():
            assert {"id", "status", "created_at", "updated_at"} <= json.loads(line).keys()

    def test_transition_for_an_unknown_id_is_located_parse_error(self, store):
        line = json.dumps({"id": "cd" * 16, "status": "running",
                           "created_at": 1.5e9, "updated_at": 1.5e9})
        store.write_text(json.dumps(_VALID_RECORD) + "\n\n" + line + "\n")
        for read_only in (True, False):
            with pytest.raises(ParseError, match=re.escape(f"{store}, line 3")):
                TaskService(store, read_only=read_only)


class _IntKeySampler(LocalSampler):
    """Returns an int key beside a str one, as a careless remote backend might."""

    def run(self, qasm_text, shots, seed=None):
        return {0: 1, "1": shots - 1}


class _IntKeysOnlySampler(LocalSampler):
    """Returns every shot under the int key 0."""

    def run(self, qasm_text, shots, seed=None):
        return {0: shots}


class _ReversedSampler(LocalSampler):
    """Returns the exact counts with their keys in descending order."""

    def run(self, qasm_text, shots, seed=None):
        counts = super().run(qasm_text, shots, seed)
        return {k: counts[k] for k in sorted(counts, reverse=True)}


def _completed_line(counts) -> str:
    return json.dumps({"id": _VALID_RECORD["id"], "status": "completed", "counts": counts,
                       "created_at": 1.5e9, "updated_at": 1.5e9})


def _queued_line() -> str:
    return json.dumps({**_VALID_RECORD, "status": "queued", "counts": None})


class TestCountKeys:
    """Count keys are strings of 0s and 1s, for writers and readers alike."""

    @pytest.mark.parametrize("backend", [_IntKeySampler, _IntKeysOnlySampler])
    def test_int_keys_fail_the_task_and_the_worker_lives_on(self, store, backend):
        with TaskService(store, backend=backend()) as svc:
            task_id = svc.submit(single_qubit_plus_qasm(), shots=10)
            rec = svc.wait(task_id, timeout=10.0)
            assert rec.status == "failed"
            assert "counts" in rec.error
            svc.backend = _CountingSampler()
            assert svc.submit(single_qubit_plus_qasm(), shots=10, wait=True).counts == {"0": 10}
        assert TaskService(store, read_only=True).status(task_id) == "failed"

    @pytest.mark.parametrize("counts", [{"ab": 10}, {"": 10}, {"0": True, "1": 9}])
    def test_stored_dict_that_is_not_bitstrings_to_ints_is_located_parse_error(self, store, counts):
        lines = [json.dumps(_VALID_RECORD), json.dumps({**_VALID_RECORD, "counts": counts})]
        store.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{store}, line 2")):
            TaskService(store, read_only=True)


class TestPackedCounts:
    """A completed line holds its counts as one packed string, checked on load
    and decoded when the counts are read."""

    @pytest.mark.parametrize(
        "counts", ["01::3", "0a:1", "01:-1", "01:1.5", "01:1,", ":4", "01:007", "01:1 ", 5, [4, 6]],
    )
    def test_malformed_counts_are_located_parse_error(self, store, counts):
        store.write_text(_queued_line() + "\n" + _completed_line(counts) + "\n")
        for read_only in (True, False):
            with pytest.raises(ParseError, match=re.escape(f"{store}, line 2") + ".*counts"):
                TaskService(store, read_only=read_only)

    @pytest.mark.parametrize("counts, message", [
        ("01:1,01:2", "occurs twice"),
        pytest.param("01:" + "1" * 5000, "malformed counts", id="past-the-int-digit-limit"),
    ])
    def test_counts_that_do_not_decode_are_parse_error_when_read(self, store, counts, message):
        store.write_text(_queued_line() + "\n" + _completed_line(counts) + "\n")
        reader = TaskService(store, read_only=True)
        assert reader.status(_VALID_RECORD["id"]) == "completed"
        for read in (reader.result, lambda i: reader.record(i).counts):
            with pytest.raises(ParseError, match=re.escape(repr(_VALID_RECORD["id"])) + ".*" + message):
                read(_VALID_RECORD["id"])

    def test_empty_string_decodes_to_no_counts(self, store):
        store.write_text(_queued_line() + "\n" + _completed_line("") + "\n")
        reader = TaskService(store, read_only=True)
        assert reader.result(_VALID_RECORD["id"]) == {}
        assert reader.record(_VALID_RECORD["id"]).counts == {}

    def test_writer_packs_keys_in_order_and_reader_decodes_them(self, store, k2_graph):
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        with TaskService(store, backend=_ReversedSampler()) as svc:
            rec = svc.submit(emit(pc), shots=200, wait=True, seed=4)
        packed = json.loads(store.read_text().splitlines()[-1])["counts"]
        assert isinstance(packed, str)
        assert packed == ",".join(f"{k}:{v}" for k, v in sorted(rec.counts.items()))
        reader = TaskService(store, read_only=True)
        assert list(reader.result(rec.id).items()) == sorted(rec.counts.items())
        assert list(rec.counts) == sorted(rec.counts)  # the writer's record decodes alike

    def test_each_read_returns_a_new_dict(self, store):
        store.write_text(_queued_line() + "\n" + _completed_line("0:4,1:6") + "\n")
        reader = TaskService(store, read_only=True)
        reader.result(_VALID_RECORD["id"])["0"] = 99
        assert reader.result(_VALID_RECORD["id"]) == {"0": 4, "1": 6}

    def test_dict_lines_then_packed_lines_load_and_agree(self, store, k2_graph):
        store.write_text(_OLD_STORE)
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        with TaskService(store) as svc:
            new = [svc.submit(emit(pc), shots=50, seed=s, wait=True).id for s in (1, 2)]
            written = {i: svc.record(i).counts for i in new}
        text = store.read_text()
        assert '"counts": {"0": 9, "1": 1}' in text
        assert text.count('"counts": "') == 2
        reader = TaskService(store, read_only=True)
        assert reader.result("de2c8b44d013f332f0e946d0688fe992") == {"0": 9, "1": 1}
        for i in new:
            assert reader.result(i) == written[i]
            assert sum(written[i].values()) == 50


_KILLED_WRITER = """
import sys, threading
from quchain import LocalSampler, TaskService

class Hang(LocalSampler):
    def run(self, qasm_text, shots, seed=None):
        threading.Event().wait()

svc = TaskService(sys.argv[1])
svc.submit(sys.argv[2], shots=20, seed=1, wait=True)
svc.backend = Hang()
svc.submit(sys.argv[2], shots=20, seed=2)
threading.Event().wait()
"""


class TestKilledWriter:
    def test_writer_killed_mid_run_leaves_a_store_the_next_writer_mends(self, store):
        import signal
        import time

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILLED_WRITER, str(store), single_qubit_plus_qasm()],
            env=env, stderr=subprocess.PIPE, text=True,
        )
        def running_lines():
            return store.read_text().count('"status": "running"') if store.exists() else 0

        try:
            deadline = time.monotonic() + 120.0
            while running_lines() < 2:  # the second task is inside the backend
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline, "the writer never started its second task"
                time.sleep(0.05)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(30.0)
            proc.stderr.close()
        assert proc.returncode == -signal.SIGKILL
        records = [json.loads(line) for line in store.read_text().splitlines()]
        done, hung = dict.fromkeys(r["id"] for r in records)
        with TaskService(store) as svc:  # the killed writer's lock went with it
            assert svc.status(hung) == "failed"
            assert svc.record(hung).error == "interrupted by restart"
            written = svc.record(done).counts
        reader = TaskService(store, read_only=True)
        assert reader.status(done) == "completed"
        assert reader.result(done) == written and sum(written.values()) == 20
        assert reader.status(hung) == "failed"
