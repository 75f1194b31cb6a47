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
    process_results,
    simulate,
)

from conftest import random_graph, random_qaoa_params


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
            a = svc.submit(pc, shots=100, name="a")
            b = svc.submit(pc, shots=100, name="b")
            assert a != b
            assert len(a) == 32 and all(c in "0123456789abcdef" for c in a)
            assert svc.status(a) in ("queued", "running", "completed")
            svc.drain()
            assert svc.status(a) == "completed"

    def test_wait_completes_with_conserved_counts(self, store, k2_graph):
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        with TaskService(store) as svc:
            rec = svc.submit(pc, shots=100, wait=True, seed=4)
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
                svc.submit(pc, shots=0)

    @pytest.mark.parametrize("shots", [2.7, True])
    def test_non_int_shots_rejected(self, store, k2_graph, shots):
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        with TaskService(store) as svc:
            with pytest.raises(ValueError, match="shots"):
                svc.submit(pc, shots=shots)
        assert store.read_bytes() == b""


class TestConcurrency:
    def test_parallel_submissions_all_complete(self, store, k2_graph):
        import threading

        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        ids = []
        lock = threading.Lock()

        def job(svc, i):
            task_id = svc.submit(pc, shots=20, name=f"job-{i}", seed=i)
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
            rec = svc.submit(pc, shots=50, wait=True, seed=1)
        reloaded = TaskService(store, read_only=True)
        assert reloaded.status(rec.id) == "completed"
        assert reloaded.result(rec.id) == rec.counts

    def test_last_line_wins(self, store, k2_graph):
        pc = compile_graph(k2_graph, QaoaParams(gamma=(0.3,), beta=(0.2,)))
        with TaskService(store) as svc:
            rec = svc.submit(pc, shots=50, wait=True, seed=1)
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
            rec = svc.submit(pc, shots=50, wait=True, seed=1)
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
            new = svc.submit(pc, shots=30, wait=True, seed=2)
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
            new = svc.submit(pc, shots=30, wait=True, seed=2)
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


class TestProcessResults:
    def test_uniform_counts_rank_by_energy(self, k2_graph):
        counts = {"00": 10, "01": 10, "10": 10, "11": 10}
        ranked = process_results(counts, k2_graph, top=2)
        assert sorted(r.bitstring for r in ranked.rows[:2]) == ["01", "10"]
        assert ranked.rows[0].energy == -1.0
        assert ranked.rows[-1].energy == 1.0

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
