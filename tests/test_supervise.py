"""Tests for supervised execution: watchdog, rlimit, fault classification,
and the long-lived workers of a :class:`WorkerPool`."""

import os
import signal
import sys
import threading
import time

import pytest

from repro.batch.supervise import (
    FAULT_CRASH,
    FAULT_ERROR,
    FAULT_OOM,
    FAULT_TIMEOUT,
    FaultRecord,
    WorkerPool,
    run_supervised,
)
from repro.batch.transport import LocalPoolTransport, WorkItem
from tests.helpers import wait_dead

# -- module-level worker functions (pickled by name into children) ---------


def _double(x):
    return x * 2


def _raise_value_error(_):
    raise ValueError("deliberate failure")


def _raise_memory_error(_):
    raise MemoryError("simulated exhaustion")


def _die_by_signal(sig):
    os.kill(os.getpid(), sig)


def _exit_silently(code):
    os._exit(code)


def _sleep_forever(_):
    time.sleep(3600.0)


def _allocate_3gb(_):
    return len(bytearray(3 << 30))


def _pid(_):
    return os.getpid()


def _pid_and(payload):
    return os.getpid(), payload


def _pid_item(payload, attempt):
    return os.getpid()


def _allocate_3gb_in(pid):
    """The balloon, but only in the worker that already served ``pid``."""
    if os.getpid() != pid:
        raise RuntimeError("the balloon ran in a fresh worker")
    return len(bytearray(3 << 30))


class TestCleanRuns:
    def test_result_comes_back(self):
        result, fault = run_supervised(_double, 21)
        assert result == 42 and fault is None

    def test_picklable_payloads_roundtrip(self):
        result, fault = run_supervised(_double, [1, 2])
        assert result == [1, 2, 1, 2] and fault is None


class TestClassification:
    def test_python_error_carries_traceback(self):
        result, fault = run_supervised(_raise_value_error, None)
        assert result is None
        assert fault.kind == FAULT_ERROR
        assert "ValueError" in fault.detail and "deliberate failure" in fault.detail
        assert fault.exitcode == 0  # the child reported, then exited cleanly

    def test_memory_error_classifies_as_oom(self):
        _, fault = run_supervised(_raise_memory_error, None)
        assert fault.kind == FAULT_OOM
        assert "MemoryError" in fault.detail

    def test_sigkill_death_reads_as_oom(self):
        """SIGKILL without a report is the OOM-killer's signature."""
        _, fault = run_supervised(_die_by_signal, signal.SIGKILL)
        assert fault.kind == FAULT_OOM
        assert fault.exitcode == -signal.SIGKILL
        assert "SIGKILL" in fault.detail

    def test_other_signal_death_is_a_crash(self):
        _, fault = run_supervised(_die_by_signal, signal.SIGABRT)
        assert fault.kind == FAULT_CRASH
        assert fault.exitcode == -signal.SIGABRT
        assert "SIGABRT" in fault.detail

    def test_silent_exit_is_a_crash(self):
        _, fault = run_supervised(_exit_silently, 7)
        assert fault.kind == FAULT_CRASH
        assert fault.exitcode == 7
        assert "without reporting" in fault.detail


class TestWatchdog:
    def test_hang_is_reaped_at_the_deadline(self):
        t0 = time.monotonic()
        result, fault = run_supervised(_sleep_forever, None, wall_limit=0.5)
        assert result is None
        assert fault.kind == FAULT_TIMEOUT
        assert time.monotonic() - t0 < 10.0  # reaped, not waited out

    def test_fast_work_beats_the_deadline(self):
        result, fault = run_supervised(_double, 3, wall_limit=30.0)
        assert result == 6 and fault is None


class TestMemoryLimit:
    def test_rlimit_turns_a_balloon_into_oom(self):
        _, fault = run_supervised(
            _allocate_3gb, None, wall_limit=30.0, memory_limit=2 << 30
        )
        assert fault is not None
        # MemoryError under the rlimit, or a kernel kill — both are OOM
        assert fault.kind == FAULT_OOM

    def test_modest_work_fits_under_the_limit(self):
        result, fault = run_supervised(_double, 5, memory_limit=8 << 30)
        assert result == 10 and fault is None


#: each fault kind: (worker, payload, run_supervised keyword arguments)
FAULTS = {
    "error": (_raise_value_error, None, {}),
    "oom-memoryerror": (_raise_memory_error, None, {}),
    "sigkill": (_die_by_signal, signal.SIGKILL, {}),
    "other-signal": (_die_by_signal, signal.SIGABRT, {}),
    "silent-exit": (_exit_silently, 7, {}),
    "timeout": (_sleep_forever, None, {"wall_limit": 0.5}),
}


class TestWorkerPool:
    def test_clean_calls_reuse_one_worker(self):
        with WorkerPool() as pool:
            first, fault1 = run_supervised(_pid, None, pool=pool)
            second, fault2 = run_supervised(_pid, None, pool=pool)
            assert fault1 is None and fault2 is None
            assert first == second != os.getpid()
            assert pool.started == 1

    @pytest.mark.parametrize("kind", sorted(FAULTS))
    def test_fault_retires_the_worker(self, kind):
        fn, payload, kwargs = FAULTS[kind]
        with WorkerPool() as pool:
            before, _ = run_supervised(_pid, None, pool=pool)
            _, fault = run_supervised(fn, payload, pool=pool, **kwargs)
            assert fault is not None
            after, fault = run_supervised(_pid, None, pool=pool)
            assert fault is None and after != before
            assert pool.started == 2

    def test_idle_worker_killed_outside_is_not_charged(self):
        with LocalPoolTransport(supervised=True, retries=0) as transport:
            (first,) = transport.execute([WorkItem("a", _pid_item, None)])
            os.kill(first.value, signal.SIGKILL)
            wait_dead(first.value)
            (res,) = transport.execute([WorkItem("b", _pid_item, None)])
            assert res.fault is None and res.attempts == 1
            assert res.value != first.value
            assert transport.pool.started == 2

    def test_rlimit_holds_in_a_reused_worker(self):
        with WorkerPool(memory_limit=2 << 30) as pool:
            pid, fault = run_supervised(_pid, None, pool=pool)
            assert fault is None
            _, fault = run_supervised(
                _allocate_3gb_in, pid, wall_limit=30.0, pool=pool
            )
            assert fault is not None and fault.kind == FAULT_OOM

    def test_close_reaps_idle_workers_and_pool_stays_usable(self):
        pool = WorkerPool()
        pid, _ = run_supervised(_pid, None, pool=pool)
        pool.close()
        wait_dead(pid, timeout=1.0)
        again, fault = run_supervised(_pid, None, pool=pool)
        assert fault is None and again != pid
        pool.close()

    def test_concurrent_callers_share_the_pool_safely(self):
        """More callers than cores, fast thread switches: no worker is
        handed to two callers, and none is started without being used."""
        results = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool() as pool:

                def caller(base):
                    for i in range(base, base + 8):
                        results.append((i, run_supervised(_pid_and, i, pool=pool)))

                threads = [
                    threading.Thread(target=caller, args=(8 * k,)) for k in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in threads)
                assert all(fault is None for _, (_, fault) in results)
                # each caller got the answer to its own job
                assert sorted(i for i, _ in results) == list(range(48))
                assert all(i == echo for i, ((_, echo), _) in results)
                pids = {pid for _, ((pid, _), _) in results}
                assert len(pids) == pool.started <= 6
        finally:
            sys.setswitchinterval(old)

    def test_pool_limit_conflict_is_refused(self):
        with WorkerPool(memory_limit=2 << 30) as pool:
            with pytest.raises(ValueError, match="memory_limit"):
                run_supervised(_pid, None, memory_limit=1 << 30, pool=pool)

    def test_unpicklable_job_is_an_error_fault(self):
        with WorkerPool() as pool:
            result, fault = run_supervised(_double, lambda: None, pool=pool)
            assert result is None and fault.kind == FAULT_ERROR
            assert pool.started == 0


class TestFaultRecord:
    def test_to_dict_roundtrips_the_fields(self):
        rec = FaultRecord(kind="crash", detail="d", exitcode=-9, attempts=3)
        assert rec.to_dict() == {
            "kind": "crash", "detail": "d", "exitcode": -9, "attempts": 3,
        }
