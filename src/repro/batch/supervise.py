"""Supervised execution: long-lived watched workers, one verdict per job.

The process pool treats a dead worker as a catastrophe
(``BrokenProcessPool`` aborts everything in flight).  The paper's own
experiments say workers *will* die — CSP1 "runs out of memory on large
instances" — so campaigns need the opposite stance: a worker process is
*expected* to be killable, and its death is a classifiable result, not
an exception.

:func:`run_supervised` runs ``fn(payload)`` in a watched worker process
of a :class:`WorkerPool`, with

* a **wall-clock watchdog** — the parent waits on the worker's pipe
  *and* its process sentinel (``multiprocessing.connection.wait``), so
  a worker that dies without reporting is noticed immediately and a
  worker that hangs is terminated at the deadline;
* an optional **address-space rlimit** — ``RLIMIT_AS`` set once, when
  the worker starts and before any job, so a memory balloon dies with
  ``MemoryError`` (or a kernel kill) inside its own sandbox instead of
  taking the machine down;
* **exit classification** into a :class:`FaultRecord`: a clean return,
  a Python error (with traceback), a signal death (SIGKILL read as the
  OOM-killer's signature), or a watchdog timeout.

Workers start on first need and are kept: a clean answer puts the
worker back on the pool's idle list for the next job, so a stream of
solves pays one process start per concurrent slot, not one per solve.
Any fault retires the worker — one that reported an error exits, a
dead or hung one is reaped — so a retry always runs in a fresh process.
A worker also exits within about a second of its owning process dying.
A call without a ``pool=`` runs on a throw-away pool of one.

``fn`` must be a module-level callable and ``payload`` plain picklable
data (the R4 pickle-safety lint enforces both): every job is pickled
into the worker's pipe, exactly like the pool and race primitives.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import stat
import threading
import time
import traceback
import weakref
from collections.abc import Callable
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from multiprocessing.reduction import ForkingPickler
from typing import Any

from repro.batch.chaos import ChaosConfig, inject_worker_fault

__all__ = [
    "FAULT_CRASH",
    "FAULT_ERROR",
    "FAULT_OOM",
    "FAULT_TIMEOUT",
    "FaultRecord",
    "WorkerPool",
    "run_supervised",
]

#: fault kinds a supervised run classifies into
FAULT_ERROR = "error"      # the job raised; detail carries the traceback
FAULT_CRASH = "crash"      # the worker died to a signal without reporting
FAULT_OOM = "oom"          # SIGKILL death or MemoryError: memory exhaustion
FAULT_TIMEOUT = "timeout"  # the watchdog deadline passed; worker terminated

#: default seconds granted past the nominal budget before the watchdog
#: fires (covers model construction and interpreter startup)
DEFAULT_GRACE = 10.0

#: seconds an idle worker waits for a job before checking that the
#: process that started it is still alive
_OWNER_POLL = 1.0


@dataclass(frozen=True)
class FaultRecord:
    """How one supervised run failed, as plain classifiable data.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_ERROR` / :data:`FAULT_CRASH` /
        :data:`FAULT_OOM` / :data:`FAULT_TIMEOUT`.
    detail:
        Human-readable cause: the job's traceback (``error``/``oom``
        via MemoryError), the fatal signal name (``crash``/``oom`` via
        SIGKILL), or the exceeded deadline (``timeout``).
    exitcode:
        The worker's ``Process.exitcode`` (negative = killed by that
        signal; ``None`` when the worker had to be force-killed).
    attempts:
        Filled in by the retrying caller: 1-based attempt count this
        record is the last of.
    """

    kind: str
    detail: str
    exitcode: int | None = None
    attempts: int = 1

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (rides the journal inside fault records)."""
        return {
            "kind": self.kind,
            "detail": self.detail,
            "exitcode": self.exitcode,
            "attempts": self.attempts,
        }


def _signal_name(exitcode: int) -> str:
    """``-9`` -> ``"SIGKILL"`` (falls back to the raw number)."""
    try:
        return signal.Signals(-exitcode).name
    except ValueError:  # pragma: no cover - unknown signal number
        return f"signal {-exitcode}"


def _classify_death(exitcode: int | None) -> FaultRecord:
    """A worker died without reporting: signal death or silent exit."""
    if exitcode is not None and exitcode < 0:
        name = _signal_name(exitcode)
        kind = FAULT_OOM if -exitcode == signal.SIGKILL else FAULT_CRASH
        detail = f"worker killed by {name} (exitcode {exitcode})"
        if kind == FAULT_OOM:
            detail += " — SIGKILL without a report is the OOM-killer's signature"
        return FaultRecord(kind=kind, detail=detail, exitcode=exitcode)
    return FaultRecord(
        kind=FAULT_CRASH,
        detail=f"worker exited without reporting (exitcode {exitcode})",
        exitcode=exitcode,
    )


def _reap(proc) -> None:
    """Terminate, then if needed kill, a still-running worker."""
    if proc.is_alive():
        proc.terminate()
    proc.join(timeout=5.0)
    if proc.is_alive():  # pragma: no cover - terminate() failed
        proc.kill()
        proc.join(timeout=5.0)


#: serializes worker starts, so no worker is forked while another
#: worker's child-side pipe end or sentinel write end is still open in
#: the parent (a sibling holding either would hide that worker's death)
_START_LOCK = threading.Lock()


def _reset_start_lock() -> None:
    global _START_LOCK
    _START_LOCK = threading.Lock()


# a fork taken while another thread held the lock must not inherit it held
os.register_at_fork(after_in_child=_reset_start_lock)


def _close_inherited_sockets(keep: int) -> None:
    """Close every socket a new worker inherited except its own pipe.

    A forked worker starts with copies of all its parent's descriptors:
    the other workers' parent-side pipe ends (whose copies would keep
    those workers from ever seeing EOF once the parent dies) and, in the
    daemon, the listening and client sockets (whose copies would keep a
    connection open after the daemon closed it).
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # no procfs: sweep the usual descriptor range
        fds = list(range(1024))
    for fd in fds:
        if fd <= 2 or fd == keep:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            pass  # the listing's own directory handle, already gone


def _worker_main(conn, memory_limit: int | None) -> None:
    """Worker target: sandbox once, then answer jobs until retired.

    Each job is a pickled ``(fn, payload, chaos, chaos_key)``; the reply
    is ``("ok", result)`` or ``("error", traceback_text)``.  A worker
    that reported an error exits (a faulted worker is never reused); a
    signal death reports nothing (that *is* the signal the parent
    classifies).  The rlimit is set before any job so an over-budget run
    fails inside the sandbox.  The worker also exits when its pipe
    closes or the process that started it is gone.
    """
    _close_inherited_sockets(conn.fileno())
    # ^C reaches the whole process group; the owner reaps its workers,
    # so an idle one must not die of it with a traceback
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if memory_limit is not None:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(
            resource.RLIMIT_AS,
            (memory_limit, hard if 0 < hard < memory_limit else memory_limit),
        )
    owner = os.getppid()
    while True:
        while not conn.poll(_OWNER_POLL):
            if os.getppid() != owner:
                return  # orphaned: no job will ever come
        try:
            job = conn.recv_bytes()
        except (EOFError, OSError):
            return  # the pool closed the pipe, or the owner died
        try:
            fn, payload, chaos, chaos_key = ForkingPickler.loads(job)
            if chaos is not None and chaos_key is not None:
                inject_worker_fault(chaos, chaos_key)
            conn.send(("ok", fn(payload)))
        except BaseException:
            try:
                conn.send(("error", traceback.format_exc(limit=20)))
            except (MemoryError, OSError):  # pragma: no cover - truly starved
                pass
            return


@dataclass(frozen=True)
class _Worker:
    """One started worker process and the parent's end of its pipe."""

    proc: Any
    conn: Any

    def stop(self) -> None:
        """Close the pipe and reap the process."""
        self.conn.close()
        _reap(self.proc)


def _stop_idle(idle: list, lock, owner: int) -> None:
    """Reap every worker on ``idle`` (a no-op in any other process)."""
    if os.getpid() != owner:
        return  # a forked copy of the pool: those workers are not ours
    with lock:
        workers, idle[:] = idle[:], []
    for worker in workers:
        worker.stop()


class WorkerPool:
    """Long-lived watched workers that :func:`run_supervised` runs jobs on.

    Workers start on first need, each with ``memory_limit`` set once as
    its ``RLIMIT_AS``, and return to the idle list after every clean
    answer; a faulted worker is never reused.  The pool therefore never
    holds more workers than calls ever ran on it at once, and needs no
    size knob.  Thread-safe: concurrent calls each check out their own
    worker.  :meth:`close` (also on leaving a ``with`` block, or when
    the pool is garbage collected) reaps the idle workers; the pool stays
    usable and starts fresh ones on demand.
    """

    def __init__(self, memory_limit: int | None = None) -> None:
        self.memory_limit = memory_limit
        #: worker processes this pool has started so far
        self.started = 0
        self._idle: list[_Worker] = []
        self._lock = threading.Lock()
        weakref.finalize(self, _stop_idle, self._idle, self._lock, os.getpid())

    def _start(self) -> _Worker:
        # the platform default (fork on Linux), as the one-shot children
        # used: a forked worker answers its first job in ~7 ms against
        # ~0.4 s for spawn, and a daemon restarted per run starts its
        # workers again; the inherited-descriptor hazards of fork are
        # what _START_LOCK and _close_inherited_sockets handle
        ctx = mp.get_context()
        with _START_LOCK:
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(child, self.memory_limit), daemon=True
            )
            proc.start()
            child.close()  # the worker's end lives in the worker now
        with self._lock:
            self.started += 1
        return _Worker(proc, parent)

    def _dispatch(self, job: bytes) -> _Worker:
        """Send ``job`` to a live worker and return that worker.

        An idle worker that died (or spoke) while idle is reaped here and
        never charged to the job; a fresh worker that dies at once is
        left for the caller's wait to classify.
        """
        while True:
            with self._lock:
                worker = self._idle.pop() if self._idle else None
            fresh = worker is None
            if fresh:
                worker = self._start()
            elif _wait_connections([worker.conn, worker.proc.sentinel], timeout=0):
                worker.stop()
                continue
            try:
                worker.conn.send_bytes(job)
            except OSError:
                if not fresh:
                    worker.stop()  # died between the check and the send
                    continue
            return worker

    def _release(self, worker: _Worker) -> None:
        with self._lock:
            self._idle.append(worker)

    def close(self) -> None:
        """Reap the idle workers."""
        _stop_idle(self._idle, self._lock, os.getpid())

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _await_reply(
    worker: _Worker, wall_limit: float | None
) -> "tuple[Any, FaultRecord | None]":
    """Wait for the job on ``worker`` to answer, die, or overrun."""
    conn, proc = worker.conn, worker.proc
    deadline = None if wall_limit is None else time.monotonic() + wall_limit
    while True:
        timeout = None
        if deadline is not None:
            timeout = max(0.0, deadline - time.monotonic())
        ready = _wait_connections([conn, proc.sentinel], timeout=timeout)
        if conn in ready:
            try:
                tag, value = conn.recv()
            except (EOFError, OSError):
                # pipe closed without a message: treat as a death
                proc.join(timeout=5.0)
                return None, _classify_death(proc.exitcode)
            if tag == "ok":
                return value, None
            proc.join(timeout=5.0)  # it reported, and now exits
            return None, _classify_fault_message(value, proc.exitcode)
        if proc.sentinel in ready:
            # dead without (yet) a message — drain the pipe once: a
            # worker can send and exit before the parent polls
            if conn.poll(0.1):
                continue
            proc.join(timeout=5.0)
            return None, _classify_death(proc.exitcode)
        # neither fired: the watchdog deadline passed
        _reap(proc)
        return None, FaultRecord(
            kind=FAULT_TIMEOUT,
            detail=(
                f"worker exceeded the {wall_limit:.3f}s watchdog "
                "deadline and was terminated"
            ),
            exitcode=proc.exitcode,
        )


def run_supervised(
    fn: Callable,
    payload,
    wall_limit: float | None = None,
    memory_limit: int | None = None,
    chaos: ChaosConfig | None = None,
    chaos_key: str | None = None,
    pool: WorkerPool | None = None,
) -> "tuple[Any, FaultRecord | None]":
    """Run ``fn(payload)`` in a watched worker; classify how it ended.

    Parameters
    ----------
    fn:
        Module-level callable (pickled by qualified name into the worker).
    payload:
        Plain picklable argument for ``fn``.
    wall_limit:
        Watchdog deadline in seconds (``None`` = wait for the sentinel
        forever — death is still detected, hangs are the caller's risk).
    memory_limit:
        ``RLIMIT_AS`` in bytes for the worker, set before any work.  With
        a ``pool`` the pool's own limit applies; a different one here is
        an error.
    chaos, chaos_key:
        Opt-in fault injection: the worker calls
        :func:`~repro.batch.chaos.inject_worker_fault` with this key
        before the job.  ``None`` injects nothing.
    pool:
        The :class:`WorkerPool` to run on, reusing its idle workers.
        ``None`` runs on a throw-away pool of one.

    Returns
    -------
    (result, fault):
        Exactly one side is meaningful: ``fault is None`` and ``result``
        is ``fn``'s return value, or ``fault`` is the classified
        :class:`FaultRecord` and ``result`` is ``None``.
    """
    if pool is None:
        with WorkerPool(memory_limit) as own:
            return run_supervised(
                fn, payload, wall_limit, chaos=chaos, chaos_key=chaos_key,
                pool=own,
            )
    if memory_limit is not None and memory_limit != pool.memory_limit:
        raise ValueError(
            f"memory_limit {memory_limit} differs from the pool's "
            f"{pool.memory_limit}"
        )
    try:
        job = ForkingPickler.dumps((fn, payload, chaos, chaos_key))
    except Exception:
        # nothing reached a worker: the job itself cannot cross over
        return None, FaultRecord(
            kind=FAULT_ERROR, detail=traceback.format_exc(limit=20)
        )
    worker = pool._dispatch(job)
    answered = False
    try:
        value, fault = _await_reply(worker, wall_limit)
        answered = fault is None
        return value, fault
    finally:
        if answered:
            pool._release(worker)
        else:
            worker.stop()  # faulted or interrupted: never reused


def _classify_fault_message(tb_text: str, exitcode: int | None) -> FaultRecord:
    """A job reported an error: Python failure, or OOM via MemoryError."""
    kind = FAULT_ERROR
    if "MemoryError" in tb_text:
        kind = FAULT_OOM
    return FaultRecord(kind=kind, detail=tb_text, exitcode=exitcode)
