"""Pluggable execution transports: *how* keyed work units run.

:func:`~repro.batch.executor.run_batch` historically hard-wired three
execution strategies — in-process serial, a ``ProcessPoolExecutor`` with
escalation of failed cells, and supervised watched workers with bounded
retries.  This module extracts that seam into a :class:`Transport`
protocol so other consumers (the solver service daemon in
:mod:`repro.service`) can run work on the exact same machinery without
going through campaign bookkeeping:

* a :class:`WorkItem` is one keyed execution request: a module-level
  worker ``fn``, a plain picklable ``payload``, and an optional wall
  budget the supervised watchdog enforces;
* a :class:`WorkResult` is how it ended: the worker's return value, or a
  classified :class:`~repro.batch.supervise.FaultRecord` once retries
  are exhausted, plus the attempt count;
* :class:`LocalPoolTransport` is the local path: serial / pool /
  supervised execution with deterministic seeded retry backoff and
  escalation of pool failures to supervision.  It owns one
  :class:`~repro.batch.supervise.WorkerPool`, so every supervised
  attempt it makes reuses the long-lived workers of earlier ones.

Workers are invoked as ``fn(payload, attempt)`` with a 0-based attempt
number so fault-injection hooks (chaos) can salt their draws per
attempt; workers that do not care simply ignore the second argument.
Both ``fn`` and ``payload`` cross process boundaries and must therefore
be module-level / plain data (the R4 pickle-safety contract).
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
from typing import Any, Protocol, runtime_checkable

from repro.batch.supervise import (
    DEFAULT_GRACE,
    FaultRecord,
    WorkerPool,
    run_supervised,
)

__all__ = [
    "WorkItem",
    "WorkResult",
    "Transport",
    "LocalPoolTransport",
    "backoff_delay",
]

#: deterministic seed salt for the retry-backoff jitter
_BACKOFF_SALT = "repro-batch-backoff"


def backoff_delay(backoff: float, key: str, attempt: int) -> float:
    """The seeded retry delay before ``attempt`` (1-based) of ``key``.

    Exponential base with a deterministic jitter drawn by hashing — no
    wall clock, no shared RNG state, so retry *decisions* replay
    byte-identically (the R1 determinism contract).
    """
    if backoff <= 0.0:
        return 0.0
    digest = hashlib.sha256(
        f"{_BACKOFF_SALT}:{key}:{attempt}".encode()
    ).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2**64
    return backoff * (2 ** (attempt - 1)) * jitter


@dataclass(frozen=True)
class WorkItem:
    """One keyed execution request handed to a transport.

    Attributes
    ----------
    key:
        Stable identity of the work (a cell key, a request key); retry
        backoff is seeded by it and results echo it back.
    fn:
        Module-level worker invoked as ``fn(payload, attempt)``; must
        pickle by qualified name (R4).
    payload:
        Plain picklable argument for ``fn``.
    wall_limit:
        Nominal wall budget in seconds; supervised executions grant the
        watchdog this plus the transport's grace.  ``None`` = unbounded.
    """

    key: str
    fn: Callable
    payload: Any
    wall_limit: float | None = None


@dataclass
class WorkResult:
    """How one :class:`WorkItem` ended.

    Exactly one of ``value`` / ``fault`` is meaningful: ``fault is
    None`` and ``value`` is the worker's return, or ``fault`` is the
    classified record of the *last* failed attempt.  ``attempts`` counts
    every execution that happened (pool attempts included), so consumers
    derive "was retried" as ``attempts > 1``.
    """

    key: str
    value: Any = None
    fault: FaultRecord | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """True iff the worker answered (possibly after retries)."""
        return self.fault is None


@runtime_checkable
class Transport(Protocol):
    """The execution seam: run keyed work, stream results as they finish.

    ``execute`` yields one :class:`WorkResult` per item, in whatever
    order executions complete; it must yield a result for *every* item
    (faults included) — a transport never drops work.
    """

    def execute(self, items: Sequence[WorkItem]) -> Iterator[WorkResult]:
        """Run every item; yield results as they complete."""
        ...  # pragma: no cover - protocol signature


def _call(fn: Callable, payload: Any, attempt: int) -> Any:
    """Pool worker shim: invoke ``fn(payload, attempt)`` (picklable)."""
    return fn(payload, attempt)


def _supervised_call(packed: tuple) -> Any:
    """Supervised-worker shim: unpack ``(fn, payload, attempt)`` and run."""
    fn, payload, attempt = packed
    return fn(payload, attempt)


class LocalPoolTransport:
    """Today's local execution path behind the :class:`Transport` seam.

    Three strategies, selected exactly as ``run_batch`` always has:

    * ``supervised=True`` — every item runs in a watched worker of the
      transport's :attr:`pool`
      (:func:`~repro.batch.supervise.run_supervised`) with bounded
      deterministic retries; ``jobs`` watcher threads wait in parallel,
      so at most ``jobs`` workers are ever started while none faults;
    * ``jobs == 1`` — in-process execution (no pool, no pickling,
      bit-compatible with the historical serial runner); a raising item
      escalates to the supervised retry loop;
    * ``jobs > 1`` — a ``ProcessPoolExecutor`` fast path; any failed
      future (including a pool-breaking worker death) escalates to
      supervised workers in original item order, so a batch *always
      completes*.

    Idle supervised workers live until :meth:`close` (or the end of a
    ``with`` block); the transport stays usable after it.
    """

    def __init__(
        self,
        jobs: int = 1,
        supervised: bool = False,
        retries: int = 1,
        memory_limit: int | None = None,
        grace: float = DEFAULT_GRACE,
        backoff: float = 0.0,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.supervised = supervised
        self.retries = retries
        self.grace = grace
        self.backoff = backoff
        #: the watched workers every supervised attempt runs on
        self.pool = WorkerPool(memory_limit)

    def close(self) -> None:
        """Reap the idle supervised workers."""
        self.pool.close()

    def __enter__(self) -> "LocalPoolTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- supervised path ----------------------------------------------------
    def _run_with_retries(self, item: WorkItem, base_attempts: int = 0) -> WorkResult:
        """One item on watched workers until it answers or retries run out.

        ``base_attempts`` counts executions already burned elsewhere (a
        failed pool attempt); it rides into ``WorkResult.attempts`` but
        not into the fault record, whose ``attempts`` is the supervised
        loop's own count (the historical journal-visible convention).
        """
        wall = None if item.wall_limit is None else item.wall_limit + self.grace
        last_fault: FaultRecord | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                delay = backoff_delay(self.backoff, item.key, attempt)
                if delay > 0.0:
                    time.sleep(delay)
            value, fault = run_supervised(
                _supervised_call,
                (item.fn, item.payload, attempt),
                wall_limit=wall,
                pool=self.pool,
            )
            if fault is None:
                return WorkResult(
                    key=item.key,
                    value=value,
                    attempts=base_attempts + attempt + 1,
                )
            last_fault = fault
        assert last_fault is not None
        return WorkResult(
            key=item.key,
            fault=replace(last_fault, attempts=self.retries + 1),
            attempts=base_attempts + self.retries + 1,
        )

    def _execute_supervised(
        self, items: Sequence[WorkItem], base_attempts: int = 0
    ) -> Iterator[WorkResult]:
        """Run these items on watched workers, ``jobs`` wide."""
        if self.jobs == 1 or len(items) == 1:
            for item in items:
                yield self._run_with_retries(item, base_attempts)
            return
        from concurrent.futures import ThreadPoolExecutor, as_completed

        # threads only *wait* on supervised workers; the work runs in
        # the pool's watched processes
        with ThreadPoolExecutor(max_workers=self.jobs) as waiters:
            tasks = [
                waiters.submit(self._run_with_retries, item, base_attempts)
                for item in items
            ]
            for fut in as_completed(tasks):
                yield fut.result()

    # -- in-process path ----------------------------------------------------
    def _execute_serial(self, items: Sequence[WorkItem]) -> Iterator[WorkResult]:
        for item in items:
            try:
                value = item.fn(item.payload, 0)
            except Exception:
                # escalate: retry on supervised workers, classify there
                yield self._run_with_retries(item, base_attempts=1)
            else:
                yield WorkResult(key=item.key, value=value, attempts=1)

    # -- pool path ----------------------------------------------------------
    def _execute_pool(self, items: Sequence[WorkItem]) -> Iterator[WorkResult]:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        escalate: set[int] = set()
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            futures = {
                pool.submit(_call, item.fn, item.payload, 0): item
                for item in items
            }
            for fut in as_completed(futures):
                item = futures[fut]
                try:
                    value = fut.result()
                except Exception:
                    # a worker exception or a broken pool (one SIGKILLed
                    # worker fails every in-flight future): never abort —
                    # escalate those items below
                    escalate.add(id(item))
                    continue
                yield WorkResult(key=item.key, value=value, attempts=1)
        if escalate:
            # recovery pass in original item order: pool-breakage
            # victims simply succeed here, repeat offenders classify
            yield from self._execute_supervised(
                [it for it in items if id(it) in escalate], base_attempts=1
            )

    def execute(self, items: Sequence[WorkItem]) -> Iterator[WorkResult]:
        """Run every item on the configured local strategy."""
        if not items:
            return
        if self.supervised:
            yield from self._execute_supervised(items)
        elif self.jobs == 1:
            yield from self._execute_serial(items)
        else:
            yield from self._execute_pool(items)
