"""Parallel batch solving: the (instance x solver) campaign engine.

The paper's experiments (Tables I-IV) are big matrices of independent
(instance, solver) runs — embarrassingly parallel, expensive, and painful
to lose to a crash at cell 4,987 of 5,000.  This package turns such
campaigns into first-class objects:

* :mod:`repro.batch.cells` — the picklable work unit and the single
  worker function (:func:`solve_cell`) every execution path shares;
* :mod:`repro.batch.cache` — a content-addressed on-disk cache so any
  cell ever solved under the same (system, solver, budget, seed) key is
  never solved again, across campaigns;
* :mod:`repro.batch.executor` — :func:`run_batch`: process-pool
  execution with one worker per ``--jobs``, streaming JSONL journaling,
  and crash-safe ``--resume``;
* :mod:`repro.batch.racing` — :func:`race`: the complementary
  primitive for the ``portfolio:`` meta-solver — several attempts at
  the *same* cell, first decisive answer wins, losers terminated;
* :mod:`repro.batch.supervise` — :func:`run_supervised`: one work unit
  on a long-lived watched worker of a :class:`WorkerPool`, with wall
  watchdog, optional address-space rlimit and fault classification
  (a faulted worker is replaced, never reused; the layer that makes
  ``run_batch`` campaigns *always complete*, journaling dead cells as
  ``fault:*`` records after bounded deterministic retries);
* :mod:`repro.batch.chaos` — :class:`ChaosConfig`: seeded deterministic
  fault injection (crash / hang / oom / error / torn journal writes)
  for testing all of the above without real hardware failures;
* :mod:`repro.batch.transport` — the :class:`Transport` execution seam:
  :class:`LocalPoolTransport` is the serial/pool/supervised local path
  ``run_batch`` always used, now pluggable so other consumers (the
  solver service in :mod:`repro.service`) run on the same machinery;
* :mod:`repro.batch.journal` — crash-safe JSONL journal primitives:
  :func:`load_journal` (torn-line tolerant, last-line-wins),
  :func:`trim_torn_tail` and :func:`merge_journals` (N shard journals
  -> one canonical-order journal).

``repro.experiments.runner.run_instances`` is a thin shim over this
layer (``jobs=1``, no cache) and every table/benchmark driver and the
``repro batch`` CLI route through it.
"""

from repro.batch.cache import ReportCache, ResultCache
from repro.batch.cells import Cell, cell_key, cells_for_matrix, solve_cell
from repro.batch.chaos import ChaosConfig, ChaosError
from repro.batch.executor import BatchReport, run_batch
from repro.batch.journal import (
    MergeReport,
    load_journal,
    merge_journals,
    trim_torn_tail,
)
from repro.batch.transport import (
    LocalPoolTransport,
    Transport,
    WorkItem,
    WorkResult,
)
from repro.batch.supervise import (
    FAULT_CRASH,
    FAULT_ERROR,
    FAULT_OOM,
    FAULT_TIMEOUT,
    FaultRecord,
    WorkerPool,
    run_supervised,
)

__all__ = [
    "Cell",
    "cell_key",
    "cells_for_matrix",
    "solve_cell",
    "ResultCache",
    "ReportCache",
    "BatchReport",
    "load_journal",
    "trim_torn_tail",
    "merge_journals",
    "MergeReport",
    "run_batch",
    "Transport",
    "LocalPoolTransport",
    "WorkItem",
    "WorkResult",
    "ChaosConfig",
    "ChaosError",
    "FaultRecord",
    "WorkerPool",
    "run_supervised",
    "FAULT_CRASH",
    "FAULT_ERROR",
    "FAULT_OOM",
    "FAULT_TIMEOUT",
]
