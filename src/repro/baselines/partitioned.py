"""Partitioned scheduling baseline (the paper's other paradigm, Section I).

The paper contrasts *global* scheduling (tasks and jobs migrate) with
*partitioned* scheduling (every job of a task runs on one fixed
processor); its related work [5] solves the partitioned case with
constraint programming.  This module provides the partitioned side so the
two paradigms can be compared on identical instances:

* per-processor feasibility is decided *exactly*
  (:func:`uniprocessor_edf_feasible`).  EDF is optimal on one processor,
  and three arithmetic arguments settle most bins without simulating:
  utilization above 1 rejects; the synchronous processor-demand
  criterion (``dbf(t) <= t`` at every absolute deadline in the
  synchronous busy period) accepts, because the synchronous release
  pattern is the worst case (Baruah, Rosier & Howell 1990); and when all
  offsets are equal that criterion is exact, so its failure rejects.
  Only an asynchronous bin that fails the criterion runs the
  uniprocessor EDF simulation, whose periodicity detection makes the
  verdict a proof (offsets can make such a bin feasible after all);
* :func:`first_fit_partition` is the classic utilization-ordered
  first-fit-decreasing heuristic;
* :func:`exact_partition` searches all task-to-processor assignments
  (set-partition enumeration with symmetry pruning), so "no partition
  exists" is also a proof.

Global scheduling dominates partitioned scheduling: some systems are
globally feasible but admit no partition (see
``examples/partitioned_vs_global.py``), while every partitioned schedule
is trivially a global one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from repro.baselines.priorities import global_edf
from repro.model.system import TaskSystem
from repro.model.task import Task
from repro.util.timer import Deadline

__all__ = [
    "PartitionResult",
    "uniprocessor_edf_feasible",
    "first_fit_partition",
    "exact_partition",
]


@dataclass
class PartitionResult:
    """Outcome of a partitioning attempt.

    ``assignment[i]`` is the processor of task ``i``; None when no
    partition was found.  ``exact`` tells whether a negative answer is a
    proof (exhaustive search completed) or just the heuristic giving up.
    """

    assignment: list[int] | None
    exact: bool
    partitions_tried: int = 0

    @property
    def found(self) -> bool:
        return self.assignment is not None


def uniprocessor_edf_feasible(tasks: list[Task], max_cycles: int = 64) -> bool:
    """Exact uniprocessor feasibility (EDF is optimal on one processor,
    so EDF-schedulable <=> feasible).

    Three exact arguments decide a bin before any simulation, in this
    order:

    1. utilization above 1 (in integers over the bin's hyperperiod)
       rejects;
    2. the synchronous processor-demand criterion accepts: the
       synchronous release pattern is the worst case (Baruah, Rosier &
       Howell 1990), so ``dbf(t) <= t`` at every absolute deadline in the
       synchronous busy period proves every offset pattern feasible;
    3. when all offsets are equal the bin *is* synchronous, so the
       criterion's failure rejects.

    Only the remaining asynchronous bins run the uniprocessor EDF
    simulation; it raises RuntimeError when it does not converge within
    ``max_cycles`` hyperperiods.  Tasks with ``wcet = 0`` release no work
    and are ignored by the arithmetic.
    """
    if not tasks:
        return True
    if not all(t.is_constrained for t in tasks):
        raise ValueError(
            "uniprocessor EDF test requires constrained deadlines (clone first)"
        )
    work = [t for t in tasks if t.wcet > 0]
    if not work:
        return True
    hyper = lcm(*(t.period for t in work))
    if sum(t.wcet * (hyper // t.period) for t in work) > hyper:
        return False
    if _synchronous_demand_ok(work):
        return True
    if all(t.offset == work[0].offset for t in work):
        return False
    sim = global_edf(TaskSystem(tasks), 1, max_cycles=max_cycles)
    if sim.schedulable is None:
        raise RuntimeError(
            "uniprocessor simulation did not converge; raise max_cycles"
        )
    return bool(sim.schedulable)


def _synchronous_demand_ok(tasks: list[Task]) -> bool:
    """Processor-demand criterion for the synchronous release pattern.

    ``tasks`` have positive wcets and utilization at most 1, so the
    synchronous busy period ``L`` (least fixpoint of
    ``L = sum ceil(L / T) C``) exists and is at most the hyperperiod;
    ``dbf(t) <= t`` need only hold at the absolute deadlines ``t <= L``.
    """
    busy = sum(t.wcet for t in tasks)
    while True:
        nxt = sum(-(-busy // t.period) * t.wcet for t in tasks)
        if nxt == busy:
            break
        busy = nxt
    deadlines = sorted(
        (d, t.wcet)
        for t in tasks
        for d in range(t.deadline, busy + 1, t.period)
    )
    demand = 0
    for d, wcet in deadlines:
        demand += wcet
        if demand > d:
            return False
    return True


def first_fit_partition(
    system: TaskSystem, m: int, max_cycles: int = 64
) -> PartitionResult:
    """First-fit decreasing (by density) with the exact bin test of
    :func:`uniprocessor_edf_feasible`."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    order = sorted(
        range(system.n), key=lambda i: (system[i].density, i), reverse=True
    )
    bins: list[list[Task]] = [[] for _ in range(m)]
    assignment = [-1] * system.n
    tried = 0
    for i in order:
        placed = False
        for j in range(m):
            tried += 1
            if uniprocessor_edf_feasible(bins[j] + [system[i]], max_cycles):
                bins[j].append(system[i])
                assignment[i] = j
                placed = True
                break
        if not placed:
            return PartitionResult(None, exact=False, partitions_tried=tried)
    return PartitionResult(assignment, exact=True, partitions_tried=tried)


def exact_partition(
    system: TaskSystem,
    m: int,
    time_limit: float | None = None,
    max_cycles: int = 64,
) -> PartitionResult:
    """Exhaustive search over task partitions into ``<= m`` processors.

    Processors are identical, so assignments are enumerated in canonical
    form (task 0 on processor 0; each later task on a used processor or
    the next fresh one), cutting the ``m^n`` space by the symmetry factor.
    Infeasible bins prune their whole subtree.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    deadline = Deadline(time_limit)
    assignment = [-1] * system.n
    bins: list[list[Task]] = [[] for _ in range(m)]
    tried = 0
    timed_out = False

    def descend(i: int, used: int) -> list[int] | None:
        nonlocal tried, timed_out
        if timed_out or deadline.expired():
            timed_out = True
            return None
        if i == system.n:
            return assignment.copy()
        limit = min(used + 1, m)  # canonical: at most one fresh processor
        for j in range(limit):
            tried += 1
            bins[j].append(system[i])
            if uniprocessor_edf_feasible(bins[j], max_cycles):
                assignment[i] = j
                found = descend(i + 1, max(used, j + 1))
                if found is not None:
                    return found
            bins[j].pop()
            assignment[i] = -1
        return None

    found = descend(0, 0)
    return PartitionResult(
        found, exact=not timed_out, partitions_tried=tried
    )
