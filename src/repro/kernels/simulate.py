"""Block-stepping core for the discrete-time priority schedulers.

The scalar simulator (:mod:`repro.baselines.simulator`) advances one
slot at a time: release scan, priority sort, history write, decrement —
``O(n)`` Python work per slot, ``O(n T)`` per hyperperiod.  But between
two *scheduling events* — a job release, a running job's completion, an
active job's deadline, a hyperperiod boundary — the set of running jobs
cannot change, so the schedule is constant and the whole stretch can be
executed as one block: fill ``Δ`` history columns, subtract ``Δ`` from
every running job's remaining work, jump ``t += Δ``.  Block endpoints
are exactly the instants at which the scalar loop could have done
anything observable, so every release count, priority pick, miss time
and hyperperiod-aligned state snapshot is **byte-identical** to the
slot-by-slot loop — only faster, by roughly the mean block length
(wcet-sized stretches instead of single slots).

The history matrix is a plain list of rows, which
:class:`~repro.schedule.schedule.Schedule` accepts as is.

Only *static* priority keys are supported — keys that depend on the
job's release data, not on elapsed execution:

* ``"edf"`` — earliest absolute deadline first, ties by task index;
* ``"rank"`` — fixed task ranks (global fixed-priority).

A dynamic key (e.g. least laxity) could reorder jobs mid-block, which
is why :func:`repro.baselines.simulator.simulate_priority_policy` only
routes through here when the caller declares its key static.

This module is a leaf: no imports from ``repro.csp`` / ``repro.model``
/ ``repro.baselines`` (the idle marker is a parameter for that reason).
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Sequence

__all__ = ["simulate_static", "STATIC_EDF", "STATIC_RANK"]

#: static-key names accepted by :func:`simulate_static`
STATIC_EDF = "edf"
STATIC_RANK = "rank"


def _fill_block(history: list[list[int]], running: list[int], col: int,
                width: int, idle: int) -> None:
    """Write one constant block: ``running[k]`` on row ``k``, idle below."""
    end = col + width
    for row, task in zip(history, running):
        row[col:end] = [task] * width
    for row in history[len(running):]:
        row[col:end] = [idle] * width


def simulate_static(
    offsets: Sequence[int],
    periods: Sequence[int],
    wcets: Sequence[int],
    deadlines: Sequence[int],
    T: int,
    m: int,
    key: str,
    rank: Sequence[int] | None = None,
    max_cycles: int = 64,
    idle: int = -1,
):
    """Run the block-stepping simulation until decisive.

    Returns ``(schedulable, missed, cycles_simulated, history)`` with
    exactly the scalar loop's semantics: ``schedulable`` True on a
    repeated hyperperiod-aligned state (``history`` then holds the last
    simulated hyperperiod, the repeating cycle), False on the first
    deadline miss (``missed`` is the scalar loop's first-by-task-index
    ``(task, release, deadline)``), None when ``max_cycles``
    hyperperiods past the largest offset pass without either.
    """
    if key == STATIC_RANK:
        if rank is None:
            raise ValueError("key='rank' requires a rank vector")
    elif key != STATIC_EDF:
        raise ValueError(f"unknown static key {key!r}")
    n = len(wcets)
    o_max = max(offsets)
    start_check = ((o_max + T - 1) // T) * T  # first aligned state snapshot
    horizon = start_check + max_cycles * T

    # per task: the active job's (release, abs_deadline, remaining)
    release = [0] * n
    abs_dl = [0] * n
    remaining = [0] * n  # 0 = no active job
    next_release = list(offsets)

    history = [[idle] * T for _ in range(m)]
    prev_state: tuple | None = None
    #: the standing priority queue of active jobs, sorted by static key
    #: — maintained incrementally (insort on release, filter on
    #: completion) instead of the per-slot rebuild of the scalar loop
    queue: list[tuple[int, int]] = []

    t = 0
    while t <= horizon:
        if t >= start_check and t % T == 0:
            state = tuple(
                (remaining[i], release[i] - t) if remaining[i] else None
                for i in range(n)
            )
            if state == prev_state:
                return True, None, t // T, history
            prev_state = state
        if t == horizon:
            break

        # releases at time t: insert each new job into the standing
        # priority queue (constrained deadlines guarantee the task has
        # no live entry — an incomplete predecessor would have missed
        # at or before this release, and windows stop at deadlines).
        # The slot-by-slot loop's per-slot release scan fires only at
        # these instants, since windows always stop at the next release.
        for i in range(n):
            if next_release[i] == t:
                next_release[i] += periods[i]
                if wcets[i] > 0:
                    release[i] = t
                    dl = t + deadlines[i]
                    abs_dl[i] = dl
                    remaining[i] = wcets[i]
                    insort(
                        queue, (dl, i) if key == STATIC_EDF else (rank[i], i)
                    )

        # the window: no release, no active job's deadline, no aligned
        # snapshot (multiples of T) strictly inside it — the only
        # scheduling events within are job completions
        w = T - t % T
        nr = min(next_release) - t
        if nr < w:
            w = nr
        if key == STATIC_EDF:
            if queue:  # EDF queue is deadline-sorted: clamp is its head
                d = queue[0][0] - t
                if d < w:
                    w = d
        else:
            for _, i in queue:
                d = abs_dl[i] - t  # stop *at* the earliest active deadline
                if d < w:
                    w = d
        window_end = t + (w if w > 0 else 1)  # due-now deadline: one slot

        # staircase inside the window: the top-m remaining jobs run;
        # when one completes, the next queued job steps onto its row —
        # exactly what the per-slot sort-and-pick produces, since the
        # static order is fixed and completed jobs drop out of the sort
        while t < window_end:
            running = [i for _, i in queue[:m]]
            delta = window_end - t
            for i in running:
                r = remaining[i]
                if r < delta:
                    delta = r
            _fill_block(history, running, t % T, delta, idle)
            completed = False
            for i in running:
                left = remaining[i] - delta
                remaining[i] = left
                if not left:
                    completed = True
            t += delta
            if completed:
                queue = [e for e in queue if remaining[e[1]]]
                if not queue and t < window_end:
                    _fill_block(history, [], t % T, window_end - t, idle)
                    t = window_end

        # miss check: remaining work at (or past) the absolute deadline.
        # Every active job's deadline is >= window_end by the clamp, so
        # no miss can occur strictly inside the window — this check
        # fires at the same t, for the same first task index, as the
        # per-slot loop's
        for i in range(n):
            if remaining[i] and t >= abs_dl[i]:
                return False, (i, release[i], abs_dl[i]), t // T, None

    return None, None, max_cycles, None
