"""The paper's dedicated CSP2 search (Section V-C), reimplemented.

Chronological backtracking: decisions advance slot by slot (``t = 0..T-1``);
within a slot the search picks *which tasks run*.  The paper's three search
rules are all here:

1. **Variable ordering** — time first, then processor id (Section V-C-1).
2. **Value ordering** — candidate tasks tried in RM / DM / (T-C) / (D-C)
   order, or task-index order for plain CSP2 (Section V-C-2).
3. **Added rules** (Section V-C-3):
   * *idle rule*: a processor idles only when no available task remains —
     sound on identical processors by an exchange argument (docs/
     ARCHITECTURE.md, "Design notes"), so each slot schedules exactly
     ``min(m, #available)`` tasks;
   * *symmetry breaking* (10): per slot only task *sets* are enumerated
     (ascending on ascending processor ids), dividing the branching by up
     to ``m!``.

On top of these, two prunings:

* *demand pruning* (on by default): a window with ``rem`` units left and
  ``a`` scan-slots left (including the current one) is dead when
  ``rem > a``, and *forces* its task into the current slot when
  ``rem == a`` — the "most constrained first" grouping of Section III-B;
  with it off, only the window-end exactness check (constraint (9) itself)
  remains.
* *energetic pruning* (off by default, an extension): total remaining
  demand must fit in ``m * (T - t)`` remaining processor-slots.

Heterogeneous/uniform platforms (Section VI-A) switch to per-processor
decisions: processors are visited least-capable-first (quality measure
``Q(P_j)``), value order prefers tasks runnable on few processors, the
idle rule is dropped (idling can beat running on a slow processor, so the
exchange argument fails), and symmetry rule (13) applies within maximal
groups of identical processors only.

Per-slot state (each task's active window and its remaining slots) is a
pure function of ``(task, slot)``, computed in O(1) from the task
parameters and kept in a lazily filled per-slot window table, so a node
reads its slot's active windows instead of recomputing them for every
task.  The table is cleared whenever it outgrows ``_WINDOW_CACHE_CELLS``
entries, and remaining demands live in a sparse dict — so an n=256,
T=360360 Table IV instance costs memory proportional to the slots
actually *visited*, not to ``sum_i T/T_i`` windows.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.schedule.schedule import IDLE, Schedule
from repro.solvers.base import Feasibility, SolveResult, SolverStats
from repro.solvers.ordering import task_order
from repro.solvers.registry import EXACT, PROVES_INFEASIBILITY, register_solver
from repro.util.timer import Deadline

__all__ = ["Csp2DedicatedSolver"]

#: window-table size (task entries, ~128 bytes each) past which the table
#: is cleared; bounds its memory to ~8 MB on long hyperperiods with many
#: tasks (a Table IV instance has n = 256, T = 360360)
_WINDOW_CACHE_CELLS = 1 << 16


class _Frame:
    """One search node (a slot, or a (slot, processor) pair)."""

    __slots__ = ("t", "j", "pos", "choices", "applied", "chosen")

    def __init__(self, t: int, j: int, pos: int, choices) -> None:
        self.t = t
        self.j = j          # actual processor id (general mode)
        self.pos = pos      # position in the processor visit order
        self.choices = choices
        self.applied: list | None = None  # undo log of the active choice
        self.chosen = None


class Csp2DedicatedSolver:
    """Hand-rolled chronological solver for CSP2 (identical & heterogeneous).

    Parameters
    ----------
    heuristic:
        None (task-index order), ``rm``, ``dm``, ``tc`` or ``dc``.
    symmetry_breaking:
        Paper rule (10)/(13).  Turning it off enumerates task *tuples*
        instead of sets on identical platforms (ablation).
    idle_rule:
        Paper's "no idle while work is available" rule (identical
        platforms only; ignored otherwise).
    demand_pruning:
        Window lookahead ``rem <= slots_left`` with forced tasks.
    energetic_pruning:
        Aggregate capacity check (extension, default off).
    """

    def __init__(
        self,
        system: TaskSystem,
        platform: Platform,
        heuristic: str | None = None,
        symmetry_breaking: bool = True,
        idle_rule: bool = True,
        demand_pruning: bool = True,
        energetic_pruning: bool = False,
    ) -> None:
        if not system.is_constrained:
            raise ValueError(
                "the dedicated CSP2 solver needs a constrained-deadline system; "
                "apply clone_for_arbitrary_deadlines() first (Section VI-B)"
            )
        self.system = system
        self.platform = platform
        self.heuristic = heuristic
        self.symmetry_breaking = symmetry_breaking
        self.idle_rule = idle_rule
        self.demand_pruning = demand_pruning
        self.energetic_pruning = energetic_pruning
        self.name = f"csp2{'+' + heuristic if heuristic else ''}"

        n = system.n
        self._T = system.hyperperiod
        self._m = platform.m
        self._phase = [t.phase for t in system]
        self._period = [t.period for t in system]
        self._deadline = [t.deadline for t in system]
        self._wcet = [t.wcet for t in system]
        # heuristic rank: lower = try first
        order = task_order(system, heuristic)
        self._rank = [0] * n
        for pos, i in enumerate(order):
            self._rank[i] = pos
        self._rates = platform.rate_matrix(n)
        self._rate_rows: list[list[int]] = self._rates.tolist()
        #: slot -> (row, keys), see :meth:`_windows`
        self._window_cache: dict[int, tuple[tuple, tuple]] = {}
        self._window_cache_slots = max(1, _WINDOW_CACHE_CELLS // max(1, n))
        self._max_rate = [int(r) for r in self._rates.max(axis=1)]
        #: loose per-slot platform capacity for the energetic check
        self._slot_capacity = int(self._rates.max(axis=0).sum())
        self._identical = platform.is_identical
        if not self._identical:
            # processor visit order: least capable first, groups adjacent
            quality = platform.quality(system)
            self._proc_order = sorted(
                range(self._m),
                key=lambda j: (quality[j], self._rates[:, j].tobytes(), j),
            )
            # previous processor in visit order iff identical rate column
            self._same_as_prev = [False] * self._m
            for pos in range(1, self._m):
                a, b = self._proc_order[pos - 1], self._proc_order[pos]
                self._same_as_prev[b] = bool(
                    np.array_equal(self._rates[:, a], self._rates[:, b])
                )
            # tasks runnable on few processors get priority (Section VI-A)
            eligible_count = (self._rates > 0).sum(axis=1)
            self._rank = [
                (int(eligible_count[i]), self._rank[i]) for i in range(n)
            ]

    # -- O(1) window helpers ----------------------------------------------------
    def _active_job(self, i: int, t: int) -> int | None:
        delta = (t - self._phase[i]) % self._T
        job, within = divmod(delta, self._period[i])
        return job if within < self._deadline[i] else None

    def _slots_left(self, i: int, job: int, t: int) -> int:
        """Scan-order window slots of (i, job) at position >= t (inclusive)."""
        T = self._T
        r = self._phase[i] + job * self._period[i]
        end = r + self._deadline[i] - 1
        slot = t - 1  # count slots strictly after t-1
        count = 0
        if end < T:
            if slot < end:
                count = end - max(slot, r - 1)
        else:
            tail_end = end - T
            if slot < T - 1:
                count += (T - 1) - max(slot, r - 1)
            if slot < tail_end:
                count += tail_end - slot
        return count

    def _windows(self, t: int) -> tuple[tuple, tuple]:
        """Window table of slot ``t``: ``(row, keys)``, filled on first use.

        ``row`` lists ``(i, (i, job), left)`` for every task ``i`` with an
        active window at ``t``, ascending ``i``, where ``left`` is
        :meth:`_slots_left` at ``t``; ``keys[i]`` is ``(i, job)``, or None
        for a task with no active window.
        """
        entry = self._window_cache.get(t)
        if entry is None:
            cache = self._window_cache
            if len(cache) >= self._window_cache_slots:
                cache.clear()
            row = []
            keys: list = [None] * self.system.n
            for i in range(self.system.n):
                job = self._active_job(i, t)
                if job is not None:
                    key = keys[i] = (i, job)
                    row.append((i, key, self._slots_left(i, job, t)))
            entry = cache[t] = (tuple(row), tuple(keys))
        return entry

    # -- public API -----------------------------------------------------------
    def solve(
        self, time_limit: float | None = None, node_limit: int | None = None
    ) -> SolveResult:
        """Chronological slot-by-slot search (Section V) under the budgets.

        Returns FEASIBLE with a validated cyclic schedule, INFEASIBLE if
        the space is exhausted, or UNKNOWN (the paper's overrun) when a
        budget expires first.
        """
        deadline = Deadline(time_limit)
        stats = SolverStats()

        def result(status: Feasibility, schedule: Schedule | None = None) -> SolveResult:
            stats.elapsed = deadline.elapsed()
            return SolveResult(
                status=status, schedule=schedule, stats=stats, solver_name=self.name
            )

        # cheap necessary conditions (identical: one unit per slot max)
        for i in range(self.system.n):
            if self._wcet[i] > self._deadline[i] * self._max_rate[i]:
                return result(Feasibility.INFEASIBLE)

        if self._identical:
            return self._search_identical(deadline, stats, node_limit, result)
        return self._search_general(deadline, stats, node_limit, result)

    # -- identical platforms: one frame per slot, choices are task sets --------
    def _slot_candidates(self, t: int, dem: dict) -> tuple[list[int], list[int]] | None:
        """(required, optional) candidate tasks at slot ``t``; None = dead end."""
        required: list[int] = []
        optional: list[int] = []
        wcet = self._wcet
        for i, key, left in self._windows(t)[0]:  # left includes slot t
            rem = dem.get(key, wcet[i])
            if rem == 0:
                continue
            if self.demand_pruning:
                if rem > left:
                    return None
                (required if rem == left else optional).append(i)
            else:
                # only window-end exactness (constraint (9) itself)
                if left == 1:
                    if rem > 1:
                        return None
                    required.append(i)
                else:
                    optional.append(i)
        return required, optional

    def _slot_choices(self, required: list[int], optional: list[int]):
        """Iterator over per-slot task selections (tuples, processor-ordered)."""
        m = self._m
        if len(required) > m:
            return iter(())
        key = self._rank.__getitem__
        required = sorted(required, key=key)
        optional = sorted(optional, key=key)
        free = m - len(required)

        def subsets():
            if self.idle_rule:
                take = min(free, len(optional))
                sizes = [take]
            else:
                sizes = range(min(free, len(optional)), -1, -1)
            for size in sizes:
                for combo in combinations(optional, size):
                    yield tuple(sorted(required + list(combo)))

        if self.symmetry_breaking:
            return subsets()
        return (perm for s in subsets() for perm in permutations(s))

    def _search_identical(self, deadline, stats, node_limit, result) -> SolveResult:
        T = self._T
        m = self._m
        dem: dict[tuple[int, int], int] = {}
        wcet = self._wcet
        total_rem = self.system.total_demand()

        def expand(t: int) -> _Frame | None:
            if self.energetic_pruning and total_rem > m * (T - t):
                return None
            cands = self._slot_candidates(t, dem)
            if cands is None:
                return None
            return _Frame(t, 0, 0, self._slot_choices(*cands))

        root = expand(0)
        if root is None:
            return result(Feasibility.INFEASIBLE)
        frames = [root]
        check_tick = 0
        while frames:
            check_tick += 1
            if check_tick >= 64:
                check_tick = 0
                if deadline.expired() or (
                    node_limit is not None and stats.nodes >= node_limit
                ):
                    return result(Feasibility.UNKNOWN)
            f = frames[-1]
            if f.applied is not None:
                for key, old in f.applied:
                    dem[key] = old
                total_rem += len(f.applied)
                f.applied = None
            choice = next(f.choices, None)
            if choice is None:
                frames.pop()
                continue
            stats.nodes += 1
            if len(frames) > stats.max_depth:
                stats.max_depth = len(frames)
            undo = []
            keys = self._windows(f.t)[1]
            for i in choice:
                key = keys[i]
                rem = dem.get(key, wcet[i])
                undo.append((key, rem))
                dem[key] = rem - 1
            total_rem -= len(undo)
            f.applied = undo
            f.chosen = choice
            t_next = f.t + 1
            if t_next == T:
                return result(Feasibility.FEASIBLE, self._build_identical(frames))
            nxt = expand(t_next)
            if nxt is None:
                stats.fails += 1
                continue
            frames.append(nxt)
        return result(Feasibility.INFEASIBLE)

    def _build_identical(self, frames: list[_Frame]) -> Schedule:
        table = np.full((self._m, self._T), IDLE, dtype=np.int32)
        for f in frames:
            for pos, i in enumerate(f.chosen):
                table[pos, f.t] = i
        return Schedule(self.system, self.platform, table)

    @staticmethod
    def _restore(dem: dict, f: _Frame) -> int:
        """Undo a frame's applied choice; returns the demand units restored."""
        restored = 0
        for key, old in f.applied:
            restored += old - dem[key]
            dem[key] = old
        f.applied = None
        return restored

    # -- uniform/heterogeneous: one frame per (slot, processor) ----------------
    def _proc_candidates(
        self, t: int, j: int, dem: dict, running: set[int], prev_val: int | None
    ) -> list[int]:
        """Ordered values for processor ``j`` at slot ``t`` (idle == n)."""
        n = self.system.n
        wcet = self._wcet
        rates = self._rate_rows
        cands = []
        for i, key, _left in self._windows(t)[0]:
            if i in running:
                continue
            rate = rates[i][j]
            if rate == 0:
                continue
            rem = dem.get(key, wcet[i])
            if rem == 0 or rate > rem:  # exactness: never overshoot
                continue
            cands.append(i)
        cands.sort(key=self._rank.__getitem__)
        # symmetry rule (13): within an identical group, ascending task ids
        # (idle ranks last); prev_val == n means the previous proc idled.
        if prev_val is not None:
            if prev_val >= n:
                cands = []
            else:
                cands = [i for i in cands if i > prev_val]
        cands.append(n)  # idle, always tried last (no idle rule here)
        return cands

    def _slot_entry_ok(self, t: int, dem: dict) -> bool:
        """Pruning checks when the search reaches the start of slot ``t``."""
        wcet = self._wcet
        if t > 0:
            # windows that ended at t-1 must be exactly complete
            for i, key, left in self._windows(t - 1)[0]:
                if left == 1 and dem.get(key, wcet[i]) != 0:
                    return False
        if self.demand_pruning:
            max_rate = self._max_rate
            for i, key, left in self._windows(t)[0]:
                if dem.get(key, wcet[i]) > left * max_rate[i]:
                    return False
        return True

    def _search_general(self, deadline, stats, node_limit, result) -> SolveResult:
        T = self._T
        m = self._m
        n = self.system.n
        dem: dict[tuple[int, int], int] = {}
        wcet = self._wcet
        rates = self._rate_rows
        proc_order = self._proc_order
        frames: list[_Frame] = []
        total_rem = self.system.total_demand()

        def expand(t: int, pos: int) -> _Frame | None:
            if pos == 0:
                if not self._slot_entry_ok(t, dem):
                    return None
                if self.energetic_pruning and total_rem > self._slot_capacity * (T - t):
                    return None
            j = proc_order[pos]
            running = set()
            for f in reversed(frames):
                if f.t != t:
                    break
                if f.chosen is not None and f.chosen < n:
                    running.add(f.chosen)
            prev_val: int | None = None
            if self.symmetry_breaking and pos > 0 and self._same_as_prev[j]:
                prev_val = frames[-1].chosen
            cands = self._proc_candidates(t, j, dem, running, prev_val)
            return _Frame(t, j, pos, iter(cands))

        root = expand(0, 0)
        if root is None:
            return result(Feasibility.INFEASIBLE)
        frames.append(root)
        check_tick = 0
        while frames:
            check_tick += 1
            if check_tick >= 64:
                check_tick = 0
                if deadline.expired() or (
                    node_limit is not None and stats.nodes >= node_limit
                ):
                    return result(Feasibility.UNKNOWN)
            f = frames[-1]
            if f.applied is not None:
                total_rem += self._restore(dem, f)
                f.chosen = None
            val = next(f.choices, None)
            if val is None:
                frames.pop()
                continue
            stats.nodes += 1
            if len(frames) > stats.max_depth:
                stats.max_depth = len(frames)
            f.chosen = val
            f.applied = []
            if val < n:
                key = self._windows(f.t)[1][val]
                rem = dem.get(key, wcet[val])
                f.applied.append((key, rem))
                rate = rates[val][f.j]
                dem[key] = rem - rate
                total_rem -= rate
            # advance to the next processor, or the next slot
            if f.pos + 1 < m:
                nxt = expand(f.t, f.pos + 1)
            elif f.t + 1 < T:
                nxt = expand(f.t + 1, 0)
            else:
                # all slots assigned: windows ending at T-1 must be complete
                # (earlier windows were checked at their own end slot)
                if self._final_ok(dem):
                    return result(Feasibility.FEASIBLE, self._build_general(frames))
                stats.fails += 1
                continue
            if nxt is None:
                stats.fails += 1
                continue
            frames.append(nxt)
        return result(Feasibility.INFEASIBLE)

    def _final_ok(self, dem: dict) -> bool:
        """After slot T-1: every window ending at T-1 must be complete.

        Windows ending earlier were checked at their end slot; combined
        with per-window accounting this means all demand is met.
        """
        wcet = self._wcet
        for i, key, left in self._windows(self._T - 1)[0]:
            if left == 1 and dem.get(key, wcet[i]) != 0:
                return False
        return True

    def _build_general(self, frames: list[_Frame]) -> Schedule:
        n = self.system.n
        table = np.full((self._m, self._T), IDLE, dtype=np.int32)
        for f in frames:
            if f.chosen is not None and f.chosen < n:
                table[f.j, f.t] = f.chosen
        return Schedule(self.system, self.platform, table)


@register_solver(
    "csp2",
    description=(
        "The paper's dedicated chronological slot-by-slot solver (idle "
        "rule, per-slot symmetry breaking, demand pruning)"
    ),
    paper_section="V",
    pick_when="A strong exact default; +dc is the paper's best performer",
    capabilities=(PROVES_INFEASIBILITY, EXACT),
    suffixes={
        "rm": "Dedicated solver, rate-monotonic value order (smallest T first)",
        "dm": "Dedicated solver, deadline-monotonic order (smallest D first)",
        "tc": "Dedicated solver, largest-laxity-last order (smallest T-C first)",
        "dc": "Dedicated solver, smallest D-C first — the experimental "
        "winner (fewest overruns, Table I) and this repo's fastest exact solver",
        "learn": "Encoding #2 on the conflict-directed engine: 1-UIP nogood "
        "learning + backjumping over the (D-C)-ordered chronological search "
        "— the strongest exact option on UNSAT-heavy boundary instances",
    },
    options=(
        "symmetry_breaking", "idle_rule", "demand_pruning", "energetic_pruning",
        "nogood_limit",
    ),
    platforms=("identical", "uniform", "heterogeneous"),
    hidden_suffixes=("t-c", "(t-c)", "d-c", "(d-c)", "none"),
)
def _build_csp2(system, platform, spec, seed, **options):
    """Registry factory: ``csp2[+heuristic|+learn]`` (suffix = value order,
    or the conflict-directed learning variant on the generic engine)."""
    if spec.suffix == "learn":
        from repro.solvers.csp2_generic import Csp2GenericSolver

        for opt in ("idle_rule", "demand_pruning", "energetic_pruning"):
            if opt in options:
                raise ValueError(
                    f"option {opt!r} belongs to the dedicated chronological "
                    "solver; 'csp2+learn' runs encoding #2 on the learning "
                    "engine and accepts symmetry_breaking/nogood_limit"
                )
        solver = Csp2GenericSolver(
            system, platform, heuristic="dc", learn=True, **options
        )
        solver.name = "csp2+learn"
        return solver
    if "nogood_limit" in options:
        raise ValueError(
            "nogood_limit only applies to the learning variant; use 'csp2+learn'"
        )
    heuristic = _checked_heuristic(spec.suffix) if spec.suffix else None
    return Csp2DedicatedSolver(system, platform, heuristic=heuristic, **options)


def _checked_heuristic(suffix):
    """Validate a value-ordering suffix (raises ValueError on a bad name)."""
    from repro.solvers.ordering import heuristic_key

    heuristic_key(suffix)  # validates / raises
    return suffix
