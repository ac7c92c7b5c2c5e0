"""White-box unit tests for the dedicated CSP2 solver's internals."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Platform, Task, TaskSystem, slots_after
from repro.solvers.csp2_dedicated import Csp2DedicatedSolver

from tests.helpers import running_example


def make_solver(system, m=2, **kw):
    return Csp2DedicatedSolver(system, Platform.identical(m), **kw)


class TestWindowHelpers:
    @given(
        st.integers(0, 8),
        st.sampled_from([1, 2, 3, 4, 6]),
        st.integers(1, 6),
        st.integers(1, 4),
        st.integers(0, 23),
    )
    def test_slots_left_matches_intervals_module(self, o, t, d, mult, slot):
        d = min(d, t)
        task = Task(o % t, min(1, d), d, t)
        system = TaskSystem([task])
        solver = make_solver(system, m=1)
        T = system.hyperperiod * 1  # the solver's own T
        slot = slot % solver._T
        for job in range(solver._T // t):
            # solver counts slots >= t; intervals counts strictly > t
            expected = slots_after(task, solver._T, job, slot - 1)
            assert solver._slots_left(0, job, slot) == expected

    def test_active_job_consistency(self):
        system = running_example()
        solver = make_solver(system)
        for i in range(system.n):
            for t in range(system.hyperperiod):
                assert solver._active_job(i, t) == system.active_job(i, t)


class TestWindowTable:
    """The cached per-slot window table equals the O(1) helpers."""

    @staticmethod
    def _check_table(solver):
        n = solver.system.n
        for t in range(solver._T):
            row, keys = solver._windows(t)
            expected = []
            for i in range(n):
                job = solver._active_job(i, t)
                assert keys[i] == (None if job is None else (i, job))
                if job is not None:
                    expected.append((i, (i, job), solver._slots_left(i, job, t)))
            assert list(row) == expected, t
            assert solver._windows(t) is solver._windows(t)  # cached

    def test_running_example_wraps(self):
        # tau2 = (1, 3, 4, 4): its third window [9..12] wraps to slot 0
        self._check_table(make_solver(running_example()))

    def test_random_systems_with_wrapping_windows(self):
        rng = random.Random(15)
        wrapped = 0
        for _ in range(40):
            tasks = []
            for _ in range(rng.randint(1, 5)):
                period = rng.choice([2, 3, 4, 6])
                deadline = rng.randint(1, period)
                tasks.append(Task(rng.randint(0, 2 * period),
                                  rng.randint(0, deadline), deadline, period))
            system = TaskSystem(tasks)
            solver = make_solver(system)
            # the last window of a task wraps iff phase + D > period
            wrapped += any(t.phase + t.deadline > t.period for t in system)
            self._check_table(solver)
        assert wrapped > 0  # some windows cross the hyperperiod boundary

    def test_table_is_bounded(self, monkeypatch):
        monkeypatch.setattr(
            "repro.solvers.csp2_dedicated._WINDOW_CACHE_CELLS", 6
        )
        solver = make_solver(running_example())  # n = 3: two slots kept
        for t in range(solver._T):
            solver._windows(t)
            assert len(solver._window_cache) <= 2
        self._check_table(solver)


class TestSlotCandidates:
    def test_required_vs_optional(self):
        # tau3 = (0,2,2,3): C == D -> required at every window slot
        system = running_example()
        solver = make_solver(system)
        required, optional = solver._slot_candidates(0, {})
        assert required == [2]          # tau3 must run at slot 0
        assert 0 in optional            # tau1 has slack 1
        # tau2's *wrapped* third window [9..12] covers slot 0 (Figure 1),
        # so tau2 is also a (slack-3) candidate there
        assert 1 in optional

    def test_unreleased_task_not_candidate(self):
        # give tau2 no wrap: O=1, D=3 < T=4 -> windows [1..3],[5..7],[9..11]
        system = TaskSystem.from_tuples([(0, 1, 2, 2), (1, 3, 3, 4)])
        solver = make_solver(system)
        required, optional = solver._slot_candidates(0, {})
        assert 1 not in required and 1 not in optional
        # required: tau2 has C == D, so inside its window it is forced
        required1, _ = solver._slot_candidates(1, {})
        assert 1 in required1

    def test_dead_end_detected(self):
        # demand 2 left with 1 slot left -> None
        system = TaskSystem.from_tuples([(0, 2, 2, 2)])
        solver = make_solver(system, m=1)
        # at slot 1 with untouched demand (2 units, 1 slot left)
        assert solver._slot_candidates(1, {}) is None

    def test_completed_tasks_skipped(self):
        system = running_example()
        solver = make_solver(system)
        dem = {(2, 0): 0}  # tau3's first window already complete
        required, optional = solver._slot_candidates(0, dem)
        assert 2 not in required and 2 not in optional

    def test_without_demand_pruning_only_window_end(self):
        system = TaskSystem.from_tuples([(0, 2, 3, 3)])
        solver = make_solver(system, m=1, demand_pruning=False)
        # slot 0: 3 slots left, C=2: without pruning it's optional
        required, optional = solver._slot_candidates(0, {})
        assert required == [] and optional == [0]
        # slot 2 (last window slot), demand still 2 -> dead end even here
        assert solver._slot_candidates(2, {}) is None


class TestSlotChoices:
    def test_idle_rule_fixes_size(self):
        system = running_example()
        solver = make_solver(system, m=2)
        choices = list(solver._slot_choices([2], [0]))
        # k = min(2, 2 candidates) = 2: single maximal set {0, 2}
        assert choices == [(0, 2)]

    def test_without_idle_rule_smaller_sets_enumerated(self):
        system = running_example()
        solver = make_solver(system, m=2, idle_rule=False)
        choices = list(solver._slot_choices([2], [0]))
        # sizes 1..0 of optionals, required always kept
        assert (0, 2) in choices and (2,) in choices
        assert choices.index((0, 2)) < choices.index((2,))  # busier first

    def test_without_symmetry_permutations(self):
        system = running_example()
        solver = make_solver(system, m=2, symmetry_breaking=False)
        choices = list(solver._slot_choices([2], [0]))
        assert (0, 2) in choices and (2, 0) in choices

    def test_too_many_required_is_dead(self):
        system = running_example()
        solver = make_solver(system, m=1)
        assert list(solver._slot_choices([0, 2], [])) == []

    def test_heuristic_orders_optionals(self):
        # dc ranks tau3 (laxity 0) before tau1 (laxity 1) before tau2
        system = running_example()
        solver = make_solver(system, m=1, heuristic="dc")
        choices = list(solver._slot_choices([], [0, 1, 2]))
        assert choices[0] == (2,)  # tau3 tried first


class TestEndToEndFlags:
    @pytest.mark.parametrize("heuristic", [None, "rm", "dm", "tc", "dc"])
    def test_solver_name(self, heuristic):
        s = make_solver(running_example(), heuristic=heuristic)
        expected = "csp2" if heuristic is None else f"csp2+{heuristic}"
        assert s.name == expected

    def test_rejects_arbitrary(self):
        with pytest.raises(ValueError, match="clone"):
            make_solver(TaskSystem.from_tuples([(0, 1, 5, 3)]))

    def test_node_limit_unknown(self):
        # force many nodes: infeasible-ish instance with tiny limit
        s = TaskSystem.from_tuples([(0, 1, 2, 2)] * 5)
        solver = make_solver(s, m=2)
        r = solver.solve(node_limit=1)
        assert r.status.value in ("unknown", "infeasible")

    def test_cd_precheck_instant(self):
        s = TaskSystem.from_tuples([(0, 3, 2, 4)])
        r = make_solver(s, m=3).solve(time_limit=10)
        assert r.status.value == "infeasible"
        assert r.stats.nodes == 0

    def test_het_cd_precheck_uses_rates(self):
        # C=3 at rate 2: passes the C <= D*rate pre-check (3 <= 4), so the
        # search actually runs — and then *proves* infeasibility, because
        # rate-2 slots can only accumulate 2 or 4 units, never exactly 3
        # (the paper's equality constraint (12))
        s = TaskSystem.from_tuples([(0, 3, 2, 4)])
        p = Platform.heterogeneous([[2]])
        r = Csp2DedicatedSolver(s, p).solve(time_limit=10)
        assert r.status.value == "infeasible"
        assert r.stats.nodes > 0  # not the pre-check: real search ran

    def test_het_exact_hit_feasible(self):
        # C=4 at rate 2 in a D=2 window: exactly reachable
        s = TaskSystem.from_tuples([(0, 4, 2, 4)])
        p = Platform.heterogeneous([[2]])
        r = Csp2DedicatedSolver(s, p).solve(time_limit=10)
        assert r.status.value == "feasible"


class TestGeneralModeInternals:
    def test_proc_order_least_capable_first(self):
        s = TaskSystem.from_tuples([(0, 1, 2, 2), (0, 1, 2, 2)])
        p = Platform.heterogeneous([[2, 1], [2, 1]])
        solver = Csp2DedicatedSolver(s, p)
        assert solver._proc_order == [1, 0]

    def test_same_as_prev_grouping(self):
        s = TaskSystem.from_tuples([(0, 1, 2, 2)])
        p = Platform.heterogeneous([[1, 1, 2]])
        solver = Csp2DedicatedSolver(s, p)
        order = solver._proc_order
        # two identical columns must be adjacent with the flag set
        flags = [solver._same_as_prev[j] for j in order]
        assert flags.count(True) == 1

    def test_uniform_overshoot_excluded(self):
        # rate 2 > remaining 1: candidate excluded (exactness)
        s = TaskSystem.from_tuples([(0, 1, 2, 2)])
        p = Platform.uniform([2, 1])
        solver = Csp2DedicatedSolver(s, p)
        j_fast = solver._proc_order.index(0)
        cands = solver._proc_candidates(0, 0, {}, set(), None)
        assert 0 not in cands[:-1]  # only idle available on the fast proc
        cands_slow = solver._proc_candidates(0, 1, {}, set(), None)
        assert 0 in cands_slow
