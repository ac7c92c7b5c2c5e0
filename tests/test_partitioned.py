"""Tests for the partitioned-scheduling baseline."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    exact_partition,
    first_fit_partition,
    uniprocessor_edf_feasible,
)
from repro.baselines import partitioned
from repro.baselines.priorities import global_edf
from repro.generator import GeneratorConfig, generate_instance
from repro.model import Platform, Task, TaskSystem
from repro.solvers import Feasibility, create_solver

from tests.helpers import running_example


class TestUniprocessorTest:
    def test_feasible_single(self):
        assert uniprocessor_edf_feasible([Task(0, 1, 2, 2)])

    def test_overload_infeasible(self):
        assert not uniprocessor_edf_feasible([Task(0, 2, 2, 2), Task(0, 1, 2, 2)])

    def test_empty_bin_feasible(self):
        assert uniprocessor_edf_feasible([])

    def test_edf_optimality_on_one_processor(self):
        # EDF == exact feasibility on m=1: cross-check against the CSP
        for tuples in [
            [(0, 1, 2, 2), (0, 1, 4, 4)],
            [(0, 2, 2, 4), (1, 1, 2, 2)],
            [(0, 1, 1, 2), (1, 1, 1, 2)],
        ]:
            s = TaskSystem.from_tuples(tuples)
            csp = create_solver("csp2+dc", s, Platform.identical(1)).solve(time_limit=20)
            assert uniprocessor_edf_feasible(list(s.tasks)) == csp.is_feasible, tuples


def _simulated(tasks):
    """The uniprocessor EDF simulation's verdict (the bin test's oracle)."""
    verdict = global_edf(TaskSystem(tasks), 1).schedulable
    assert verdict is not None, tasks
    return verdict


def _random_task(rng, tmax=8, sync=False, wcet=None):
    period = rng.randint(1, tmax)
    deadline = rng.randint(1, period)
    c = rng.randint(0, deadline) if wcet is None else wcet
    offset = 0 if sync else rng.randint(0, 2 * period)
    return Task(offset, c, deadline, period)


def _random_bin(rng, sync, tmax=8):
    return [_random_task(rng, tmax, sync) for _ in range(rng.randint(1, 5))]


def _full_bin(rng):
    """A bin of utilization exactly 1: a last task of period ``H`` takes
    up whatever the others leave of the hyperperiod ``H``."""
    tasks = [_random_task(rng, tmax=6) for _ in range(rng.randint(0, 3))]
    hyper = TaskSystem(tasks).hyperperiod if tasks else rng.randint(1, 6)
    left = hyper - sum(t.wcet * (hyper // t.period) for t in tasks)
    if left <= 0:  # the others already fill it: trim them to one task
        tasks, left = [], hyper
    offset = 0 if rng.random() < 0.5 else rng.randint(0, hyper)
    tasks.append(Task(offset, left, rng.randint(left, hyper), hyper))
    rng.shuffle(tasks)
    return tasks


class TestBinTestParity:
    """The arithmetic bin test agrees with the EDF simulation it replaces."""

    def _check(self, bins):
        verdicts = set()
        for tasks in bins:
            got = uniprocessor_edf_feasible(tasks)
            assert got == bool(_simulated(tasks)), tasks
            verdicts.add(got)
        assert verdicts == {True, False}  # both directions exercised

    def test_synchronous_bins(self):
        rng = random.Random(1)
        self._check([_random_bin(rng, sync=True) for _ in range(400)])

    def test_asynchronous_bins(self):
        rng = random.Random(2)
        self._check([_random_bin(rng, sync=False) for _ in range(400)])

    def test_utilization_exactly_one(self):
        rng = random.Random(3)
        bins = [_full_bin(rng) for _ in range(300)]
        for tasks in bins:
            assert sum(t.utilization for t in tasks) == Fraction(1), tasks
        self._check(bins)

    def test_wcet_above_deadline(self):
        rng = random.Random(4)
        bins = []
        for k in range(300):
            tasks = _random_bin(rng, sync=k % 2 == 0)
            t = tasks[0]
            tasks[0] = Task(t.offset, t.deadline + 1, t.deadline, t.period)
            bins.append(tasks)
        for tasks in bins:
            assert not uniprocessor_edf_feasible(tasks), tasks
            assert not _simulated(tasks), tasks

    def test_zero_wcet_tasks(self):
        rng = random.Random(5)
        bins = []
        for k in range(300):
            tasks = _random_bin(rng, sync=k % 2 == 0)
            tasks += [_random_task(rng, wcet=0) for _ in range(rng.randint(1, 2))]
            bins.append(tasks)
        self._check(bins)
        all_idle = [_random_task(rng, wcet=0) for _ in range(3)]
        assert uniprocessor_edf_feasible(all_idle) and _simulated(all_idle)

    def test_single_task_bins(self):
        rng = random.Random(6)
        bins = []
        for k in range(300):
            t = _random_task(rng, sync=k % 2 == 0)
            if k % 3 == 0:
                t = Task(t.offset, t.deadline + 1, t.deadline, t.period)
            bins.append([t])
        self._check(bins)

    def test_simulation_only_for_asynchronous_bins(self, monkeypatch):
        """Overloaded and synchronous bins are settled by arithmetic; only
        asynchronous bins failing the synchronous criterion simulate."""
        simulated = []

        def counting(system, m, max_cycles=64):
            simulated.append(system)
            return global_edf(system, m, max_cycles=max_cycles)

        monkeypatch.setattr(partitioned, "global_edf", counting)
        rng = random.Random(7)
        for _ in range(300):
            uniprocessor_edf_feasible(_random_bin(rng, sync=True))
        # all offsets equal but nonzero is still synchronous
        uniprocessor_edf_feasible([Task(3, 2, 2, 2), Task(3, 1, 2, 4)])
        # utilization above 1 with offsets
        uniprocessor_edf_feasible([Task(0, 2, 2, 3), Task(1, 2, 3, 3)])
        assert simulated == []
        # jointly infeasible when synchronous, feasible with these offsets
        tasks = [Task(0, 1, 1, 2), Task(1, 1, 1, 2)]
        assert uniprocessor_edf_feasible(tasks)
        assert len(simulated) == 1

    def test_rejects_arbitrary_deadlines(self):
        with pytest.raises(ValueError):
            uniprocessor_edf_feasible([Task(0, 1, 3, 2)])


def _simulated_first_fit(system, m):
    """First-fit decreasing with every bin decided by simulation alone."""
    order = sorted(
        range(system.n), key=lambda i: (system[i].density, i), reverse=True
    )
    bins = [[] for _ in range(m)]
    assignment = [-1] * system.n
    tried = 0
    for i in order:
        for j in range(m):
            tried += 1
            if _simulated(bins[j] + [system[i]]):
                bins[j].append(system[i])
                assignment[i] = j
                break
        else:
            return None, tried
    return assignment, tried


class TestFirstFit:
    def test_matches_simulation_only_first_fit(self):
        """Same assignment and bins tried as a first-fit whose every bin
        runs the simulation (the generator's d-first order, as in the
        Section VII-A campaign)."""
        config = GeneratorConfig(n=8, tmax=6, m="uniform", order="d-first")
        found = set()
        for seed in range(60):
            inst = generate_instance(config, seed)
            res = first_fit_partition(inst.system, inst.m)
            expected = _simulated_first_fit(inst.system, inst.m)
            assert (res.assignment, res.partitions_tried) == expected, seed
            found.add(res.found)
        assert found == {True, False}

    def test_easy_fit_packs_first_bin(self):
        # both 0.5-utilization tasks fit together on one processor, and
        # first-fit packs them there rather than spreading
        s = TaskSystem.from_tuples([(0, 1, 2, 2), (0, 1, 2, 2)])
        res = first_fit_partition(s, 2)
        assert res.found
        assert res.assignment == [0, 0]

    def test_spreads_when_needed(self):
        # two saturating tasks cannot share a processor
        s = TaskSystem.from_tuples([(0, 2, 2, 2), (0, 2, 2, 2)])
        res = first_fit_partition(s, 2)
        assert res.found
        assert sorted(res.assignment) == [0, 1]

    def test_single_bin(self):
        s = TaskSystem.from_tuples([(0, 1, 4, 4), (0, 1, 4, 4)])
        res = first_fit_partition(s, 1)
        assert res.found
        assert res.assignment == [0, 0]

    def test_heuristic_failure_not_a_proof(self):
        s = TaskSystem.from_tuples([(0, 2, 2, 2), (0, 2, 2, 2), (0, 2, 2, 2)])
        res = first_fit_partition(s, 2)
        assert not res.found
        assert not res.exact

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            first_fit_partition(running_example(), 0)


class TestExactPartition:
    def test_finds_partition(self):
        s = TaskSystem.from_tuples([(0, 1, 2, 2), (0, 1, 2, 2), (0, 1, 4, 4)])
        res = exact_partition(s, 2)
        assert res.found and res.exact
        # verify the witness bin by bin
        bins = {}
        for i, j in enumerate(res.assignment):
            bins.setdefault(j, []).append(s[i])
        assert all(uniprocessor_edf_feasible(b) for b in bins.values())

    def test_refutes_exhaustively(self):
        s = TaskSystem.from_tuples([(0, 2, 2, 2), (0, 2, 2, 2), (0, 2, 2, 2)])
        res = exact_partition(s, 2)
        assert not res.found
        assert res.exact  # a proof: no partition exists

    def test_running_example_has_no_partition_on_two(self):
        """The paper's Example 1 is globally feasible but NOT partitionable:
        global migration is essential — the key global-vs-partitioned gap."""
        res = exact_partition(running_example(), 2)
        assert not res.found and res.exact
        # while the global CSP schedules it
        glob = create_solver("csp2+dc", running_example(), Platform.identical(2)).solve(
            time_limit=20
        )
        assert glob.is_feasible

    def test_time_limit(self):
        s = TaskSystem.from_tuples([(0, 1, 6, 6)] * 6)
        res = exact_partition(s, 3, time_limit=0.0)
        assert not res.exact

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            exact_partition(running_example(), 0)


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_partitioned_implies_global_feasible(data):
    """Soundness: any partition found certifies global feasibility."""
    n = data.draw(st.integers(1, 4))
    tasks = []
    for _ in range(n):
        t = data.draw(st.sampled_from([1, 2, 4]))
        d = data.draw(st.integers(1, t))
        c = data.draw(st.integers(1, d))
        o = data.draw(st.integers(0, t - 1))
        tasks.append(Task(o, c, d, t))
    system = TaskSystem(tasks)
    m = data.draw(st.integers(1, 3))
    res = exact_partition(system, m)
    if res.found:
        glob = create_solver("csp2+dc", system, Platform.identical(m)).solve(
            time_limit=20
        )
        assert glob.is_feasible


@settings(deadline=None, max_examples=15)
@given(st.data())
def test_first_fit_never_beats_exact(data):
    n = data.draw(st.integers(1, 4))
    tasks = []
    for _ in range(n):
        t = data.draw(st.sampled_from([2, 4]))
        d = data.draw(st.integers(1, t))
        c = data.draw(st.integers(1, d))
        tasks.append(Task(0, c, d, t))
    system = TaskSystem(tasks)
    m = data.draw(st.integers(1, 2))
    ff = first_fit_partition(system, m)
    ex = exact_partition(system, m)
    if ff.found:
        assert ex.found  # exact search finds at least what the heuristic does
