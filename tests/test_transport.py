"""Tests for the execution-transport seam (``repro.batch.transport``)."""

import multiprocessing
import os

import pytest

from repro.batch import (
    ChaosConfig,
    LocalPoolTransport,
    Transport,
    WorkItem,
    WorkResult,
    cells_for_matrix,
    run_batch,
)
from repro.batch import executor
from repro.batch.supervise import FAULT_ERROR
from repro.batch.transport import backoff_delay
from repro.generator.random_systems import GeneratorConfig, generate_instances

# -- module-level workers (pickled by name into children: R4 contract) ------


def _double(payload, attempt):
    return payload * 2


def _echo_attempt(payload, attempt):
    return (payload, attempt)


def _always_raises(payload, attempt):
    raise ValueError(f"deliberate failure on {payload!r}")


def _fails_in_pid(payload, attempt):
    """Raise only inside the process whose pid rides in the payload.

    Lets a test fail deterministically in the parent (serial path) while
    succeeding in any supervised child, which necessarily has a
    different pid — the attempt counter restarts at 0 in children, so
    attempt-based flakiness cannot model escalation.
    """
    if os.getpid() == payload:
        raise RuntimeError("failing in the original process")
    return "recovered"


class TestBackoffDelay:
    def test_deterministic_per_key_and_attempt(self):
        assert backoff_delay(0.5, "cell-a", 1) == backoff_delay(0.5, "cell-a", 1)
        assert backoff_delay(0.5, "cell-a", 1) != backoff_delay(0.5, "cell-b", 1)
        assert backoff_delay(0.5, "cell-a", 1) != backoff_delay(0.5, "cell-a", 2)

    def test_zero_backoff_is_free(self):
        assert backoff_delay(0.0, "k", 1) == 0.0
        assert backoff_delay(-1.0, "k", 3) == 0.0

    def test_exponential_base_with_bounded_jitter(self):
        # jitter is in [0.5, 1.5): attempt 1 of base 1.0 lands there
        d1 = backoff_delay(1.0, "k", 1)
        assert 0.5 <= d1 < 1.5
        # attempt 3 doubles twice; jitter is re-drawn but stays bounded
        d3 = backoff_delay(1.0, "k", 3)
        assert 2.0 <= d3 < 6.0


class TestConstruction:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="jobs"):
            LocalPoolTransport(jobs=0)
        with pytest.raises(ValueError, match="retries"):
            LocalPoolTransport(retries=-1)

    def test_satisfies_the_protocol(self):
        assert isinstance(LocalPoolTransport(), Transport)

    def test_empty_batch_yields_nothing(self):
        assert list(LocalPoolTransport().execute([])) == []


class TestSerialPath:
    def test_in_process_success(self):
        items = [WorkItem(f"k{i}", _double, i) for i in range(4)]
        results = list(LocalPoolTransport(jobs=1).execute(items))
        assert [r.key for r in results] == [f"k{i}" for i in range(4)]
        assert [r.value for r in results] == [0, 2, 4, 6]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_first_attempt_is_zero(self):
        (res,) = LocalPoolTransport(jobs=1).execute([WorkItem("k", _echo_attempt, "p")])
        assert res.value == ("p", 0)

    def test_raise_escalates_to_supervised_child(self):
        item = WorkItem("k", _fails_in_pid, os.getpid())
        (res,) = LocalPoolTransport(jobs=1, retries=1).execute([item])
        assert res.ok and res.value == "recovered"
        # one burned in-process attempt + one successful child
        assert res.attempts == 2

    def test_exhausted_retries_classify_a_fault(self):
        item = WorkItem("k", _always_raises, "p")
        (res,) = LocalPoolTransport(jobs=1, retries=2).execute([item])
        assert not res.ok and res.value is None
        assert res.fault.kind == FAULT_ERROR
        assert "deliberate failure" in res.fault.detail
        # the fault records the supervised loop's own count; the result
        # additionally counts the burned in-process attempt
        assert res.fault.attempts == 3
        assert res.attempts == 4


class TestSupervisedPath:
    def test_single_job(self):
        items = [WorkItem(f"k{i}", _double, i) for i in range(3)]
        results = list(LocalPoolTransport(supervised=True).execute(items))
        assert sorted((r.key, r.value) for r in results) == [
            ("k0", 0), ("k1", 2), ("k2", 4),
        ]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_parallel_watchers_return_every_item(self):
        items = [WorkItem(f"k{i}", _double, i) for i in range(5)]
        results = list(
            LocalPoolTransport(jobs=3, supervised=True).execute(items)
        )
        # completion order is free; coverage and values are not
        assert {r.key: r.value for r in results} == {
            f"k{i}": i * 2 for i in range(5)
        }

    def test_fault_attempt_accounting(self):
        item = WorkItem("k", _always_raises, "p")
        (res,) = LocalPoolTransport(supervised=True, retries=1).execute([item])
        assert not res.ok
        assert res.fault.attempts == 2 and res.attempts == 2

    def test_close_reaps_the_idle_workers(self):
        before = set(multiprocessing.active_children())
        items = [WorkItem(f"k{i}", _double, i) for i in range(6)]
        with LocalPoolTransport(jobs=2, supervised=True) as transport:
            assert len(list(transport.execute(items))) == len(items)
            assert 1 <= transport.pool.started <= 2
            assert set(multiprocessing.active_children()) - before
        assert set(multiprocessing.active_children()) <= before


class TestPoolPath:
    def test_pool_success(self):
        items = [WorkItem(f"k{i}", _double, i) for i in range(6)]
        results = list(LocalPoolTransport(jobs=2).execute(items))
        assert {r.key: r.value for r in results} == {
            f"k{i}": i * 2 for i in range(6)
        }
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_pool_failure_escalates_then_classifies(self):
        items = [
            WorkItem("good", _double, 5),
            WorkItem("bad", _always_raises, "p"),
        ]
        results = {
            r.key: r
            for r in LocalPoolTransport(jobs=2, retries=0).execute(items)
        }
        assert results["good"].ok and results["good"].value == 10
        bad = results["bad"]
        assert not bad.ok and bad.fault.kind == FAULT_ERROR
        # one pool attempt + one supervised recovery attempt
        assert bad.attempts == 2 and bad.fault.attempts == 1


class _RecordingTransport:
    """Delegates to the real local transport, remembering what it saw."""

    def __init__(self):
        self.inner = LocalPoolTransport(jobs=1)
        self.items = []

    def execute(self, items):
        self.items.extend(items)
        yield from self.inner.execute(items)


class TestRunBatchSeam:
    def test_custom_transport_receives_the_pending_cells(self, tmp_path):
        instances = generate_instances(
            GeneratorConfig(n=3, m=2, tmax=3), 3, seed=11
        )
        cells = cells_for_matrix(instances, ["csp2+dc"], 5.0)
        transport = _RecordingTransport()
        report = run_batch(
            cells, journal=tmp_path / "j.jsonl", transport=transport
        )
        assert report.computed == len(cells)
        assert len(transport.items) == len(cells)
        assert all(isinstance(it, WorkItem) for it in transport.items)
        assert all(it.wall_limit == 5.0 for it in transport.items)
        # the injected transport's results are what the campaign recorded
        assert {r.status for r in report.records} <= {"feasible", "infeasible"}

    def test_passed_transport_keeps_its_workers_across_batches(self):
        instances = generate_instances(
            GeneratorConfig(n=3, m=2, tmax=3), 3, seed=11
        )
        first = cells_for_matrix(instances[:2], ["csp2+dc"], 5.0)
        second = cells_for_matrix(instances[2:], ["csp2+dc"], 5.0)
        with LocalPoolTransport(supervised=True) as transport:
            run_batch(first, transport=transport)
            run_batch(second, transport=transport)
            assert transport.pool.started == 1

    def test_run_batch_closes_the_transport_it_built(self, monkeypatch):
        built = []

        class Recording(LocalPoolTransport):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(executor, "LocalPoolTransport", Recording)
        instances = generate_instances(
            GeneratorConfig(n=3, m=2, tmax=3), 3, seed=11
        )
        cells = cells_for_matrix(instances, ["csp2+dc", "csp2"], 5.0)
        before = set(multiprocessing.active_children())
        # chaos that injects nothing still forces supervision
        report = run_batch(cells, chaos=ChaosConfig(rate=0.0))
        assert report.computed == len(cells) and report.faults == 0
        (transport,) = built
        # one worker served every cell of the batch, then was reaped
        assert transport.pool.started == 1
        assert set(multiprocessing.active_children()) <= before

    def test_work_result_ok_property(self):
        assert WorkResult(key="k", value=1).ok
        assert not WorkResult(key="k", fault=object()).ok
