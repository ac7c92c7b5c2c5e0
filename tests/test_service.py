"""Tests for the solver service (protocol, daemon, client, CLI serve)."""

import json
import logging
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.batch.supervise import FAULT_CRASH, FaultRecord
from repro.batch.transport import LocalPoolTransport, WorkResult
from repro.generator.random_systems import GeneratorConfig, generate_instances
from repro.model.platform import Platform
from repro.service import (
    ServiceCaps,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceHandle,
)
from repro.service.protocol import (
    PROTOCOL,
    ProtocolError,
    clamp_problem,
    parse_solve_request,
    request_cell,
)
from repro.service.server import LINE_LIMIT
from repro.solvers.problem import Problem, solve_problem

TIME_LIMIT = 5.0


def make_problems(count=4, seed=11, **kwargs):
    """Tiny always-decided problems with explicit budgets."""
    instances = generate_instances(
        GeneratorConfig(n=3, m=2, tmax=3), count, seed=seed
    )
    return [
        Problem.of(
            inst.system, m=inst.m, time_limit=TIME_LIMIT,
            label=f"seed:{inst.seed}", **kwargs,
        )
        for inst in instances
    ]


def unsupervised_config(tmp_path, **overrides):
    """In-process execution: fast, and fine for these tiny instances."""
    defaults = dict(
        jobs=2,
        supervised=False,
        cache_dir=str(tmp_path / "cache"),
        journal=str(tmp_path / "journal.jsonl"),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture()
def service(tmp_path):
    with ServiceHandle(unsupervised_config(tmp_path)) as handle:
        host, port = handle._addr
        with ServiceClient.connect(host, port) as client:
            yield handle, client


# -- protocol unit tests ----------------------------------------------------


class TestClamping:
    def test_missing_wall_budget_gets_the_default(self):
        problem = make_problems(1)[0]
        clamped = clamp_problem(
            Problem.of(problem.system, m=2), ServiceCaps()
        )
        assert clamped.time_limit == ServiceCaps().default_time_limit
        assert clamped.variable_limit == ServiceCaps().max_variable_limit

    def test_over_cap_budgets_are_reduced(self):
        problem = make_problems(1)[0]
        caps = ServiceCaps(max_time_limit=10.0, max_node_limit=100)
        clamped = clamp_problem(
            Problem.of(
                problem.system, m=2, time_limit=999.0, node_limit=10**9,
                variable_limit=10**12,
            ),
            caps,
        )
        assert clamped.time_limit == 10.0
        assert clamped.node_limit == 100
        assert clamped.variable_limit == caps.max_variable_limit

    @pytest.mark.parametrize(
        "kwargs", [
            {"time_limit": 0.0},
            {"time_limit": -1.0},
            {"node_limit": 0},
            {"variable_limit": -5},
        ],
    )
    def test_non_positive_budgets_are_refused(self, kwargs):
        problem = make_problems(1)[0]
        base = {"time_limit": TIME_LIMIT}
        base.update(kwargs)
        with pytest.raises(ProtocolError, match="must be > 0"):
            clamp_problem(
                Problem.of(problem.system, m=2, **base), ServiceCaps()
            )


class TestRequestCell:
    def test_label_is_outside_the_key(self):
        a, = make_problems(1)
        relabeled = Problem.of(a.system, m=2, time_limit=a.time_limit,
                               label="other")
        key_a, _ = request_cell(clamp_problem(a, ServiceCaps()), "csp2+dc")
        key_b, _ = request_cell(
            clamp_problem(relabeled, ServiceCaps()), "csp2+dc"
        )
        assert key_a == key_b

    def test_budgets_are_inside_the_key(self):
        a, = make_problems(1)
        caps = ServiceCaps()
        key_a, _ = request_cell(clamp_problem(a, caps), "csp2+dc")
        tighter = Problem.of(a.system, m=2, time_limit=1.0)
        key_b, _ = request_cell(clamp_problem(tighter, caps), "csp2+dc")
        assert key_a != key_b

    def test_non_identical_platform_is_refused(self):
        a, = make_problems(1)
        uniform = Problem.of(
            a.system, platform=Platform.uniform([2, 1]),
            time_limit=TIME_LIMIT,
        )
        with pytest.raises(ProtocolError, match="identical platforms"):
            request_cell(uniform, "csp2+dc")


class TestParseSolveRequest:
    def envelope(self, problem, **overrides):
        doc = {
            "id": 1, "type": "solve", "problem": problem.to_dict(),
            "solver": "csp2+dc", "options": {},
        }
        doc.update(overrides)
        return doc

    def test_good_request_is_clamped_and_keyed(self):
        problem, = make_problems(1)
        req = parse_solve_request(self.envelope(problem), ServiceCaps())
        assert req.id == 1 and req.solver == "csp2+dc"
        assert req.problem.variable_limit == ServiceCaps().max_variable_limit
        assert req.key

    def test_missing_problem(self):
        with pytest.raises(ProtocolError, match="no 'problem'"):
            parse_solve_request({"type": "solve"}, ServiceCaps())

    def test_unknown_solver(self):
        problem, = make_problems(1)
        with pytest.raises(ProtocolError) as err:
            parse_solve_request(
                self.envelope(problem, solver="quantum"), ServiceCaps()
            )
        assert err.value.code == "unknown-solver"

    def test_unknown_option(self):
        problem, = make_problems(1)
        with pytest.raises(ProtocolError, match="unknown option"):
            parse_solve_request(
                self.envelope(problem, options={"warp": 9}), ServiceCaps()
            )

    def test_garbage_problem_payload(self):
        with pytest.raises(ProtocolError, match="bad problem payload"):
            parse_solve_request(
                {"type": "solve", "problem": {"system": "??"},
                 "solver": "csp2+dc"},
                ServiceCaps(),
            )


# -- the daemon end to end --------------------------------------------------


class TestRoundTrip:
    def test_hello_advertises_the_registry(self, service):
        _handle, client = service
        assert client.hello["protocol"] == PROTOCOL
        assert "csp2+dc" in client.solvers
        assert client.max_pending == 64
        assert client.hello["caps"]["max_time_limit"] == 30.0

    def test_reports_match_local_solves(self, service):
        _handle, client = service
        problems = make_problems(3)
        remote = client.solve_many(problems)
        for problem, report in zip(problems, remote):
            local = solve_problem(problem, "csp2+dc")
            assert report.status_label == local.status_label
            assert report.stats.nodes == local.stats.nodes
            assert report.decided_by == local.decided_by
            assert report.problem.label == problem.label

    def test_interleaved_recv_out_of_submission_order(self, service):
        _handle, client = service
        first, second = make_problems(2)
        id1 = client.submit(first)
        id2 = client.submit(second)
        # ask for the later id first: the mailbox parks id1's line
        entry2 = client.recv(id2)
        entry1 = client.recv(id1)
        assert entry1["id"] == id1 and entry2["id"] == id2
        assert entry1["type"] == entry2["type"] == "report"

    def test_clamping_is_visible_in_the_response(self, service):
        _handle, client = service
        problem, = make_problems(1)
        greedy = Problem.of(problem.system, m=2, time_limit=999.0)
        report = client.solve(greedy)
        assert report.problem.time_limit == 30.0  # the default cap


class TestMemoCache:
    def test_second_ask_is_served_from_cache(self, service):
        _handle, client = service
        problem, = make_problems(1)
        entry1 = client.recv(client.submit(problem))
        entry2 = client.recv(client.submit(problem))
        assert entry1["cached"] is False and entry2["cached"] is True
        assert entry1["key"] == entry2["key"]
        assert entry1["report"]["stats"] == entry2["report"]["stats"]

    def test_cached_report_carries_the_requesters_label(self, service):
        _handle, client = service
        problem, = make_problems(1)
        client.solve(problem)
        relabeled = Problem.of(
            problem.system, m=2, time_limit=problem.time_limit,
            label="second-client",
        )
        entry = client.recv(client.submit(relabeled))
        assert entry["cached"] is True
        assert entry["report"]["problem"]["label"] == "second-client"

    def test_stats_count_the_cache_split(self, service):
        _handle, client = service
        problems = make_problems(2)
        client.solve_many(problems)
        client.solve_many(problems)
        stats = client.stats()
        assert stats["served"] == 4
        assert stats["computed"] == 2 and stats["cached"] == 2
        assert stats["faulted"] == 0 and stats["busy"] == 0
        assert stats["cache_entries"] == 2


class TestStructuredErrors:
    def test_malformed_json_line_keeps_the_connection(self, service):
        _handle, client = service
        client._wfile.write("this is not json\n")
        client._wfile.flush()
        entry = json.loads(client._rfile.readline())
        assert entry["type"] == "error" and entry["code"] == "bad-request"
        # the connection survived: a real solve still works
        assert client.solve(make_problems(1)[0]) is not None

    @pytest.mark.parametrize("size", [70_000, 1_000_000])
    def test_over_limit_line_is_one_bad_request(self, service, size, caplog):
        _handle, client = service
        caplog.set_level(logging.ERROR)
        stats = {"id": 2, "type": "stats"}
        client._wfile.write(_oversize_stats_line(size))
        client._wfile.write(json.dumps(stats) + "\n")
        client._wfile.flush()
        error = json.loads(client._rfile.readline())
        assert error["type"] == "error" and error["code"] == "bad-request"
        assert str(LINE_LIMIT) in error["detail"]
        # exactly one answer for the long line: the next one is the stats
        reply = json.loads(client._rfile.readline())
        assert reply["id"] == 2 and reply["stats"]["errors"] == 1
        assert client.solve(make_problems(1)[0]) is not None
        assert not [r for r in caplog.records if r.exc_info]

    def test_unknown_request_type(self, service):
        _handle, client = service
        client._write({"id": 7, "type": "dance"})
        entry = client.recv(7)
        assert entry["code"] == "bad-request"
        assert "unknown request type" in entry["detail"]

    def test_unknown_solver_refused(self, service):
        _handle, client = service
        with pytest.raises(ServiceError) as err:
            client.solve(make_problems(1)[0], solver="quantum")
        assert err.value.code == "unknown-solver"

    def test_bad_option_refused(self, service):
        _handle, client = service
        with pytest.raises(ServiceError) as err:
            client.solve(make_problems(1)[0], options={"warp": 9})
        assert err.value.code == "bad-request"

    def test_negative_budget_refused(self, service):
        _handle, client = service
        problem, = make_problems(1)
        broke = Problem.of(problem.system, m=2, time_limit=-1.0)
        with pytest.raises(ServiceError, match="must be > 0"):
            client.solve(broke)

    def test_heterogeneous_platform_refused(self, service):
        _handle, client = service
        problem, = make_problems(1)
        uniform = Problem.of(
            problem.system, platform=Platform.uniform([2, 1]),
            time_limit=TIME_LIMIT,
        )
        with pytest.raises(ServiceError, match="identical platforms"):
            client.solve(uniform)


class _GatedTransport:
    """Blocks every execution until the test releases the gate."""

    def __init__(self):
        self.gate = threading.Event()
        self.inner = LocalPoolTransport(jobs=1)

    def execute(self, items):
        self.gate.wait(timeout=30.0)
        yield from self.inner.execute(items)


class TestBackPressure:
    def test_overflow_is_a_busy_error_not_a_drop(self, tmp_path):
        transport = _GatedTransport()
        config = unsupervised_config(tmp_path, jobs=1, max_pending=1)
        with ServiceHandle(config, transport=transport) as handle:
            host, port = handle._addr
            with ServiceClient.connect(host, port) as client:
                first, second = make_problems(2)
                id1 = client.submit(first)
                id2 = client.submit(second)
                # the second ask overflows the admission window
                entry2 = client.recv(id2)
                assert entry2["type"] == "error"
                assert entry2["code"] == "busy"
                assert "resubmit" in entry2["detail"]
                # release the gate: the admitted solve still answers
                transport.gate.set()
                entry1 = client.recv(id1)
                assert entry1["type"] == "report"
                stats = client.stats()
                assert stats["busy"] == 1 and stats["served"] == 1


class _FaultingTransport:
    """Every item dies the same classified death."""

    def execute(self, items):
        for item in items:
            yield WorkResult(
                key=item.key,
                fault=FaultRecord(
                    kind=FAULT_CRASH, detail="SIGSEGV", attempts=2
                ),
                attempts=2,
            )


class TestFaultPath:
    def test_transport_fault_becomes_a_fault_report(self, tmp_path):
        config = unsupervised_config(tmp_path)
        with ServiceHandle(config, transport=_FaultingTransport()) as handle:
            host, port = handle._addr
            with ServiceClient.connect(host, port) as client:
                problem, = make_problems(1)
                report = client.solve(problem)
                assert report.status_label == "fault:crash"
                assert report.fault["attempts"] == 2
                # the full wall budget is charged, like a campaign fault
                assert report.elapsed == problem.time_limit
                stats = client.stats()
                assert stats["faulted"] == 1
                # faults never enter the memo: the retry recomputes
                entry = client.recv(client.submit(problem))
                assert entry["cached"] is False
                assert stats["cache_entries"] == 0


class TestJournal:
    def test_every_response_is_journaled_first(self, service, tmp_path):
        handle, client = service
        problems = make_problems(2)
        client.solve_many(problems)
        client.solve_many(problems[:1])  # a cached serve journals too
        handle.stop()
        lines = [
            json.loads(line)
            for line in (tmp_path / "journal.jsonl").read_text().splitlines()
        ]
        assert len(lines) == 3
        assert all(
            set(entry) == {"key", "report"} and entry["key"]
            for entry in lines
        )
        # the journal speaks the merge tool's dialect: last-line-wins
        from repro.batch import merge_journals

        out = tmp_path / "merged.jsonl"
        report = merge_journals([tmp_path / "journal.jsonl"], out)
        assert report.records == 2 and report.duplicates == 1


class TestShutdown:
    def test_shutdown_stops_the_daemon(self, tmp_path):
        handle = ServiceHandle(unsupervised_config(tmp_path))
        host, port = handle.start()
        with ServiceClient.connect(host, port) as client:
            client.solve(make_problems(1)[0])
            client.shutdown()
        handle._thread.join(timeout=30.0)
        assert not handle._thread.is_alive()

    def test_remote_shutdown_can_be_disabled(self, tmp_path):
        config = unsupervised_config(tmp_path, allow_shutdown=False)
        with ServiceHandle(config) as handle:
            host, port = handle._addr
            with ServiceClient.connect(host, port) as client:
                with pytest.raises(ServiceError, match="disabled"):
                    client.shutdown()
                # still serving
                assert client.stats()["errors"] == 1


class TestStdio:
    def test_one_session_over_pipes(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--stdio",
             "--jobs", "1", "--unsupervised",
             "--journal", str(tmp_path / "j.jsonl")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd="/root/repo",
        )
        try:
            hello = json.loads(proc.stdout.readline())
            assert hello["type"] == "hello" and hello["protocol"] == PROTOCOL
            problem, = make_problems(1)
            request = {
                "id": 1, "type": "solve", "problem": problem.to_dict(),
                "solver": "csp2+dc", "options": {},
            }
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
            entry = json.loads(proc.stdout.readline())
            assert entry["id"] == 1 and entry["type"] == "report"
            local = solve_problem(problem, "csp2+dc")
            assert entry["report"]["status"] == local.status_label
            proc.stdin.close()  # EOF ends the session
            assert proc.wait(timeout=60.0) == 0
        finally:
            proc.kill()
        assert (tmp_path / "j.jsonl").exists()


    def test_over_limit_line_over_pipes(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--stdio",
             "--jobs", "1", "--unsupervised"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=Path(__file__).resolve().parents[1],
        )
        try:
            assert json.loads(proc.stdout.readline())["type"] == "hello"
            proc.stdin.write(_oversize_stats_line(70_000))
            proc.stdin.write(json.dumps({"id": 2, "type": "stats"}) + "\n")
            proc.stdin.flush()
            error = json.loads(proc.stdout.readline())
            assert error["type"] == "error" and error["code"] == "bad-request"
            reply = json.loads(proc.stdout.readline())
            assert reply["id"] == 2 and reply["stats"]["errors"] == 1
            proc.stdin.close()
            assert proc.wait(timeout=60.0) == 0
            assert "Traceback" not in proc.stderr.read()
        finally:
            proc.kill()


def _oversize_stats_line(size: int) -> str:
    """A well-formed ``stats`` request padded past the line limit."""
    assert size > LINE_LIMIT
    return json.dumps({"id": 1, "type": "stats", "pad": "x" * size}) + "\n"


class TestConfigValidation:
    def test_bad_knobs_are_rejected(self):
        from repro.service import SolverService

        with pytest.raises(ValueError, match="jobs"):
            SolverService(ServiceConfig(jobs=0))
        with pytest.raises(ValueError, match="max_pending"):
            SolverService(ServiceConfig(max_pending=0))
