"""The three workloads: inputs made from a seed, and one timed pass each.

Every workload is a closed loop driven by this single-threaded process.
A *pass* sends the workload's whole request list once; a run repeats
passes until its time is used up, so every pass sees the same inputs and
the work counters of one pass repeat exactly.
"""

from __future__ import annotations

import json
import os
import random
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from repro import Problem, solve_iter
from repro.generator.random_systems import (
    GeneratorConfig,
    generate_instance,
    generate_instances,
)
from repro.service.client import ServiceClient, ServiceError

# screen-campaign: the paper's Section VII-A campaign through the cascade
SCREEN_CONFIG = GeneratorConfig(n=10, tmax=7, m="uniform", order="d-first")
#: problems per band of ``r = U/m``, in band order.  Three quarters of a
#: pass's time goes to the tight band: the cascade seldom decides there,
#: so ~60% of its problems fall through to search (~20 ms each against
#: ~2 ms elsewhere).  Left to the generator, the band's size moved by
#: ~10% from seed to seed and throughput with it; fixed quotas keep the
#: mix, and so the work, the same for every seed.  Overloaded problems
#: (``r > 1``, ~0.2 ms each, decided by arithmetic) are ~49% of what the
#: generator makes; at one third the median cell stays inside the ~2 ms
#: cluster instead of sitting on the gap between the two.
SCREEN_BANDS = (
    ("r <= 0.9", Fraction(0), Fraction(9, 10), 1400),
    ("0.9 < r <= 1", Fraction(9, 10), Fraction(1), 200),
    ("r > 1", Fraction(1), None, 800),
)
SCREEN_INSTANCES = sum(quota for *_band, quota in SCREEN_BANDS)
SCREEN_SOLVER = "screen+csp2+dc"
SCREEN_NODE_LIMIT = 2000

# exact-core: every problem straight to four exact engines, no cascade
EXACT_CONFIG = GeneratorConfig(n=8, tmax=6, m="min", order="d-first")
EXACT_INSTANCES = 240
EXACT_ENGINES = (
    ("csp2+dc", 5000),
    ("csp2-generic+dc", 500),
    ("csp1", 500),
    ("csp2+learn", 125),
)

# service-stream: tiny problems through the daemon, a third of them repeats
SERVICE_CONFIG = GeneratorConfig(n=4, tmax=4, m=2, order="d-first")
SERVICE_DISTINCT = 200
#: cache hits (~1 ms) and solved misses (~20 ms) form two latency
#: clusters; with half the requests repeated the median cell would sit
#: on the gap between them, so a third are repeats
SERVICE_REPEATS = 100
SERVICE_SOLVER = "csp2+dc"
SERVICE_TIME_LIMIT = 5.0
SERVICE_JOBS = 2
SERVICE_MAX_PENDING = 64
#: requests in flight; at most the admission window, so none is refused
SERVICE_WINDOW = 4
BOOT_TIMEOUT = 60.0


@dataclass(frozen=True)
class Cell:
    """One (problem, solver) request."""

    problem: Problem
    solver: str


def screen_band(r: Fraction) -> int:
    """Index of the :data:`SCREEN_BANDS` band that holds ``r``."""
    for index, (_name, low, high, _quota) in enumerate(SCREEN_BANDS):
        if (index == 0 or r > low) and (high is None or r <= high):
            return index
    raise ValueError(f"r = {r} is in no band")


def screen_campaign_cells(seed: int) -> list[Cell]:
    """Generated problems in order, each kept while its band of
    :data:`SCREEN_BANDS` has room, until every band is full.  The bands
    are drawn on an input property, never on a verdict."""
    rng = random.Random(seed)
    room = [quota for *_band, quota in SCREEN_BANDS]
    cells = []
    while len(cells) < SCREEN_INSTANCES:
        instance = generate_instance(SCREEN_CONFIG, rng.randrange(2**62))
        band = screen_band(instance.utilization_ratio)
        if room[band]:
            room[band] -= 1
            problem = Problem.of(instance.system, m=instance.m, node_limit=SCREEN_NODE_LIMIT)
            cells.append(Cell(problem, SCREEN_SOLVER))
    return cells


def exact_core_cells(seed: int) -> list[Cell]:
    instances = generate_instances(EXACT_CONFIG, EXACT_INSTANCES, seed=seed)
    return [
        Cell(Problem.of(i.system, m=i.m, node_limit=limit), solver)
        for i in instances
        for solver, limit in EXACT_ENGINES
    ]


def service_stream_requests(seed: int) -> list[Problem]:
    """The request sequence over :data:`SERVICE_DISTINCT` problems.

    The first request is new; the others are a seeded shuffle of new
    problems and repeats, each repeat naming a problem already sent.
    """
    instances = generate_instances(SERVICE_CONFIG, SERVICE_DISTINCT, seed=seed)
    distinct = [
        Problem.of(i.system, m=i.m, time_limit=SERVICE_TIME_LIMIT) for i in instances
    ]
    rng = random.Random(f"service-stream:{seed}")
    kinds = ["new"] * (SERVICE_DISTINCT - 1) + ["repeat"] * SERVICE_REPEATS
    rng.shuffle(kinds)
    sequence = [distinct[0]]
    fresh = 1
    for kind in kinds:
        if kind == "new":
            sequence.append(distinct[fresh])
            fresh += 1
        else:
            sequence.append(distinct[rng.randrange(fresh)])
    return sequence


# -- in-process passes -------------------------------------------------------


@dataclass
class Pass:
    """What one pass measured."""

    #: time spent on the cells, as measured
    wall: float
    latencies: list[float]
    #: ``latencies`` and ``wall`` scaled to the reference host
    scaled: list[float]
    scaled_wall: float
    #: per request: ("report", SolveReport, cached) or (kind, None, False)
    responses: list[tuple]
    tracer: object = None
    setup: float | None = None
    rss_mb: float | None = None
    stats: dict = field(default_factory=dict)
    #: service request id per request index
    request_ids: list = field(default_factory=list)
    #: where a traced daemon wrote its spans
    spans_path: str | None = None


def _reports(workload: str, cells: list[Cell]):
    if workload == "screen-campaign":
        # the campaign is one serial solve_iter stream
        return solve_iter(
            [c.problem for c in cells], [SCREEN_SOLVER], jobs=1, on_fault="record"
        )
    # each exact-core cell has its own node budget: one call per cell
    return (
        report
        for c in cells
        for report in solve_iter(c.problem, c.solver, jobs=1, on_fault="record")
    )


def run_inprocess_pass(workload: str, cells: list[Cell], reference, tracer=None) -> Pass:
    """Send every cell once, serially, timing each answer.

    A chunk of ``reference`` (a :class:`measure.Reference`) runs between
    two cells whenever :data:`~measure.REFERENCE_GAP_S` of cell time has
    passed since the last one; it is not part of any cell's latency.
    """
    import spans
    from measure import REFERENCE_GAP_S, scale_latencies

    latencies = []
    responses = []
    marks = [(0, reference.chunk())]
    if tracer is not None:
        spans.install_inprocess(tracer)
    try:
        stream = _reports(workload, cells)
        since = 0.0
        for index in range(len(cells)):
            if tracer is not None:
                tracer.request = index
            start = time.perf_counter()
            try:
                report = next(stream)
            except StopIteration:
                raise RuntimeError(f"{workload}: stream ended after {index} cells")
            latency = time.perf_counter() - start
            latencies.append(latency)
            responses.append(("report", report, False))
            since += latency
            if since >= REFERENCE_GAP_S:
                marks.append((index + 1, reference.chunk()))
                since = 0.0
    finally:
        if tracer is not None:
            tracer.uninstall()
    marks.append((len(cells), reference.chunk()))
    scaled = scale_latencies(latencies, marks)
    return Pass(
        wall=sum(latencies), latencies=latencies, scaled=scaled,
        scaled_wall=sum(scaled), responses=responses, tracer=tracer,
    )


# -- service passes ----------------------------------------------------------


def _program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def _read_line(stream, timeout: float) -> str:
    ready, _, _ = select.select([stream], [], [], timeout)
    if not ready:
        raise RuntimeError(f"daemon printed nothing within {timeout:.0f}s")
    return stream.readline()


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc status")


def stop_process(proc: subprocess.Popen) -> None:
    """Terminate ``proc`` if it still runs, and wait for it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10.0)


class Daemon:
    """One ``repro-mgrts serve`` process with a fresh cache and journal."""

    def __init__(self, workdir: str, spans_path: str | None = None) -> None:
        os.makedirs(workdir, exist_ok=True)
        args = [
            "serve",
            "--jobs", str(SERVICE_JOBS),
            "--max-pending", str(SERVICE_MAX_PENDING),
            "--cache-dir", os.path.join(workdir, "cache"),
            "--journal", os.path.join(workdir, "journal.jsonl"),
            "--port", "0",
        ]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli", *args]
        else:
            boot = os.path.join(os.path.dirname(os.path.abspath(__file__)), "daemon_boot.py")
            cmd = [sys.executable, boot, spans_path, *args]
        self.spans_path = spans_path
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=_program_env(), text=True
        )
        try:
            listening = json.loads(_read_line(self.proc.stdout, BOOT_TIMEOUT))
            self.client = ServiceClient.connect(listening["host"], listening["port"])
        except BaseException:
            stop_process(self.proc)
            raise
        #: from launch to the hello line read by a connected client
        self.setup = time.perf_counter() - start

    def close(self) -> None:
        """Shut the daemon down over the protocol and wait for it."""
        try:
            self.client.shutdown()
            self.client.close()
            self.proc.wait(timeout=60.0)
        finally:
            stop_process(self.proc)
            self.proc.stdout.close()


def run_service_pass(problems: list[Problem], workdir: str, spans_path=None) -> Pass:
    """Boot a daemon, stream the requests under a fixed window, stop it.

    The pass's timings are not scaled: most of a request's time goes to
    starting its solve child, and reference chunks run beside the stream
    did not follow that time (pass times moved by 5% while the chunks
    moved by 70%), so scaling by them only added noise.
    """
    daemon = Daemon(workdir, spans_path)
    try:
        client = daemon.client
        total = len(problems)
        sent_at = [0.0] * total
        request_ids = [None] * total
        latencies = [0.0] * total
        responses: list = [None] * total
        cursor = [0]  # next request index to be submitted
        submit = client.submit

        def timed_submit(problem, solver=SERVICE_SOLVER, options=None):
            index = cursor[0]
            cursor[0] += 1
            sent_at[index] = time.perf_counter()
            request_ids[index] = submit(problem, solver, options)
            return request_ids[index]

        client.submit = timed_submit
        start = time.perf_counter()
        offset = 0
        while offset < total:

            def on_response(index, report, cached, base=offset):
                latencies[base + index] = time.perf_counter() - sent_at[base + index]
                responses[base + index] = ("report", report, cached)

            try:
                client.solve_many(
                    problems[offset:], SERVICE_SOLVER,
                    window=SERVICE_WINDOW, on_response=on_response,
                )
                offset = total
            except ServiceError as exc:
                # a refusal names no request the client can see: every
                # unanswered request already sent counts as refused
                kind = "busy" if exc.code == "busy" else "error"
                for index in range(offset, cursor[0]):
                    if responses[index] is None:
                        latencies[index] = time.perf_counter() - sent_at[index]
                        responses[index] = (kind, None, False)
                offset = cursor[0]
        wall = time.perf_counter() - start
        del client.submit
        stats = client.stats()
        rss_mb = _peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.close()
    return Pass(
        wall=wall, latencies=latencies, scaled=latencies, scaled_wall=wall,
        responses=responses, setup=daemon.setup, rss_mb=rss_mb, stats=stats, request_ids=request_ids, spans_path=spans_path,
    )
