"""Metric definitions and the small statistics the benchmark reports."""

from __future__ import annotations

import math
import os
import re
import statistics
import struct
import time
from fractions import Fraction

from spans import CASCADE_TESTS

#: tail percentiles considered, lowest first
PERCENTILE_LADDER = (
    Fraction(50), Fraction(90), Fraction(95), Fraction(99), Fraction("99.9"),
)

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10

#: statuses that are verdicts
DECIDED = ("feasible", "infeasible")

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def metric_key(label: str) -> str:
    """``label`` with every character outside ``[A-Za-z0-9_.-]`` made ``-``
    (``csp2+dc`` -> ``csp2-dc``, ``necessary:utilization`` ->
    ``necessary-utilization``)."""
    return re.sub(r"[^A-Za-z0-9_.-]", "-", label)


def valid_metric_name(name: str) -> bool:
    """True iff ``name`` may be a metric name."""
    return _NAME.fullmatch(name) is not None


def tail_percentile(n: int) -> tuple[Fraction, int]:
    """The highest ladder percentile with at least :data:`TAIL_BEYOND` of
    ``n`` samples beyond it, and how many lie beyond.

    The nearest-rank percentile ``p`` is the ``ceil(p * n / 100)``-th
    smallest sample; the samples beyond it are the ones ranked after it.
    """
    best = None
    for p in PERCENTILE_LADDER:
        beyond = n - math.ceil(p * n / 100)
        if beyond >= TAIL_BEYOND:
            best = (p, beyond)
    if best is None:
        raise ValueError(
            f"{n} samples leave fewer than {TAIL_BEYOND} beyond the median"
        )
    return best


def nearest_rank(samples: list[float], p: Fraction) -> float:
    """The nearest-rank ``p``-th percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


#: time of one reference chunk on the reference host: timings are
#: scaled to a host on which the reference work takes this long
REFERENCE_CHUNK_S = 0.0003

#: cell time between two reference chunks of an in-process pass
REFERENCE_GAP_S = 0.020

#: reference chunks whose median sets the host speed around one cell
REFERENCE_WINDOW = 9

#: dicts the reference's memory walk reads from (~8 MB, more than a
#: CPU's own caches hold), and the reads per chunk
REFERENCE_POOL = 20000
REFERENCE_READS = 500


def _queens(n: int) -> int:
    """Count the placements of ``n`` non-attacking queens by backtracking."""
    count = 0
    cols: set[int] = set()
    rising: set[int] = set()
    falling: set[int] = set()

    def place(row: int) -> None:
        nonlocal count
        if row == n:
            count += 1
            return
        for col in range(n):
            if col in cols or row + col in rising or row - col in falling:
                continue
            cols.add(col)
            rising.add(row + col)
            falling.add(row - col)
            place(row + 1)
            cols.discard(col)
            rising.discard(row + col)
            falling.discard(row - col)

    place(0)
    return count


def reference_pool(size: int, reads: int) -> tuple[list[dict], list[int]]:
    """The memory walk's ``size`` dicts, and the ``reads`` places in them
    it reads, spread by a prime stride."""
    pool = [{"a": i, "b": str(i), "c": [i, i + 1]} for i in range(size)]
    return pool, [(i * 7919) % size for i in range(reads)]


def reference_chunk(pool: list[dict], order: list[int]) -> float:
    """Geometric mean of two timings: the four six-queens placements
    (interpreter-bound, ~0.2 ms) and one dict read at each place
    ``order`` names in ``pool`` (bound by memory, ~0.5 ms).

    When the host slowed down, the first mostly slowed by more than the
    program did and the second by less.  Over 12 screen-campaign passes
    whose raw times varied by 9.7% (coefficient of variation), pass time
    over the geometric mean varied by 2.7%, over either alone by 3.9% to
    7.4%; in a later, noisier set, by 4.7% against a raw 8.8%.
    """
    start = time.perf_counter()
    solutions = _queens(6)
    queens = time.perf_counter() - start
    if solutions != 4:
        raise RuntimeError(f"reference work found {solutions} placements, not 4")
    total = 0
    start = time.perf_counter()
    for index in order:
        entry = pool[index]
        total += entry["a"] + entry["c"][1]
    walk = time.perf_counter() - start
    return math.sqrt(queens * walk)


class Reference:
    """Reference work run in a helper process, one chunk on request.

    The helper is forked from this process, so it runs on the same CPUs,
    and it holds the memory walk's pool, so the pool does not count in
    this process's peak RSS.  Nothing of the program runs in a chunk.
    The helper exits when the pipe to it closes, also if this process
    dies.
    """

    def __init__(self) -> None:
        command_r, command_w = os.pipe()
        answer_r, answer_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                os.close(command_w)
                os.close(answer_r)
                pool, order = reference_pool(REFERENCE_POOL, REFERENCE_READS)
                while os.read(command_r, 1) == b"x":
                    os.write(answer_w, struct.pack("d", reference_chunk(pool, order)))
                status = 0
            finally:
                os._exit(status)
        os.close(command_r)
        os.close(answer_w)
        self._command = command_w
        self._answer = answer_r

    def chunk(self) -> float:
        """Run one chunk in the helper and return its time."""
        os.write(self._command, b"x")
        answer = os.read(self._answer, 8)
        if len(answer) != 8:
            raise RuntimeError("the reference helper stopped")
        return struct.unpack("d", answer)[0]

    def close(self) -> None:
        """Stop the helper and wait for it."""
        if self.pid:
            os.close(self._command)
            os.close(self._answer)
            os.waitpid(self.pid, 0)
            self.pid = 0

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def reference_scale(chunks: list[float]) -> float:
    """Factor that turns times taken beside ``chunks`` into reference-host
    times: :data:`REFERENCE_CHUNK_S` over the median chunk."""
    return REFERENCE_CHUNK_S / statistics.median(chunks)


def scale_latencies(latencies: list[float], marks: list[tuple[int, float]]) -> list[float]:
    """``latencies`` scaled to the reference host by the chunks run among them.

    ``marks`` holds ``(cells, chunk_s)`` per reference chunk, in order:
    the chunk ran after the first ``cells`` latencies.  A cell belongs to
    the first chunk run after it (the last chunk, for cells after it) and
    is scaled by the median of the :data:`REFERENCE_WINDOW` chunks
    centred on that one, so the host's speed is taken from the same
    fraction of a second as the cell itself.
    """
    if not marks:
        raise ValueError("no reference chunks ran among the cells")
    chunks = [chunk for _cells, chunk in marks]
    half = REFERENCE_WINDOW // 2
    scaled = []
    j = 0
    for index, latency in enumerate(latencies):
        while j < len(marks) - 1 and marks[j][0] <= index:
            j += 1
        lo = max(0, min(j - half, len(chunks) - REFERENCE_WINDOW))
        scaled.append(latency * reference_scale(chunks[lo:lo + REFERENCE_WINDOW]))
    return scaled


def fast_quarter(values) -> float:
    """The first quartile of per-pass values (inclusive method): the pass
    time that a quarter of the passes beat.

    On a shared host a slow spell can last half a run, which moves a
    median over the passes; the first quartile moves only when a spell
    lasts three quarters of it.
    """
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def cell_failure(kind: str, status: str | None = None, wrong: bool = False) -> str | None:
    """Why one cell counts as failed, or ``None`` if it did not fail.

    ``kind`` is the response kind: ``"report"`` for an answer,
    ``"raised"`` for an exception in-process, ``"error"`` or ``"busy"``
    for a refusal line from the service.  A report fails when its status
    is a ``fault:*`` label or the answer checks found it wrong.
    """
    if kind in ("raised", "error", "busy"):
        return kind
    if kind != "report":
        raise ValueError(f"unknown response kind {kind!r}")
    if status is not None and status.startswith("fault:"):
        return status
    if wrong:
        return "wrong-answer"
    return None


def failed_frac(failures: list[str | None]) -> float:
    """Failed cells over attempted cells."""
    return sum(f is not None for f in failures) / len(failures)


# -- the metric lists BENCHMARK.json declares --------------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "cells/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("decided_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: solvers the traced run times; the first is the screening campaign's
SOLVERS = ("screen+csp2+dc", "csp2+dc", "csp2-generic+dc", "csp1", "csp2+learn")

#: engines whose search rate is reported
SEARCH_SOLVERS = ("csp2+dc", "csp2-generic+dc", "csp1", "csp2+learn")

PER_LAYER = tuple(
    [
        ("analysis.cascade_s", "s"),
        ("analysis.cascade_calls", "count"),
        ("analysis.decided_frac", "ratio"),
    ]
    + [(f"analysis.test_s.{metric_key(t)}", "s") for t in CASCADE_TESTS]
    + [(f"analysis.decided.{metric_key(t)}", "count") for t in CASCADE_TESTS]
    + [
        ("kernels.simulate_s", "s"),
        ("kernels.simulate_calls", "count"),
        ("kernels.demand_s", "s"),
        ("kernels.demand_calls", "count"),
        ("kernels.fixpoint_s", "s"),
        ("kernels.fixpoint_calls", "count"),
        ("solvers.build_s", "s"),
    ]
    + [(f"solvers.solve_s.{metric_key(s)}", "s") for s in SOLVERS]
    + [
        ("csp.nodes", "count"),
        ("csp.fails", "count"),
        ("csp.propagations", "count"),
    ]
    + [(f"csp.nodes_per_s.{metric_key(s)}", "1/s") for s in SEARCH_SOLVERS]
    + [
        ("csp.fail_ratio", "ratio"),
        ("csp.learn.learned", "count"),
        ("csp.learn.backjumps", "count"),
        ("schedule.validate_s", "s"),
        ("schedule.validate_calls", "count"),
        ("batch.supervise_s", "s"),
        ("batch.spawn_overhead_ms", "ms"),
        ("batch.cache_get_s", "s"),
        ("batch.cache_put_s", "s"),
        ("batch.cache_hit_frac", "ratio"),
        ("batch.faults", "count"),
        ("service.received", "count"),
        ("service.computed", "count"),
        ("service.cached", "count"),
        ("service.busy", "count"),
        ("service.errors", "count"),
        ("service.faulted", "count"),
        ("service.dup_computes", "count"),
        ("service.parse_s", "s"),
        ("service.encode_s", "s"),
        ("service.overhead_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def metric_block(values: dict[str, float], declared) -> dict[str, dict]:
    """``{"name": {"value": v, "unit": u}}`` for every declared metric;
    a metric the workload does not touch reads 0."""
    unknown = set(values) - {name for name, _ in declared}
    if unknown:
        raise KeyError(f"undeclared metrics: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared
    }
