"""The repository benchmark: one command, three workloads, checked answers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload screen-campaign --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates plain and traced passes and reports the
per-layer metrics and what tracing costs.  Human-readable lines go
first; the last line of standard output is the JSON result.  The exit
code is 0 when every answer checked out and the work counters repeated,
1 otherwise.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("screen-campaign", "exact-core", "service-stream")
#: timed set-up repetitions per run (one untimed warm-up comes first)
SETUP_SAMPLES = 9
#: reference chunks that scale one set-up sample
SETUP_CHUNKS = 15
#: every REPLAY_STRIDE-th cell is solved again when a run made one pass
#: (7 is coprime with exact-core's four engines, so each engine is replayed)
REPLAY_STRIDE = 7
#: where runs keep scratch files and span dumps, inside the checkout
STATE_DIR = ".perfbench"


def _use_checkout_sources() -> None:
    """Import the program from ``./src`` of the checkout, or stop."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit("perfbench: no src/repro here; run from the root of a checkout")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


#: run by a fresh interpreter after the reference functions' source:
#: import the program between two sets of reference chunks, and print
#: the three timings as JSON
_IMPORT_PROBE = """
pool, order = reference_pool({size}, {reads})
before = [reference_chunk(pool, order) for _ in range({chunks})]
start = time.perf_counter()
import repro
took = time.perf_counter() - start
after = [reference_chunk(pool, order) for _ in range({chunks})]
import json
print(json.dumps([before, took, after]))
"""


def import_probe() -> list:
    """Import the program in a fresh interpreter: ``[before, took, after]``,
    the reference chunks before the import, its time, and the chunks
    after it."""
    import inspect

    import measure

    code = "import math\nimport time\n" + "".join(
        inspect.getsource(f)
        for f in (measure._queens, measure.reference_chunk, measure.reference_pool)
    ) + _IMPORT_PROBE.format(
        size=measure.REFERENCE_POOL, reads=measure.REFERENCE_READS, chunks=SETUP_CHUNKS
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=os.path.abspath("src")),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout)


def _import_setup_s() -> float:
    """Median time for a fresh interpreter to import the program.

    Each sample is scaled by reference chunks the same interpreter runs
    just before and just after the import.
    """
    from measure import reference_scale

    samples = []
    for k in range(SETUP_SAMPLES + 1):
        before, took, after = import_probe()
        if k:
            samples.append(took * reference_scale(before + after))
    return statistics.median(samples)


def _pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    On a shared host each CPU's speed changes from second to second with
    the load beside it, and the two CPUs seldom run at the same speed.
    Pinned, the reference chunks time the same CPU as the program.  The
    service workload is not pinned: its daemon and solve children would
    then queue on one CPU, and its passes spread twice as much.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _run_passes(run_pass, seconds: float, trace: bool):
    """Plain (and, when tracing, traced) passes until ``seconds`` are used.

    A pass is started only if the run is expected to end within the
    budget; at least one pass of each kind runs.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(False))
        if trace:
            traced.append(run_pass(True))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > seconds:
            return plain, traced


# -- work counters -----------------------------------------------------------


def fingerprint(report) -> tuple:
    """The parts of an answer that must repeat exactly for one input."""
    stats = report.stats
    extra = stats.extra or {}
    screen = extra.get("screen") or {}
    return (
        report.status_label, report.decided_by, stats.nodes, stats.fails,
        stats.propagations, extra.get("learned"), extra.get("backjumps"),
        tuple((t["name"], t["verdict"]) for t in screen.get("tests", ())),
    )


def _reports(p) -> list:
    return [report for _kind, report, _cached in p.responses]


def inprocess_layers(p) -> dict[str, float]:
    """Per-layer metrics of one traced in-process pass."""
    from measure import SEARCH_SOLVERS, SOLVERS, metric_key
    from spans import CASCADE_TESTS, totals

    agg = totals(p.tracer.spans)

    def span(name, key="self_s"):
        return agg[name][key] if name in agg else 0.0

    out = {
        "analysis.cascade_s": span("analysis.cascade"),
        "analysis.cascade_calls": span("analysis.cascade", "calls"),
        "kernels.simulate_s": span("kernels.simulate"),
        "kernels.simulate_calls": span("kernels.simulate", "calls"),
        "kernels.demand_s": span("kernels.demand"),
        "kernels.demand_calls": span("kernels.demand", "calls"),
        "kernels.fixpoint_s": span("kernels.fixpoint"),
        "kernels.fixpoint_calls": span("kernels.fixpoint", "calls"),
        "solvers.build_s": span("solvers.build"),
        "schedule.validate_s": span("schedule.validate"),
        "schedule.validate_calls": span("schedule.validate", "calls"),
    }
    for solver in SOLVERS:
        out[f"solvers.solve_s.{metric_key(solver)}"] = span(f"solvers.solve.{solver}")
    nodes_by_engine: dict[str, int] = {}
    nodes = fails = propagations = learned = backjumps = 0
    decided_by_test = dict.fromkeys(CASCADE_TESTS, 0)
    test_s = dict.fromkeys(CASCADE_TESTS, 0.0)
    for report in _reports(p):
        stats = report.stats
        nodes += stats.nodes
        fails += stats.fails
        propagations += stats.propagations
        nodes_by_engine[report.winner] = nodes_by_engine.get(report.winner, 0) + stats.nodes
        extra = stats.extra or {}
        learned += extra.get("learned", 0)
        backjumps += extra.get("backjumps", 0)
        screen = extra.get("screen") or {}
        for test in screen.get("tests", ()):
            if test["name"] in test_s:
                test_s[test["name"]] += test["elapsed"]
            else:
                print(f"perfbench: cascade test {test['name']!r} has no metric", file=sys.stderr)
        if screen.get("decided_by") in decided_by_test:
            decided_by_test[screen["decided_by"]] += 1
    for test in CASCADE_TESTS:
        out[f"analysis.test_s.{metric_key(test)}"] = test_s[test]
        out[f"analysis.decided.{metric_key(test)}"] = decided_by_test[test]
    calls = out["analysis.cascade_calls"]
    out["analysis.decided_frac"] = sum(decided_by_test.values()) / calls if calls else 0.0
    for solver in SEARCH_SOLVERS:
        busy = span(f"solvers.solve.{solver}", "total_s")
        out[f"csp.nodes_per_s.{metric_key(solver)}"] = (
            nodes_by_engine.get(solver, 0) / busy if busy else 0.0
        )
    out.update({
        "csp.nodes": nodes,
        "csp.fails": fails,
        "csp.propagations": propagations,
        "csp.fail_ratio": fails / nodes if nodes else 0.0,
        "csp.learn.learned": learned,
        "csp.learn.backjumps": backjumps,
    })
    return out


def service_layers(p, distinct: int) -> dict[str, float]:
    """Per-layer metrics of one traced service pass (daemon-side spans)."""
    from spans import END, NAME, NOTE, REQUEST, START, totals

    with open(p.spans_path, encoding="utf-8") as fh:
        spans = json.load(fh)
    agg = totals(spans)

    def total(name, key="total_s"):
        return agg[name][key] if name in agg else 0.0

    supervised = [s for s in spans if s[NAME] == "batch.supervise"]
    ok = [s for s in supervised if s[NOTE] is not None]
    gets = [s for s in spans if s[NAME] == "batch.cache_get"]
    parent_side: dict = {}
    for s in spans:
        if s[NAME] in ("batch.supervise", "batch.cache_get", "batch.cache_put"):
            parent_side[s[REQUEST]] = parent_side.get(s[REQUEST], 0.0) + s[END] - s[START]
    overhead = [
        lat - parent_side.get(rid, 0.0)
        for lat, rid, (kind, _r, _c) in zip(p.latencies, p.request_ids, p.responses)
        if kind == "report"
    ]
    stats = p.stats
    return {
        "batch.supervise_s": total("batch.supervise"),
        "batch.spawn_overhead_ms": 1000.0 * statistics.fmean(
            s[END] - s[START] - s[NOTE] for s in ok
        ) if ok else 0.0,
        "batch.cache_get_s": total("batch.cache_get"),
        "batch.cache_put_s": total("batch.cache_put"),
        "batch.cache_hit_frac": sum(bool(s[NOTE]) for s in gets) / len(gets) if gets else 0.0,
        "batch.faults": len(supervised) - len(ok),
        "service.received": stats.get("received", 0),
        "service.computed": stats.get("computed", 0),
        "service.cached": stats.get("cached", 0),
        "service.busy": stats.get("busy", 0),
        "service.errors": stats.get("errors", 0),
        "service.faulted": stats.get("faulted", 0),
        "service.dup_computes": stats.get("computed", 0) - distinct,
        "service.parse_s": total("service.parse"),
        "service.encode_s": total("service.encode"),
        "service.overhead_ms": 1000.0 * statistics.fmean(overhead) if overhead else 0.0,
    }


# -- the workloads -----------------------------------------------------------


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import answers
    import workloads
    from measure import DECIDED, Reference
    from spans import Tracer

    _pin_to_one_cpu()
    if workload == "screen-campaign":
        cells = workloads.screen_campaign_cells(seed)
    else:
        cells = workloads.exact_core_cells(seed)
    setup = _import_setup_s()

    first: list = []  # the first pass's reports, kept for the answer checks
    expected: list = []
    peak: list = []
    drift = 0
    layers = []

    def one_pass(traced: bool):
        nonlocal drift
        p = workloads.run_inprocess_pass(
            workload, cells, reference, Tracer() if traced else None
        )
        reports = _reports(p)
        if not first:
            first.extend(reports)
            expected.extend(fingerprint(r) for r in reports)
            # the high-water mark of the first pass, before any repeat
            peak.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        else:
            drift += sum(fingerprint(r) != e for r, e in zip(reports, expected))
        if traced:
            p.tracer.dump(
                os.path.join(STATE_DIR, f"spans-{workload}-seed{seed}-traced{len(layers) + 1}.json")
            )
            layers.append(inprocess_layers(p))
        # later passes keep only their timings, so memory does not grow per pass
        p.responses = p.tracer = None
        return p

    with Reference() as reference:
        plain, traced = _run_passes(one_pass, seconds, trace)
        if len(plain) + len(traced) == 1:
            # one pass only: solve every REPLAY_STRIDE-th cell again
            subset = list(range(0, len(cells), REPLAY_STRIDE))
            replay = workloads.run_inprocess_pass(
                workload, [cells[i] for i in subset], reference
            )
            drift = sum(
                fingerprint(r) != expected[i] for i, r in zip(subset, _reports(replay))
            )
    reports = first

    if workload == "screen-campaign":
        failures, unchecked = answers.check_screen(cells, reports)
    else:
        failures = answers.check_exact(cells, reports, len(workloads.EXACT_ENGINES))
        unchecked = 0
    runs = len(plain) + len(traced)
    return {
        "cells": len(cells),
        "plain": plain,
        "traced": traced,
        "setup_s": setup,
        "rss_mb": peak[0],
        "decided": sum(r.status_label in DECIDED for r in reports),
        "failures": failures * runs,
        "unchecked": unchecked,
        "drift": drift,
        "layers": layers,
    }


def run_service(seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    import answers
    import workloads
    from measure import DECIDED

    problems = workloads.service_stream_requests(seed)
    count = [0]

    def one_pass(traced: bool):
        count[0] += 1
        spans_path = None
        if traced:
            spans_path = os.path.abspath(
                os.path.join(STATE_DIR, f"spans-service-stream-seed{seed}-pass{count[0]}.json")
            )
        return workloads.run_service_pass(
            problems, os.path.join(workdir, f"pass{count[0]}"), spans_path
        )

    plain, traced = _run_passes(one_pass, seconds, trace)
    boots = [p.setup for p in plain]
    while len(boots) < SETUP_SAMPLES:
        count[0] += 1
        daemon = workloads.Daemon(os.path.join(workdir, f"boot{count[0]}"))
        daemon.close()
        boots.append(daemon.setup)

    reference = answers.service_reference(problems)
    failures = []
    for p in plain + traced:
        failed, unchecked = answers.check_service(problems, p.responses, reference)
        failures += failed
    first = plain[0].responses
    return {
        "cells": len(problems),
        "plain": plain,
        "traced": traced,
        "setup_s": statistics.median(boots),
        "rss_mb": statistics.median(p.rss_mb for p in plain),
        "decided": sum(
            kind == "report" and r.status_label in DECIDED
            for kind, r, _c in first
        ),
        "failures": failures,
        "unchecked": unchecked,
        "drift": 0,
        "layers": [service_layers(p, workloads.SERVICE_DISTINCT) for p in traced],
    }


def end_to_end(result: dict) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and a note on how they were taken.

    Each timing is taken from every plain pass and the passes' first
    quartile is reported (:func:`measure.fast_quarter`).  Every pass
    sends the same requests, so the passes differ only in how busy the
    host was.
    """
    from measure import fast_quarter, nearest_rank, tail_percentile

    plain = result["plain"]
    p_tail, beyond = tail_percentile(result["cells"])
    values = {
        "setup_s": result["setup_s"],
        "throughput_rps": result["cells"] / fast_quarter(p.scaled_wall for p in plain),
        "latency_p50_ms": 1000.0 * fast_quarter(statistics.median(p.scaled) for p in plain),
        "latency_tail_ms": 1000.0 * fast_quarter(
            nearest_rank(p.scaled, p_tail) for p in plain
        ),
        "decided_frac": result["decided"] / result["cells"],
        "peak_rss_mb": result["rss_mb"],
    }
    raw = sum(p.wall for p in plain)
    notes = [
        f"timings are first quartiles over {len(plain)} plain passes; latency_tail_ms "
        f"is the p{float(p_tail):g} ({beyond} of {result['cells']} samples beyond it)",
        f"reference chunks scaled the passes' cell time by "
        f"{sum(p.scaled_wall for p in plain) / raw:.4f} overall",
    ]
    return values, notes


def per_layer(result: dict) -> dict:
    """Median of each per-layer metric over the traced passes, and the
    median traced pass's scaled cell time over the median plain pass's."""
    layers = result["layers"]
    values = {
        name: statistics.median(layer.get(name, 0.0) for layer in layers)
        for name in set().union(*layers)
    }
    plain = statistics.median(p.scaled_wall for p in result["plain"])
    traced = statistics.median(p.scaled_wall for p in result["traced"])
    values["trace.overhead_frac"] = traced / plain - 1.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _use_checkout_sources()
    perfbench = os.path.dirname(os.path.abspath(__file__))
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    from measure import END_TO_END, PER_LAYER, failed_frac, metric_block

    trace = bool(args.trace)
    os.makedirs(STATE_DIR, exist_ok=True)
    workdir = os.path.join(STATE_DIR, f"work-{os.getpid()}")
    try:
        if args.workload == "service-stream":
            result = run_service(args.seed, args.seconds, trace, workdir)
        else:
            result = run_inprocess(args.workload, args.seed, args.seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = result["failures"]
    failed = sum(f is not None for f in failures)
    e2e, notes = end_to_end(result)
    e2e_block = metric_block(e2e, END_TO_END)
    print(f"workload {args.workload}  seed {args.seed}  passes "
          f"{len(result['plain'])} plain + {len(result['traced'])} traced")
    for name, entry in e2e_block.items():
        print(f"  {name:<18} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'failed_frac':<18} {failed_frac(failures):>14.6g} ratio")
    print("  pass cell time s: " + " ".join(f"{p.wall:.3f}" for p in result["plain"]))
    for note in notes:
        print(f"  {note}")
    if result["unchecked"]:
        print(f"  {result['unchecked']} decided verdicts had no independent check")
    kinds = sorted({f for f in failures if f is not None})
    if kinds:
        print(f"  failed cells: {', '.join(kinds)}")
    if result["drift"]:
        print(f"  {result['drift']} repeated cells did not reproduce their work counters")
    if trace:
        block = metric_block(per_layer(result), PER_LAYER)
        for name, entry in block.items():
            print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    else:
        block = e2e_block
    correct = failed == 0 and result["drift"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(failures),
        "failed": failed,
        "metrics": block,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
