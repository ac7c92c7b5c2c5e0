"""Command-line interface: ``repro-mgrts`` (or ``python -m repro.cli``).

Subcommands
-----------
``generate``    sample random instances (Section VII-A) to a JSON file
``solve``       solve one instance (from a JSON file or inline tuples)
``analyze``     run the polynomial-time screening cascade (no search)
``difftest``    differentially fuzz a set of solvers against each other
                (seeded grid, witness validation, counterexample shrinking)
``lint``        run the contract-aware static analyzer (determinism,
                explain-contract, registry, pickle and trail safety)
``solvers``     list every registered solver with its metadata
``validate``    re-check a solved schedule JSON against C1-C4
``figure1``     print the paper's Figure 1 chart
``experiment``  reproduce table1 / table2 / table3 / table4
``batch``       run an (instance x solver) campaign in parallel with
                caching and crash-safe ``--resume``
``serve``       run the solver service daemon (JSONL over TCP or stdio)
``submit``      stream a problem set through a running daemon
``journal``     journal utilities (``merge``: N shard journals -> one
                canonical-order journal, last-line-wins)

``--solver`` values are registry names (see ``repro-mgrts solvers``),
including racing portfolios such as ``portfolio:csp2+dc,sat`` and
screened pipelines such as ``screen+csp2+dc``.

Instance JSON format::

    {"tasks": [[O, C, D, T], ...], "m": 2}

Schedule JSON (produced by ``solve --output``) adds ``"table"`` (m x T,
-1 = idle).  ``batch`` streams one JSONL line per completed
(instance, solver) cell to ``--output``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments.report import (
    format_table1,
    format_table2,
    format_table3,
    format_table4,
)
from repro.generator.random_systems import GeneratorConfig, generate_instances
from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.schedule.io import (
    dump_json,
    load_instance,
    schedule_from_dict,
    schedule_to_dict,
    system_to_dict,
)
from repro.schedule.render import render_gantt
from repro.schedule.validate import validate as validate_schedule
from repro.solvers.api import solve as api_solve
from repro.solvers.registry import available_solvers, is_solver_name, iter_solver_info

__all__ = ["main"]


def _load_instance(path: str) -> tuple[TaskSystem, Platform]:
    with open(path) as fh:
        return load_instance(json.load(fh))


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = GeneratorConfig(
        n=args.n, tmax=args.tmax,
        m=args.m if args.m is not None else "uniform",
        order=args.order, offsets=args.offsets,
    )
    instances = generate_instances(cfg, args.count, seed=args.seed)
    payload = [
        {"tasks": [list(t.as_tuple()) for t in inst.system], "m": inst.m,
         "seed": inst.seed}
        for inst in instances
    ]
    out = json.dumps(payload if args.count != 1 else payload[0], indent=2)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out + "\n")
        print(f"wrote {args.count} instance(s) to {args.output}")
    else:
        print(out)
    return 0


def _bad_solver(name: str) -> bool:
    """Report (and reject) a name the registry cannot resolve."""
    if not is_solver_name(name):
        print(
            f"unknown solver {name!r}; pick from {available_solvers()} "
            "(or a portfolio:NAME,NAME,... of them)",
            file=sys.stderr,
        )
        return True
    return False


def _cmd_solvers(args: argparse.Namespace) -> int:
    """List every registered solver family with its registry metadata."""
    infos = [i for i in iter_solver_info() if i.advertise or args.all]
    if args.json:
        # service clients discover what a server can run from this
        # payload; keep additions additive (consumers pin fields)
        payload = {
            "solvers": [
                {
                    "base": info.base,
                    "names": info.names(),
                    "description": info.description,
                    "paper_section": info.paper_section,
                    "pick_when": info.pick_when,
                    "capabilities": sorted(info.capabilities),
                    "options": list(info.options),
                    "platforms": list(info.platforms),
                    "suffixes": dict(info.suffixes),
                    "memory_bound": info.memory_bound,
                }
                for info in infos
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    for info in infos:
        caps = ", ".join(sorted(info.capabilities)) or "incomplete (FEASIBLE/UNKNOWN only)"
        print(f"{' / '.join(info.names())}")
        print(f"    {info.description}")
        if info.paper_section:
            print(f"    paper: {info.paper_section}")
        print(f"    capabilities: {caps}")
        print(f"    platforms: {', '.join(info.platforms)}")
        if info.options:
            print(f"    options: {', '.join(info.options)}")
        if info.pick_when:
            print(f"    pick when: {info.pick_when}")
        print()
    print("portfolio:NAME,NAME,...  races any of the above; first definitive answer wins")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    if _bad_solver(args.solver):
        return 2
    system, platform = _load_instance(args.instance)
    if args.min_processors:
        from repro.solvers.min_processors import find_min_processors

        res_min = find_min_processors(
            system, solver=args.solver, time_limit_per_m=args.time_limit
        )
        for tried_m, status in res_min.attempts.items():
            provenance = res_min.decided_by.get(tried_m)
            tail = f"  (decided by {provenance})" if provenance else ""
            print(f"m={tried_m}: {status.value}{tail}")
        if res_min.found:
            kind = "exact minimum" if res_min.exact else "upper bound"
            print(f"smallest sufficient m = {res_min.m} ({kind})")
            if res_min.result.schedule is not None:
                print(render_gantt(res_min.result.schedule))
            return 0
        print("no sufficient m found within the budget")
        return 2
    res = api_solve(
        system,
        platform=platform,
        solver=args.solver,
        time_limit=args.time_limit,
        seed=args.seed,
    )
    print(f"status: {res.status.value}")
    print(
        f"solver: {args.solver}  nodes: {res.stats.nodes}  "
        f"elapsed: {res.stats.elapsed:.3f}s"
    )
    if res.schedule is not None:
        print(render_gantt(res.schedule))
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(dump_json(schedule_to_dict(res.schedule)))
            print(f"wrote schedule to {args.output}")
    return 0 if res.status.value != "unknown" else 2


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Run the polynomial-time screening cascade on one instance.

    Prints each certificate in cascade order and the overall verdict
    with its provenance; never invokes exact search.  Arbitrary-deadline
    instances are cloned up front (Section VI-B, feasibility-preserving)
    and flagged, so the witnesses' task indices are unambiguous: they
    refer to the printed clone count.  Exit code 0 when a certificate
    decided the instance, 2 when every test abstained (the exact solvers
    are needed), mirroring ``solve``'s unknown-exit.
    """
    from repro.analysis import run_cascade
    from repro.model.transform import clone_for_arbitrary_deadlines

    system, platform = _load_instance(args.instance)
    m = args.m if args.m is not None else platform.m
    if m < 1:
        print(f"-m must be >= 1, got {m}", file=sys.stderr)
        return 2
    cloned = False
    if not system.is_constrained:
        original_n = system.n
        system, _ = clone_for_arbitrary_deadlines(system)
        cloned = True
        if not args.json:
            print(
                f"note: arbitrary deadlines; analyzing the constrained "
                f"clone ({original_n} tasks -> {system.n} clones, "
                "Section VI-B) — witness task indices refer to clones"
            )
    outcome = run_cascade(system, m, simulate=not args.no_simulate)
    if args.json:
        payload = outcome.to_dict()
        payload["cloned"] = cloned
        print(json.dumps(payload, indent=2))
        return 0 if outcome.decided is not None else 2
    for cert in outcome.certificates:
        print(str(cert))
    if outcome.decided is not None:
        print(
            f"verdict: {outcome.verdict.value} "
            f"(decided by {outcome.decided.test_name}, "
            f"{len(outcome.certificates)} test(s), "
            f"{outcome.elapsed * 1e3:.2f} ms)"
        )
        if args.show_schedule and outcome.decided.schedule is not None:
            print(render_gantt(outcome.decided.schedule))
        return 0
    print(
        f"verdict: unknown — every test abstained "
        f"({len(outcome.certificates)} run, {outcome.elapsed * 1e3:.2f} ms); "
        "use `solve` (or the screen+NAME solver) for an exact answer"
    )
    return 2


def _cmd_difftest(args: argparse.Namespace) -> int:
    """Differentially test solvers on a seeded generator grid.

    Every instance is solved by every ``--solvers`` member; verdicts are
    cross-checked capability-aware, witness schedules are re-validated
    against C1-C4, and any finding is shrunk to a 1-minimal
    counterexample (disable with ``--no-shrink``).  ``--artifacts``
    writes a JSONL trail with full SolveReport provenance.  Exit code 0
    on a clean run, 1 when any finding survived, 2 on bad usage.
    """
    from repro.difftest import DiffTestConfig, run_difftest, write_artifacts

    if _invalid_jobs(args):
        return 2
    solvers = _split_solver_list(args.solvers)
    if not solvers:
        print(f"--solvers is empty; pick from {available_solvers()}",
              file=sys.stderr)
        return 2
    if any(_bad_solver(s) for s in solvers):
        return 2
    config = DiffTestConfig(
        solvers=tuple(solvers),
        instances=args.instances,
        seed=args.seed,
        n=args.n,
        tmax=args.tmax,
        m=args.m if args.m is not None else "uniform",
        time_limit=args.time_limit,
        shrink=not args.no_shrink,
        jobs=args.jobs,
    )
    progress = _progress_printer(args, "cell")
    report = run_difftest(config, progress=progress)
    if not args.quiet:
        print(file=sys.stderr)
    if args.artifacts:
        write_artifacts(args.artifacts, report)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
        if args.artifacts:
            print(f"artifacts written to {args.artifacts}")
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the contract-aware static analyzer over the repo.

    Exit code 0 when clean (no unbaselined findings), 1 when findings
    remain, 2 on an engine error (bad path, syntax error, malformed
    baseline).  ``--json`` emits the machine-readable report;
    ``--list-rules`` prints the registered rules and exits.
    """
    from repro.lint import LintError, iter_rules, run_lint

    if args.list_rules:
        rules = iter_rules()
        if args.json:
            print(json.dumps([
                {
                    "id": r.id,
                    "family": r.family,
                    "description": r.description,
                    "contract": r.contract,
                    "scope": list(r.scope),
                }
                for r in rules
            ], indent=2))
        else:
            width = max(len(r.id) for r in rules)
            for r in rules:
                print(f"{r.id:<{width}}  [{r.family}] {r.description}")
        return 0
    try:
        report = run_lint(
            args.root, targets=args.paths or None, baseline=args.baseline
        )
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    with open(args.schedule) as fh:
        sched = schedule_from_dict(json.load(fh))
    result = validate_schedule(sched)
    if result.ok:
        print("schedule is feasible (C1-C4 hold)")
        return 0
    print(f"schedule violates {len(result.violations)} constraint(s):")
    for v in result.violations:
        print(f"  {v}")
    return 1


def _cmd_figure1(args: argparse.Namespace) -> int:
    from repro.experiments.figure1 import figure1

    if args.instance:
        system, _ = _load_instance(args.instance)
        print(figure1(system))
    else:
        print(figure1())
    return 0


def _invalid_jobs(args: argparse.Namespace) -> bool:
    """Report (and reject) a non-positive --jobs value."""
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return True
    return False


def _progress_printer(args: argparse.Namespace, noun: str):
    """A carriage-return progress callback on stderr (None when --quiet)."""
    if args.quiet:
        return None

    def progress(done, total):
        print(f"\r  {noun} {done}/{total}", end="", file=sys.stderr, flush=True)

    return progress


def _split_solver_list(text: str) -> list[str]:
    """Split a ``--solvers`` value without breaking portfolio names.

    Portfolio names contain commas (``portfolio:csp2+dc,sat``), so a
    plain comma split would shred them.  Rules: ``;`` — when present —
    is the top-level separator (``csp1;portfolio:csp2+dc,sat``); a value
    containing ``portfolio:`` but no ``;`` is one single name; anything
    else splits on commas as it always has.
    """
    if ";" in text:
        parts = text.split(";")
    elif "portfolio:" in text:
        parts = [text]
    else:
        parts = text.split(",")
    return [s.strip() for s in parts if s.strip()]


def _cmd_batch(args: argparse.Namespace) -> int:
    """Run an (instance x solver) campaign through the batch layer."""
    from repro.batch import cells_for_matrix, run_batch
    from repro.generator.random_systems import Instance

    if _invalid_jobs(args):
        return 2
    solvers = _split_solver_list(args.solvers)
    if not solvers:
        print(f"--solvers is empty; pick from {available_solvers()}",
              file=sys.stderr)
        return 2
    if any(_bad_solver(s) for s in solvers):
        return 2
    if args.instances_file:
        with open(args.instances_file) as fh:
            payload = json.load(fh)
        if isinstance(payload, dict):
            payload = [payload]
        instances = [
            Instance(
                system=TaskSystem.from_tuples(d["tasks"]),
                m=d.get("m", 1),
                seed=d.get("seed", i),
            )
            for i, d in enumerate(payload)
        ]
    else:
        cfg = GeneratorConfig(
            n=args.n, tmax=args.tmax,
            m=args.m if args.m is not None else "uniform",
        )
        instances = generate_instances(cfg, args.count, seed=args.seed)

    if args.retries < 0:
        print(f"--retries must be >= 0, got {args.retries}", file=sys.stderr)
        return 2
    chaos = None
    if args.chaos_seed is not None:
        from repro.batch import ChaosConfig

        try:
            chaos = ChaosConfig(seed=args.chaos_seed, rate=args.chaos_rate)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    progress = _progress_printer(args, "cell")
    cells = cells_for_matrix(instances, solvers, args.time_limit)
    report = run_batch(
        cells,
        jobs=args.jobs,
        cache=args.cache_dir,
        journal=args.output,
        resume=args.resume,
        progress=progress,
        supervised=args.supervised,
        retries=args.retries,
        memory_limit=args.memory_limit,
        chaos=chaos,
        fault_resume=args.fault_resume,
    )
    if not args.quiet:
        print(file=sys.stderr)

    by_status: dict[str, int] = {}
    for r in report.records:
        by_status[r.status] = by_status.get(r.status, 0) + 1
    statuses = "  ".join(f"{k}: {v}" for k, v in sorted(by_status.items()))
    print(f"{report.total} cells ({len(instances)} instances x {len(solvers)} solvers)")
    print(f"  {statuses}")
    print(
        f"  computed: {report.computed}  cache hits: {report.cache_hits}  "
        f"resumed: {report.resumed}  wall: {report.elapsed:.2f}s  jobs: {args.jobs}"
    )
    if report.faults or report.retried or chaos is not None:
        print(f"  faults: {report.faults}  retried: {report.retried}")
    print(f"records streamed to {args.output}")
    return 0


def _load_problem_set(args: argparse.Namespace):
    """The submit command's problem list (instances file or generator)."""
    from repro.generator.random_systems import Instance
    from repro.solvers.problem import Problem

    if args.instances_file:
        with open(args.instances_file) as fh:
            payload = json.load(fh)
        if isinstance(payload, dict):
            payload = [payload]
        instances = [
            Instance(
                system=TaskSystem.from_tuples(d["tasks"]),
                m=d.get("m", 1),
                seed=d.get("seed", i),
            )
            for i, d in enumerate(payload)
        ]
    else:
        cfg = GeneratorConfig(
            n=args.n, tmax=args.tmax,
            m=args.m if args.m is not None else "uniform",
        )
        instances = generate_instances(cfg, args.count, seed=args.seed)
    return [
        Problem.of(
            inst.system,
            m=inst.m,
            time_limit=args.time_limit,
            node_limit=args.node_limit,
            variable_limit=args.variable_limit,
            label=f"seed:{inst.seed}",
        )
        for inst in instances
    ]


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the solver service daemon until shutdown."""
    import asyncio

    from repro.service import ServiceCaps, ServiceConfig, SolverService

    if _invalid_jobs(args):
        return 2
    if args.max_pending < 1:
        print(f"--max-pending must be >= 1, got {args.max_pending}",
              file=sys.stderr)
        return 2
    if args.retries < 0:
        print(f"--retries must be >= 0, got {args.retries}", file=sys.stderr)
        return 2
    caps = ServiceCaps(
        max_time_limit=args.max_time_limit,
        default_time_limit=min(args.default_time_limit, args.max_time_limit),
        max_node_limit=args.max_node_limit,
        max_variable_limit=args.max_variable_limit,
    )
    config = ServiceConfig(
        jobs=args.jobs,
        max_pending=args.max_pending,
        caps=caps,
        cache_dir=args.cache_dir,
        journal=args.journal,
        supervised=not args.unsupervised,
        retries=args.retries,
        memory_limit=args.memory_limit,
        allow_shutdown=not args.no_remote_shutdown,
    )
    service = SolverService(config)
    if args.stdio:
        # stdout is the protocol channel: nothing else may print there
        asyncio.run(service.serve_stdio())
        return 0

    def ready(addr) -> None:
        # machine-readable so scripts can learn an ephemeral port
        print(
            json.dumps(
                {"type": "listening", "host": addr[0], "port": addr[1]}
            ),
            flush=True,
        )

    try:
        asyncio.run(service.serve_tcp(args.host, args.port, ready=ready))
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Stream a problem set through a running solver daemon."""
    from repro.service import ServiceClient, ServiceError

    if _bad_solver(args.solver):
        return 2
    problems = _load_problem_set(args)
    progress = _progress_printer(args, "problem")
    cached_count = 0
    done = 0

    def on_response(index, report, cached) -> None:
        nonlocal cached_count, done
        done += 1
        if cached:
            cached_count += 1
        if progress is not None:
            progress(done, len(problems))

    try:
        with ServiceClient.connect(args.host, args.port) as client:
            reports = client.solve_many(
                problems, args.solver, on_response=on_response
            )
            stats = client.stats() if args.stats else None
            if args.shutdown:
                client.shutdown()
    except (ServiceError, OSError) as exc:
        print(f"\nsubmit failed: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(file=sys.stderr)
    if args.output:
        with open(args.output, "w") as fh:
            for report in reports:
                fh.write(json.dumps(report.to_dict(),
                                    separators=(",", ":")) + "\n")
    by_status: dict[str, int] = {}
    for report in reports:
        label = report.status_label
        by_status[label] = by_status.get(label, 0) + 1
    statuses = "  ".join(f"{k}: {v}" for k, v in sorted(by_status.items()))
    print(f"{len(reports)} problems via {args.host}:{args.port}")
    print(f"  {statuses}")
    print(f"  served from cache: {cached_count}")
    if stats is not None:
        print(f"  server stats: {json.dumps(stats, sort_keys=True)}")
    if args.output:
        print(f"reports written to {args.output}")
    return 0


def _cmd_journal_merge(args: argparse.Namespace) -> int:
    """Merge N shard journals into one canonical-order journal."""
    import os

    from repro.batch import merge_journals

    missing = [s for s in args.shards if not os.path.exists(s)]
    if missing:
        print(f"missing shard journal(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2
    report = merge_journals(args.shards, args.output)
    print(
        f"merged {len(report.shards)} shard(s): {report.records} records "
        f"from {report.lines} lines ({report.duplicates} superseded "
        f"duplicates, {report.torn} torn/corrupt lines skipped) "
        f"-> {args.output}"
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import Table1Config, run_table1
    from repro.experiments.table2 import run_table2
    from repro.experiments.table3 import run_table3
    from repro.experiments.table4 import Table4Config, run_table4

    if _invalid_jobs(args):
        return 2
    progress = _progress_printer(args, "run")

    name = args.table
    if name in ("table1", "table2", "table3"):
        if args.paper:
            cfg = Table1Config.paper_scale()
        else:
            cfg = Table1Config(
                n_instances=args.instances, time_limit=args.time_limit,
            )
        t1 = run_table1(cfg, progress=progress, jobs=args.jobs,
                        cache_dir=args.cache_dir)
        if not args.quiet:
            print(file=sys.stderr)
        if name == "table1":
            print(format_table1(t1))
        elif name == "table2":
            print(format_table2(run_table2(table1=t1)))
        else:
            print(format_table3(run_table3(table1=t1)))
        if args.records:
            with open(args.records, "w") as fh:
                fh.write(t1.run.to_json())
            print(f"records written to {args.records}")
    elif name == "table4":
        if args.paper:
            cfg4 = Table4Config.paper_scale()
        else:
            cfg4 = Table4Config(
                instances_per_n=max(2, args.instances // 4),
                time_limit=args.time_limit,
            )
        t4 = run_table4(cfg4, progress=progress, jobs=args.jobs,
                        cache_dir=args.cache_dir)
        if not args.quiet:
            print(file=sys.stderr)
        print(format_table4(t4))
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro-mgrts`` argument parser (one subparser per command)."""
    parser = argparse.ArgumentParser(
        prog="repro-mgrts",
        description="Global multiprocessor real-time scheduling as a CSP "
        "(Cucu-Grosjean & Buffet, ICPP 2009)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample random instances (Section VII-A)")
    g.add_argument("--count", type=int, default=1)
    g.add_argument("-n", type=int, default=10, help="tasks per instance")
    g.add_argument("-m", type=int, default=None, help="processors (default: U(1..n-1))")
    g.add_argument("--tmax", type=int, default=7)
    g.add_argument("--order", default="d-first", choices=["d-first", "cdt", "tdc"])
    g.add_argument("--offsets", default="uniform", choices=["uniform", "zero"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", "-o", default=None)
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="solve one instance JSON")
    s.add_argument("instance", help="instance JSON file")
    s.add_argument(
        "--solver", default="csp2+dc",
        help="registry name (see `repro-mgrts solvers`), e.g. csp2+dc or "
        "portfolio:csp2+dc,sat",
    )
    s.add_argument("--time-limit", type=float, default=30.0)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--output", "-o", default=None, help="write schedule JSON here")
    s.add_argument(
        "--min-processors",
        action="store_true",
        help="ignore the instance's m; incrementally find the smallest "
        "sufficient processor count (paper Section VIII)",
    )
    s.set_defaults(func=_cmd_solve)

    an = sub.add_parser(
        "analyze",
        help="run the polynomial-time screening cascade (no exact search)",
    )
    an.add_argument("instance", help="instance JSON file")
    an.add_argument(
        "-m", type=int, default=None,
        help="processor count (default: the instance's m)",
    )
    an.add_argument(
        "--no-simulate", action="store_true",
        help="closed-form tests only (skip the simulation witnesses)",
    )
    an.add_argument(
        "--show-schedule", action="store_true",
        help="print the witness schedule when a simulation test decides",
    )
    an.add_argument("--json", action="store_true", help="machine-readable output")
    an.set_defaults(func=_cmd_analyze)

    d = sub.add_parser(
        "difftest",
        help="differentially fuzz solvers against each other on a seeded "
        "grid (witness validation + counterexample shrinking)",
    )
    d.add_argument(
        "--solvers",
        default="edf-exact,csp2+dc,csp2+learn,sat,screen+csp2+dc",
        help="comma-separated registry names to cross-check; use ';' as "
        "the separator when listing a portfolio (its name contains "
        "commas)",
    )
    d.add_argument("--instances", type=int, default=100,
                   help="instances to generate and cross-check")
    d.add_argument("--seed", type=int, default=0, help="generator seed")
    d.add_argument("-n", type=int, default=5, help="tasks per instance")
    d.add_argument("--tmax", type=int, default=5, help="maximum period")
    d.add_argument("-m", type=int, default=None,
                   help="processors (default: U(1..n-1))")
    d.add_argument("--time-limit", type=float, default=10.0,
                   help="per-cell wall budget (seconds)")
    d.add_argument("--jobs", "-j", type=int, default=1,
                   help="worker processes (1 = serial, in-process)")
    d.add_argument("--artifacts", default=None,
                   help="write a JSONL disagreement trail here")
    d.add_argument("--no-shrink", action="store_true",
                   help="keep findings at generated size (skip shrinking)")
    d.add_argument("--quiet", action="store_true")
    d.add_argument("--json", action="store_true", help="machine-readable output")
    d.set_defaults(func=_cmd_difftest)

    li = sub.add_parser(
        "lint",
        help="contract-aware static analysis (determinism, explain "
        "contract, registry coherence, pickle and trail safety)",
    )
    li.add_argument(
        "paths", nargs="*",
        help="repo-relative files/dirs to lint (default: src/repro scripts "
        "+ the checked-in lint fixtures)",
    )
    li.add_argument(
        "--root", default=".",
        help="repository root the paths (and the baseline) are relative to",
    )
    li.add_argument(
        "--baseline", default=None,
        help="suppression file (default: <root>/lint-baseline.txt if present)",
    )
    li.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    li.add_argument("--json", action="store_true", help="machine-readable output")
    li.set_defaults(func=_cmd_lint)

    ls = sub.add_parser(
        "solvers", help="list registered solvers with their metadata"
    )
    ls.add_argument("--json", action="store_true", help="machine-readable output")
    ls.add_argument(
        "--all", action="store_true",
        help="include non-standalone families (the portfolio meta-solver)",
    )
    ls.set_defaults(func=_cmd_solvers)

    v = sub.add_parser("validate", help="check a schedule JSON against C1-C4")
    v.add_argument("schedule", help="schedule JSON file (from solve --output)")
    v.set_defaults(func=_cmd_validate)

    f = sub.add_parser("figure1", help="print the availability-interval chart")
    f.add_argument("--instance", default=None, help="chart this instance instead")
    f.set_defaults(func=_cmd_figure1)

    e = sub.add_parser("experiment", help="reproduce a table of Section VII")
    e.add_argument("table", choices=["table1", "table2", "table3", "table4"])
    e.add_argument("--instances", type=int, default=40)
    e.add_argument("--time-limit", type=float, default=1.0)
    e.add_argument("--paper", action="store_true",
                   help="full 500x30s protocol (hours of compute)")
    e.add_argument("--records", default=None, help="dump raw run records JSON")
    e.add_argument("--jobs", "-j", type=int, default=1,
                   help="worker processes for the run matrix")
    e.add_argument("--cache-dir", default=None,
                   help="content-addressed result cache directory")
    e.add_argument("--quiet", action="store_true")
    e.set_defaults(func=_cmd_experiment)

    b = sub.add_parser(
        "batch",
        help="run an (instance x solver) campaign in parallel, with "
        "caching and crash-safe resume",
    )
    b.add_argument("--instances-file", default=None,
                   help="instance JSON from `generate` (overrides --count/-n/-m)")
    b.add_argument("--count", type=int, default=40, help="instances to generate")
    b.add_argument("-n", type=int, default=10, help="tasks per instance")
    b.add_argument("-m", type=int, default=None,
                   help="processors (default: U(1..n-1))")
    b.add_argument("--tmax", type=int, default=7)
    b.add_argument("--seed", type=int, default=2009, help="generator seed")
    b.add_argument("--solvers", default="csp1,csp2,csp2+dc",
                   help="comma-separated registry names; use ';' as the "
                   "separator when listing a portfolio (its name contains "
                   "commas), e.g. \"csp1;portfolio:csp2+dc,sat\"")
    b.add_argument("--time-limit", type=float, default=1.0,
                   help="per-cell wall budget (seconds)")
    b.add_argument("--jobs", "-j", type=int, default=1,
                   help="worker processes (1 = serial, in-process)")
    b.add_argument("--cache-dir", default=None,
                   help="content-addressed result cache shared across campaigns")
    b.add_argument("--output", "-o", default="batch-results.jsonl",
                   help="streaming JSONL journal (one line per cell)")
    b.add_argument("--resume", action="store_true",
                   help="skip cells already completed in --output")
    b.add_argument("--supervised", action="store_true",
                   help="run every cell in its own watched child process "
                   "(watchdog, fault classification, optional rlimit)")
    b.add_argument("--retries", type=int, default=1,
                   help="extra supervised attempts for a faulted cell "
                   "before it is journaled as fault:*")
    b.add_argument("--memory-limit", type=int, default=None, metavar="BYTES",
                   help="per-child RLIMIT_AS (supervised executions only)")
    b.add_argument("--fault-resume", choices=("skip", "retry"), default="skip",
                   help="what --resume does with journaled fault:* cells: "
                   "serve them as-is, or recompute them")
    b.add_argument("--chaos-seed", type=int, default=None,
                   help="enable deterministic fault injection with this "
                   "seed (implies --supervised; testing only)")
    b.add_argument("--chaos-rate", type=float, default=0.1,
                   help="per-site injection probability under --chaos-seed")
    b.add_argument("--quiet", action="store_true")
    b.set_defaults(func=_cmd_batch)

    sv = sub.add_parser(
        "serve",
        help="run the solver service daemon (JSONL over TCP or stdio)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=0,
                    help="TCP port (0 = ephemeral; the bound port is "
                    "printed as a JSON 'listening' line)")
    sv.add_argument("--stdio", action="store_true",
                    help="serve one session over stdin/stdout instead of "
                    "TCP (stdout becomes the protocol channel)")
    sv.add_argument("--jobs", "-j", type=int, default=2,
                    help="solves in flight at once (one watched child each)")
    sv.add_argument("--max-pending", type=int, default=64,
                    help="admission window; the next request is answered "
                    "with a structured 'busy' error")
    sv.add_argument("--cache-dir", default=None,
                    help="shared memo layer root (reports live under "
                    "<cache-dir>/reports)")
    sv.add_argument("--journal", default=None,
                    help="crash-safe JSONL request journal (appended "
                    "across restarts; torn tail trimmed)")
    sv.add_argument("--max-time-limit", type=float, default=30.0,
                    help="per-request wall-budget ceiling (seconds)")
    sv.add_argument("--default-time-limit", type=float, default=5.0,
                    help="wall budget granted to requests carrying none")
    sv.add_argument("--max-node-limit", type=int, default=None,
                    help="per-request node-budget ceiling (default: uncapped)")
    sv.add_argument("--max-variable-limit", type=int, default=2_000_000,
                    help="memory-guard ceiling (predicted model variables)")
    sv.add_argument("--retries", type=int, default=1,
                    help="extra supervised attempts before a request is "
                    "answered fault:*")
    sv.add_argument("--memory-limit", type=int, default=None, metavar="BYTES",
                    help="per-child RLIMIT_AS (supervised solves only)")
    sv.add_argument("--unsupervised", action="store_true",
                    help="solve in-process instead of watched children "
                    "(faster; a crashing solve takes the daemon down)")
    sv.add_argument("--no-remote-shutdown", action="store_true",
                    help="ignore 'shutdown' requests from clients")
    sv.set_defaults(func=_cmd_serve)

    sm = sub.add_parser(
        "submit",
        help="stream a problem set through a running solver daemon",
    )
    sm.add_argument("--host", default="127.0.0.1")
    sm.add_argument("--port", type=int, required=True)
    sm.add_argument("--instances-file", default=None,
                    help="instance JSON from `generate` (overrides "
                    "--count/-n/-m/--tmax/--seed)")
    sm.add_argument("--count", type=int, default=40,
                    help="instances to generate")
    sm.add_argument("-n", type=int, default=5, help="tasks per instance")
    sm.add_argument("-m", type=int, default=None,
                    help="processors (default: U(1..n-1))")
    sm.add_argument("--tmax", type=int, default=5)
    sm.add_argument("--seed", type=int, default=2009, help="generator seed")
    sm.add_argument("--solver", default="csp2+dc",
                    help="registry name to request for every problem")
    sm.add_argument("--time-limit", type=float, default=None,
                    help="per-request wall budget (None = server default; "
                    "the server clamps to its cap)")
    sm.add_argument("--node-limit", type=int, default=None,
                    help="per-request search-node budget")
    sm.add_argument("--variable-limit", type=int, default=None,
                    help="per-request memory-guard budget")
    sm.add_argument("--output", "-o", default=None,
                    help="write one SolveReport JSON line per problem")
    sm.add_argument("--stats", action="store_true",
                    help="print the server's counters after the run")
    sm.add_argument("--shutdown", action="store_true",
                    help="ask the server to stop after the run")
    sm.add_argument("--quiet", action="store_true")
    sm.set_defaults(func=_cmd_submit)

    j = sub.add_parser("journal", help="campaign/service journal utilities")
    jsub = j.add_subparsers(dest="journal_command", required=True)
    jm = jsub.add_parser(
        "merge",
        help="combine N shard journals into one canonical-order journal "
        "(last-line-wins dedup, torn lines skipped)",
    )
    jm.add_argument("shards", nargs="+", help="shard journal JSONL files")
    jm.add_argument("--output", "-o", required=True,
                    help="merged journal path (written atomically)")
    jm.set_defaults(func=_cmd_journal_merge)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Console entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
