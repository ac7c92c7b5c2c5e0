"""Answer checks, run after the timed passes.

Every ``feasible`` answer's schedule is validated again, and every
decided verdict is compared with an independent decision on the same
problem; a disagreement makes the cell a wrong answer.  A verdict no
independent check can settle is counted as unchecked, not as wrong.
"""

from __future__ import annotations

from fractions import Fraction

from measure import DECIDED, cell_failure
from repro import Problem, validate
from repro.solvers.problem import solve_problem

#: independent checks of a cascade verdict, tried in order
CASCADE_ORACLES = (("edf-exact", None), ("csp2+dc", 500))
#: independent checks of a csp2+dc verdict (a budgeted csp2+dc would
#: only repeat it)
CSP2_ORACLES = (("edf-exact", None),)
#: independent checks of the service's csp2+dc answers
SERVICE_ORACLES = (("screen", None), ("edf-exact", None), ("csp2-generic+dc", 20000))


def _bad_schedule(report) -> bool:
    return (
        report.status_label == "feasible"
        and report.schedule is not None
        and not validate(report.schedule).ok
    )


def _utilization_exceeds(problem: Problem) -> bool:
    system = problem.system
    total = sum(Fraction(system[i].wcet, system[i].period) for i in range(system.n))
    return total > problem.platform.m


def oracle(problem: Problem, oracles) -> str:
    """The first decided verdict of ``oracles`` (``(solver, node_limit)``
    pairs; every one bounded), or ``unknown``."""
    for solver, node_limit in oracles:
        bare = Problem.of(problem.system, platform=problem.platform, node_limit=node_limit)
        verdict = solve_problem(bare, solver).status_label
        if verdict in DECIDED:
            return verdict
    return "unknown"


def check_screen(cells, reports) -> tuple[list, int]:
    """Failures per cell of the screening campaign, and the unchecked count.

    A ``necessary:utilization`` verdict is re-derived exactly; a feasible
    answer with a valid schedule is its own witness; other cascade
    verdicts go to the oracle.  Verdicts of the fall-through engine
    (csp2+dc) are checked against the exact EDF test only, since the
    budgeted oracle engine is the same code.
    """
    failures = []
    unchecked = 0
    for cell, report in zip(cells, reports):
        status = report.status_label
        wrong = False
        if status in DECIDED:
            wrong = _bad_schedule(report)
            if report.decided_by == "necessary:utilization":
                wrong = wrong or status != "infeasible" or not _utilization_exceeds(cell.problem)
            elif not wrong and (status == "infeasible" or report.schedule is None):
                cascade = report.decided_by != report.winner
                verdict = oracle(cell.problem, CASCADE_ORACLES if cascade else CSP2_ORACLES)
                if verdict == "unknown":
                    unchecked += 1
                else:
                    wrong = verdict != status
        failures.append(cell_failure("report", status, wrong))
    return failures, unchecked


def check_exact(cells, reports, engines: int) -> list:
    """Failures per cell of the exact-core workload.

    The ``engines`` cells of one problem are consecutive; their decided
    verdicts must agree, and every decided cell of a problem whose
    engines disagree is wrong.
    """
    failures = []
    for start in range(0, len(cells), engines):
        group = reports[start:start + engines]
        verdicts = {r.status_label for r in group if r.status_label in DECIDED}
        split = len(verdicts) > 1
        for report in group:
            status = report.status_label
            wrong = _bad_schedule(report) or (split and status in DECIDED)
            failures.append(cell_failure("report", status, wrong))
    return failures


def service_reference(problems) -> dict[int, str]:
    """An independent verdict for each distinct problem, keyed by ``id``."""
    reference = {}
    for problem in problems:
        if id(problem) not in reference:
            reference[id(problem)] = oracle(problem, SERVICE_ORACLES)
    return reference


def check_service(problems, responses, reference: dict[int, str]) -> tuple[list, int]:
    """Failures per request (refusals, faults, bad schedules, verdicts
    that differ from the independent one), and the unchecked count."""
    failures = []
    unchecked = 0
    for problem, (kind, report, _cached) in zip(problems, responses):
        if kind != "report":
            failures.append(cell_failure(kind))
            continue
        status = report.status_label
        expected = reference[id(problem)]
        if status in DECIDED and expected not in DECIDED:
            unchecked += 1
        wrong = _bad_schedule(report) or (
            status in DECIDED and expected in DECIDED and status != expected
        )
        failures.append(cell_failure("report", status, wrong))
    return failures, unchecked
