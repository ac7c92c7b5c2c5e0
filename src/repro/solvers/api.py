"""One-call front door: ``repro.solve(system, m=2)``.

Since the API redesign this module is a thin client of
:mod:`repro.solvers.problem`: :func:`solve` builds one
:class:`~repro.solvers.problem.Problem` and returns the
:class:`~repro.solvers.problem.SolveReport` produced by the shared
engine (cloning, registry lookup, budget accounting, validation all live
there).  The pre-redesign ``MgrtsResult`` shim is gone (PR 5):
:class:`~repro.solvers.problem.SolveReport` has carried a superset of
its surface since PR 2, so migration is attribute-compatible.
"""

from __future__ import annotations

from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.solvers.problem import (
    Problem,
    SolveReport,
    merge_clone_schedule,
    solve_problem,
)

__all__ = ["solve", "merge_clone_schedule"]


def solve(
    system: TaskSystem,
    platform: Platform | None = None,
    m: int | None = None,
    solver: str = "csp2+dc",
    time_limit: float | None = None,
    node_limit: int | None = None,
    seed: int | None = None,
    check: bool = True,
    **options,
) -> SolveReport:
    """Solve an MGRTS instance end to end.

    Parameters
    ----------
    system:
        Any task system; arbitrary-deadline tasks are cloned automatically.
    platform, m:
        Pass a :class:`Platform`, or just ``m`` for identical processors.
    solver:
        A registry name (default ``csp2+dc``, the paper's best performer);
        ``portfolio:NAME,NAME,...`` races several and keeps the first
        definitive answer.
    time_limit, node_limit:
        Search budget (the paper used 30 s).
    seed:
        Randomized-strategy seed (``csp1``, ``csp2-local``).
    check:
        Validate the returned schedule against C1-C4 (cheap insurance;
        raises if a solver ever produced an invalid schedule).
    options:
        Extra solver-specific flags (``symmetry_breaking=False``, ...);
        unknown names raise ``ValueError`` listing the accepted ones.

    Returns
    -------
    SolveReport
        Status, stats, and (if feasible) the cyclic schedule.
    """
    problem = Problem.of(
        system,
        platform=platform,
        m=m,
        time_limit=time_limit,
        node_limit=node_limit,
        seed=seed,
    )
    return solve_problem(problem, solver, check=check, **options)
