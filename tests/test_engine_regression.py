"""Deterministic search-counter regression grid for the CSP engine.

The incremental-propagation refactor must not change *search behaviour*:
for every pinned instance × solver cell, the final status and the
``SearchStats.nodes`` / ``SearchStats.fails`` counters must stay
byte-identical to the stateless-rescan engine that preceded it.
Propagation *counts* are deliberately not pinned — the whole point of
the refactor is to run fewer/cheaper propagator executions — but the
fixpoints reached (and therefore every branching decision) must match.

The generic-engine values below were captured from the pre-refactor
engine at commit "PR 2" with the exact seeds/limits used here.  The
dedicated chronological solver (``csp2``, ``csp2+dc``) is pinned on the
same grid plus one uniform-platform cell (its per-processor search
path) and two three-processor cells where it backtracks (one of them
budget-limited); those values were captured before its per-slot window
table replaced the per-node window arithmetic.  If a future change moves
them on purpose (e.g. a stronger propagator), re-capture and say so: a silent
diff here means the engine's decisions moved.
"""

import pytest

from repro.generator import GeneratorConfig, generate_instance
from repro.generator.named import running_example, running_example_platform
from repro.model.platform import Platform
from repro.solvers.registry import create_solver

NODE_LIMIT = 20_000
SEED = 2009

#: instance grid: None = the paper's running example, else (n, tmax, m, seed)
SPECS = [None, (4, 4, 2, 11), (4, 4, 2, 12), (5, 4, 2, 23), (5, 5, 2, 31)]

#: uniform-platform cell: (n, tmax, m, seed, speeds) — the generated system
#: on ``Platform.uniform(speeds)`` instead of ``m`` identical processors
UNIFORM_SPEC = (5, 5, 2, 31, (2, 1, 1))

#: (solver, spec) -> (status, nodes, fails) on the pre-refactor engine
EXPECTED = {
    ("csp1", None): ("feasible", 4850, 2413),
    ("csp1", (4, 4, 2, 11)): ("infeasible", 414, 208),
    ("csp1", (4, 4, 2, 12)): ("feasible", 7, 1),
    ("csp1", (5, 4, 2, 23)): ("feasible", 29, 0),
    ("csp1", (5, 5, 2, 31)): ("unknown", 20000, 9998),
    ("csp2-generic", None): ("feasible", 20, 3),
    ("csp2-generic", (4, 4, 2, 11)): ("infeasible", 49, 35),
    ("csp2-generic", (4, 4, 2, 12)): ("feasible", 7, 1),
    ("csp2-generic", (5, 4, 2, 23)): ("feasible", 15, 1),
    ("csp2-generic", (5, 5, 2, 31)): ("infeasible", 31, 26),
    ("csp2-generic+dc", None): ("feasible", 34, 15),
    ("csp2-generic+dc", (4, 4, 2, 11)): ("infeasible", 49, 35),
    ("csp2-generic+dc", (4, 4, 2, 12)): ("feasible", 12, 5),
    ("csp2-generic+dc", (5, 4, 2, 23)): ("feasible", 1224, 886),
    ("csp2-generic+dc", (5, 5, 2, 31)): ("infeasible", 31, 26),
    ("csp2", None): ("feasible", 12, 0),
    ("csp2", (4, 4, 2, 11)): ("infeasible", 3, 0),
    ("csp2", (4, 4, 2, 12)): ("feasible", 4, 0),
    ("csp2", (5, 4, 2, 23)): ("feasible", 12, 0),
    ("csp2", (5, 5, 2, 31)): ("infeasible", 2, 0),
    ("csp2+dc", None): ("feasible", 12, 0),
    ("csp2+dc", (4, 4, 2, 11)): ("infeasible", 3, 0),
    ("csp2+dc", (4, 4, 2, 12)): ("feasible", 4, 0),
    ("csp2+dc", (5, 4, 2, 23)): ("feasible", 12, 0),
    ("csp2+dc", (5, 5, 2, 31)): ("infeasible", 2, 0),
    ("csp2", (6, 5, 3, 15)): ("unknown", 20004, 0),
    ("csp2", (6, 5, 3, 17)): ("infeasible", 438, 0),
    ("csp2+dc", (6, 5, 3, 15)): ("unknown", 20005, 0),
    ("csp2+dc", (6, 5, 3, 17)): ("infeasible", 438, 0),
    ("csp2+dc", UNIFORM_SPEC): ("feasible", 3331, 1676),
}


def _instance(spec):
    if spec is None:
        return running_example(), running_example_platform()
    n, tmax, m, seed, *speeds = spec
    inst = generate_instance(GeneratorConfig(n=n, tmax=tmax, m=m), seed)
    if speeds:
        return inst.system, Platform.uniform(speeds[0])
    return inst.system, Platform.identical(inst.m)


@pytest.mark.parametrize(
    "solver_name,spec", sorted(EXPECTED, key=str), ids=lambda x: str(x)
)
def test_pinned_search_counters(solver_name, spec):
    """Status / nodes / fails are byte-identical to the recorded engine."""
    system, plat = _instance(spec)
    solver = create_solver(solver_name, system, plat, seed=SEED)
    result = solver.solve(node_limit=NODE_LIMIT)
    got = (result.status.value, result.stats.nodes, result.stats.fails)
    assert got == EXPECTED[(solver_name, spec)]


def test_grid_covers_all_verdicts():
    """The pinned grid keeps exercising SAT, UNSAT and budget-limited
    cells (otherwise a shrunk grid would weaken the regression guard)."""
    statuses = {status for status, _, _ in EXPECTED.values()}
    assert statuses == {"feasible", "infeasible", "unknown"}
