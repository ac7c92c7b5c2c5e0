"""CSP1 solved by the generic engine (the paper's Choco setup, Section VII).

The paper hands CSP1 to a state-of-the-art generic solver with its default
(randomized) search strategy and observes run-to-run variance (Section
VII-B).  Here the generic engine plays Choco's role: min-domain variable
ordering with optional seeded random tie-breaking reproduces both the
behaviour and the variance; other heuristics are exposed for ablations.

``csp1+learn`` runs the same encoding on the conflict-directed engine:
1-UIP nogood learning with backjumping, dom/wdeg + last-conflict variable
ordering and phase-saved values (see docs/ARCHITECTURE.md,
"Conflict-directed search").  On UNSAT-heavy boundary instances it proves
infeasibility orders of magnitude faster than the chronological search.
"""

from __future__ import annotations

from repro.csp.heuristics import (
    make_var_order_last_conflict,
    value_order_ascending,
    var_order_dom_deg,
    var_order_dom_wdeg,
    var_order_input,
    var_order_min_domain,
)
from repro.csp.search import Solver, Status
from repro.encodings.csp1 import encode_csp1
from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.solvers.base import (
    Feasibility,
    SolveResult,
    SolverStats,
    learning_extra_stats,
)
from repro.solvers.registry import EXACT, PROVES_INFEASIBILITY, register_solver

__all__ = ["Csp1GenericSolver"]

_VAR_ORDERS = {
    "min_dom": var_order_min_domain,
    "dom_deg": var_order_dom_deg,
    "input": var_order_input,
}

_STATUS_MAP = {
    Status.SAT: Feasibility.FEASIBLE,
    Status.UNSAT: Feasibility.INFEASIBLE,
    Status.UNKNOWN: Feasibility.UNKNOWN,
}


class Csp1GenericSolver:
    """Encode as CSP1, solve with backtracking + propagation.

    Parameters
    ----------
    system, platform:
        The constrained-deadline instance.
    var_heuristic:
        ``min_dom`` (default), ``dom_deg`` or ``input``.
    seed:
        When set, ties in the variable heuristic break uniformly at random
        (reproducing the generic solver's randomized default strategy).
    learn:
        Switch to the conflict-directed engine (``csp1+learn``): nogood
        learning, backjumping, dom/wdeg + last-conflict variable order
        and phase saving (``var_heuristic`` is ignored).
    nogood_limit:
        Learned-nogood store capacity (learning only).
    """

    name = "csp1"

    def __init__(
        self,
        system: TaskSystem,
        platform: Platform,
        var_heuristic: str = "min_dom",
        seed: int | None = None,
        learn: bool = False,
        nogood_limit: int = 10_000,
    ) -> None:
        if var_heuristic not in _VAR_ORDERS:
            raise ValueError(
                f"unknown var_heuristic {var_heuristic!r}; expected one of "
                f"{sorted(_VAR_ORDERS)}"
            )
        self.system = system
        self.platform = platform
        self.var_heuristic = var_heuristic
        self.seed = seed
        self.learn = bool(learn)
        self.nogood_limit = nogood_limit
        if self.learn:
            self.name = "csp1+learn"
        self.encoding = encode_csp1(system, platform)

    def solve(
        self, time_limit: float | None = None, node_limit: int | None = None
    ) -> SolveResult:
        """Run the generic engine on encoding #1 under the given budgets."""
        if self.learn:
            engine = Solver(
                self.encoding.model,
                var_order=make_var_order_last_conflict(var_order_dom_wdeg),
                value_order=value_order_ascending,
                seed=self.seed,
                learn=True,
                nogood_limit=self.nogood_limit,
                phase_saving=True,
            )
        else:
            engine = Solver(
                self.encoding.model,
                var_order=_VAR_ORDERS[self.var_heuristic],
                value_order=value_order_ascending,
                seed=self.seed,
            )
        out = engine.solve(time_limit=time_limit, node_limit=node_limit)
        extra = {"variables": self.encoding.n_variables}
        if self.learn:
            extra.update(learning_extra_stats(out.stats))
        stats = SolverStats(
            nodes=out.stats.nodes,
            fails=out.stats.fails,
            propagations=out.stats.propagations,
            max_depth=out.stats.max_depth,
            elapsed=out.stats.elapsed,
            extra=extra,
        )
        schedule = (
            self.encoding.decode(out.solution) if out.status is Status.SAT else None
        )
        return SolveResult(
            status=_STATUS_MAP[out.status],
            schedule=schedule,
            stats=stats,
            solver_name=self.name,
        )


@register_solver(
    "csp1",
    description=(
        "Encoding #1 (a variable per in-window (task, processor, slot)) on "
        "the generic CSP engine, min-domain ordering with seeded random "
        "tie-breaking — the paper's Choco setup"
    ),
    paper_section="IV, VII-B",
    pick_when=(
        "Reproducing the paper's generic-solver columns; never for "
        "performance — it overruns and exhausts memory first (Tables I, IV)"
    ),
    capabilities=(PROVES_INFEASIBILITY, EXACT),
    suffixes={
        "dom_deg": "Same encoding, dom/deg variable ordering (ablation)",
        "input": "Same encoding, input-order variables (ablation; close to "
        "naive chronological enumeration)",
        "learn": "Same encoding on the conflict-directed engine: 1-UIP "
        "nogood learning, backjumping, dom/wdeg + last-conflict ordering, "
        "phase saving — the infeasibility prover of the family",
    },
    options=("nogood_limit",),
    platforms=("identical", "uniform", "heterogeneous"),
    memory_bound=True,
    hidden_suffixes=("min_dom",),
)
def _build_csp1(system, platform, spec, seed, **options):
    """Registry factory: ``csp1[+var_heuristic|+learn]``."""
    if spec.suffix == "learn":
        return Csp1GenericSolver(system, platform, seed=seed, learn=True, **options)
    if "nogood_limit" in options:
        raise ValueError(
            "nogood_limit only applies to the learning variant; "
            f"use '{spec.base}+learn'"
        )
    return Csp1GenericSolver(
        system, platform, var_heuristic=spec.suffix or "min_dom", seed=seed,
        **options,
    )
