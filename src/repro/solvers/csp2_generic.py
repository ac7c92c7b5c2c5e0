"""CSP2 solved by the generic engine.

The paper solves CSP2 with a dedicated C++ search
(:mod:`repro.solvers.csp2_dedicated` is that reproduction); this module
additionally runs the *same encoding* on the generic engine, which is the
natural ablation separating "better encoding" from "better search":
chronological (input-order) branching over slot-major variables, the
RM/DM/(T-C)/(D-C) task value orders with idle ranked last, and the
symmetry chains posted as real constraints.

With ``learn=True`` the engine switches to conflict-directed search —
1-UIP nogood learning over the window-count/alldifferent/symmetry
propagators (all of which ship real ``explain_event`` implementations),
conflict-driven backjumping, last-conflict variable ordering layered on
the chronological order, and phase-saved values.  The registry exposes
it as ``csp2-generic+learn`` and, with the (D-C) value order the paper
found strongest, as ``csp2+learn``.
"""

from __future__ import annotations

from repro.csp.heuristics import (
    make_var_order_last_conflict,
    value_order_custom,
    var_order_input,
    var_order_min_domain,
)
from repro.csp.search import Solver, Status
from repro.encodings.csp2 import encode_csp2
from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.solvers.base import (
    Feasibility,
    SolveResult,
    SolverStats,
    learning_extra_stats,
)
from repro.solvers.ordering import task_order
from repro.solvers.registry import EXACT, PROVES_INFEASIBILITY, register_solver

__all__ = ["Csp2GenericSolver"]

_STATUS_MAP = {
    Status.SAT: Feasibility.FEASIBLE,
    Status.UNSAT: Feasibility.INFEASIBLE,
    Status.UNKNOWN: Feasibility.UNKNOWN,
}


class Csp2GenericSolver:
    """Encode as CSP2, solve with the generic backtracking engine.

    Parameters
    ----------
    heuristic:
        Task value order: None (task-index order), ``rm``, ``dm``, ``tc``
        or ``dc``.  The idle value is always tried last.
    symmetry_breaking:
        Post the NonDecreasing chains (paper rule (10)/(13)).
    chronological:
        Branch in variable creation order (slot-major); when False, fall
        back to min-domain (ablation).
    learn:
        Switch to the conflict-directed engine: nogood learning,
        backjumping, last-conflict ordering over the base variable
        order, and phase-saved values.
    nogood_limit:
        Learned-nogood store capacity (learning only).
    """

    def __init__(
        self,
        system: TaskSystem,
        platform: Platform,
        heuristic: str | None = None,
        symmetry_breaking: bool = True,
        chronological: bool = True,
        learn: bool = False,
        nogood_limit: int = 10_000,
    ) -> None:
        self.system = system
        self.platform = platform
        self.heuristic = heuristic
        self.encoding = encode_csp2(system, platform, symmetry_breaking)
        self.chronological = chronological
        self.learn = bool(learn)
        self.nogood_limit = nogood_limit
        order = task_order(system, heuristic)
        order.append(self.encoding.idle_value)  # idle last
        self._value_order = value_order_custom(order)
        self.name = f"csp2-generic{'+' + heuristic if heuristic else ''}"
        if self.learn:
            self.name += "+learn"

    def solve(
        self, time_limit: float | None = None, node_limit: int | None = None
    ) -> SolveResult:
        """Run the generic engine on encoding #2 under the given budgets."""
        base_order = (
            var_order_input if self.chronological else var_order_min_domain
        )
        if self.learn:
            engine = Solver(
                self.encoding.model,
                var_order=make_var_order_last_conflict(base_order),
                value_order=self._value_order,
                learn=True,
                nogood_limit=self.nogood_limit,
                phase_saving=True,
            )
        else:
            engine = Solver(
                self.encoding.model,
                var_order=base_order,
                value_order=self._value_order,
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
    "csp2-generic",
    description=(
        "Encoding #2 on the *generic* engine with the same RM/DM/(T-C)/"
        "(D-C) value orders as the dedicated solver"
    ),
    paper_section="V",
    pick_when=(
        "Isolating how much the dedicated machinery (idle rule, symmetry, "
        "prunings) buys over the bare encoding"
    ),
    capabilities=(PROVES_INFEASIBILITY, EXACT),
    suffixes={
        "rm": "Generic engine on encoding #2, rate-monotonic value order",
        "dm": "Generic engine on encoding #2, deadline-monotonic value order",
        "tc": "Generic engine on encoding #2, smallest T-C value order",
        "dc": "Generic engine on encoding #2, smallest D-C value order",
        "learn": "Encoding #2 on the conflict-directed engine (task-index "
        "value order); see csp2+learn for the (D-C)-ordered variant",
    },
    options=("symmetry_breaking", "chronological", "nogood_limit"),
    platforms=("identical", "uniform", "heterogeneous"),
    memory_bound=True,
    hidden_suffixes=("t-c", "(t-c)", "d-c", "(d-c)", "none"),
)
def _build_csp2_generic(system, platform, spec, seed, **options):
    """Registry factory: ``csp2-generic[+heuristic|+learn]``."""
    from repro.solvers.ordering import heuristic_key

    if spec.suffix == "learn":
        return Csp2GenericSolver(system, platform, learn=True, **options)
    if "nogood_limit" in options:
        raise ValueError(
            "nogood_limit only applies to the learning variant; "
            f"use '{spec.base}+learn'"
        )
    if spec.suffix:
        heuristic_key(spec.suffix)  # validates / raises
    return Csp2GenericSolver(system, platform, heuristic=spec.suffix, **options)
