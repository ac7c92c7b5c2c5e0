"""Variable- and value-ordering heuristics (paper Section III-B).

A *variable order* is a callable ``(state, context) -> Variable | None``
returning the next unassigned variable to branch on (None = all assigned).
A *value order* is a callable ``(state, var) -> list[int]`` returning the
values to try, best first.  ``context`` carries static search data
(variable degrees, an optional ``random.Random``).

The generic CSP1 solver uses ``min_domain`` (+ optional random tie-break,
reproducing Choco's randomized default-search behaviour observed in
Section VII-B); the generic CSP2 solver uses ``input`` order over
chronologically created variables plus custom per-variable value orders
for the RM/DM/(T-C)/(D-C) task heuristics.

Three *adaptive* heuristics feed on the conflict statistics the learning
search (``Solver(learn=True)``) maintains in the shared
:class:`SearchContext`:

* :func:`var_order_dom_wdeg` — dom/wdeg weighted degree: every conflict
  bumps the weight of the failing constraint's variables, and the
  heuristic minimizes ``domain size / (static degree + learned weight)``
  so branching drifts toward the variables that keep causing trouble;
* :func:`make_var_order_last_conflict` — last-conflict reasoning: the
  variable whose assignment most recently conflicted is retried first
  until it assigns cleanly, testing whether it is the culprit;
* :func:`make_value_order_phase_saving` — phase saving: a variable first
  retries the value it last held, so backjumps and restarts do not
  un-learn a partial assignment that was working.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.csp.core import Variable
from repro.csp.state import DomainState

__all__ = [
    "SearchContext",
    "var_order_input",
    "var_order_min_domain",
    "var_order_dom_deg",
    "var_order_dom_wdeg",
    "var_order_random",
    "make_var_order_last_conflict",
    "value_order_ascending",
    "value_order_descending",
    "value_order_random",
    "value_order_custom",
    "make_value_order_phase_saving",
]


@dataclass
class SearchContext:
    """Static data shared by heuristics during one solve.

    The last three fields are *conflict statistics* maintained by the
    learning search (``Solver(learn=True)``) and consumed by the
    adaptive heuristics; they stay ``None``/empty on non-learning runs.
    """

    degrees: Sequence[int]
    rng: random.Random | None = None
    #: scratch: index of the first possibly-unassigned variable (input order)
    first_unassigned_hint: int = field(default=0)
    #: per-variable accumulated conflict weight (dom/wdeg); lazily
    #: initialized by the search or by :func:`var_order_dom_wdeg`
    weights: list | None = None
    #: last value each variable held (``var.index -> value``, phase saving)
    phases: dict | None = None
    #: variables of the most recent conflicts, most recent first
    #: (last-conflict reasoning reads the head)
    last_conflicts: list = field(default_factory=list)


# -- variable orders ----------------------------------------------------------

def var_order_input(state: DomainState, ctx: SearchContext) -> Variable | None:
    """First unassigned variable in model creation order.

    With CSP2's chronological variable creation this is the paper's
    "time first, then processor id" ordering (Section V-C-1).
    """
    variables = state.model.variables
    masks = state.masks
    for idx in range(ctx.first_unassigned_hint, len(variables)):
        m = masks[idx]
        if m & (m - 1):
            return variables[idx]
    return None


def var_order_min_domain(state: DomainState, ctx: SearchContext) -> Variable | None:
    """Smallest current domain ("most constrained variable" fail-first);
    ties broken by index, or uniformly at random when ``ctx.rng`` is set.

    The deterministic path stops scanning at the first binary domain
    (nothing can beat size 2, and earliest index wins ties anyway); the
    randomized path must keep scanning to collect every tie."""
    rng = ctx.rng
    variables = state.model.variables
    if rng is None:
        best_idx = -1
        best_size = 1 << 62
        for i, m in enumerate(state.masks):
            if not m & (m - 1):
                continue  # assigned
            s = m.bit_count()
            if s < best_size:
                best_size = s
                best_idx = i
                if s == 2:
                    break
        return None if best_idx < 0 else variables[best_idx]
    # randomized path: find the best size first (break early at 2, the
    # floor), then gather the ties in one comprehension pass — same tie
    # list, same order, same rng stream as the one-pass original, but
    # the gather runs at C speed (this is the hottest line of CSP1).
    masks = state.masks
    best_size = 1 << 62
    for m in masks:
        t = m & (m - 1)
        if not t:
            continue  # assigned
        if not t & (t - 1):
            best_size = 2
            break
        s = m.bit_count()
        if s < best_size:
            best_size = s
    if best_size == 1 << 62:
        return None
    if best_size == 2:
        ties = [
            i
            for i, m in enumerate(masks)
            if (t := m & (m - 1)) and not t & (t - 1)
        ]
    else:
        ties = [
            i
            for i, m in enumerate(masks)
            if m & (m - 1) and m.bit_count() == best_size
        ]
    if len(ties) > 1:
        return variables[rng.choice(ties)]
    return variables[ties[0]]


def var_order_dom_deg(state: DomainState, ctx: SearchContext) -> Variable | None:
    """Minimize domain-size / static-degree (a classic refinement of
    min-domain that prefers highly-constrained variables)."""
    best = None
    best_key = None
    for v, m in zip(state.model.variables, state.masks):
        if not m & (m - 1):
            continue
        deg = ctx.degrees[v.index] or 1
        key = (m.bit_count() / deg, v.index)
        if best_key is None or key < best_key:
            best_key = key
            best = v
    return best


def var_order_dom_wdeg(state: DomainState, ctx: SearchContext) -> Variable | None:
    """Minimize domain-size / (static degree + conflict weight).

    The weighted-degree heuristic of Boussemart et al.: the search bumps
    ``ctx.weights`` for every variable of a failing constraint, so
    repeatedly conflicting variables are branched on earlier.  Before
    the first conflict this coincides with :func:`var_order_dom_deg`;
    ties break by variable index."""
    weights = ctx.weights
    if weights is None:
        weights = ctx.weights = [0.0] * len(state.masks)
    best = None
    best_key = None
    for v, m in zip(state.model.variables, state.masks):
        if not m & (m - 1):
            continue
        i = v.index
        # zero degree + zero weight falls back to 1, same as dom/deg, so
        # the two heuristics coincide before the first conflict
        denom = (ctx.degrees[i] + weights[i]) or 1
        key = (m.bit_count() / denom, i)
        if best_key is None or key < best_key:
            best_key = key
            best = v
    return best


def make_var_order_last_conflict(base):
    """Factory: last-conflict reasoning layered over ``base``.

    If a variable from a recent conflict (``ctx.last_conflicts``) is
    still unassigned, branch on it first — if it is the real culprit the
    refutation happens near the top of the subtree instead of after
    re-exploring everything below it.  Otherwise defer to ``base``."""

    def order(state: DomainState, ctx: SearchContext) -> Variable | None:
        masks = state.masks
        for idx in ctx.last_conflicts:
            m = masks[idx]
            if m & (m - 1):
                return state.model.variables[idx]
        return base(state, ctx)

    return order


def var_order_random(state: DomainState, ctx: SearchContext) -> Variable | None:
    """Uniformly random unassigned variable (requires ``ctx.rng``)."""
    if ctx.rng is None:
        raise ValueError("var_order_random needs a seeded SearchContext.rng")
    pool = [
        v
        for v, m in zip(state.model.variables, state.masks)
        if m & (m - 1)
    ]
    if not pool:
        return None
    return ctx.rng.choice(pool)


# -- value orders -------------------------------------------------------------

def value_order_ascending(state: DomainState, var: Variable) -> list[int]:
    """Smallest value first."""
    return state.values(var)


def value_order_descending(state: DomainState, var: Variable) -> list[int]:
    """Largest value first."""
    return state.values(var)[::-1]


def make_value_order_random(rng: random.Random):
    """Factory: shuffled value order using a shared RNG."""

    def order(state: DomainState, var: Variable) -> list[int]:
        vals = state.values(var)
        rng.shuffle(vals)
        return vals

    return order


# kept as a named symbol so callers can pass it like the other orders;
# they must construct it through make_value_order_random for seeding.
value_order_random = make_value_order_random


def make_value_order_phase_saving(base, phases: Mapping[int, int]):
    """Factory: try each variable's previously-held value first.

    ``phases`` is the shared ``var.index -> last value`` mapping the
    learning search maintains (``SearchContext.phases``); values the
    variable no longer has — or never had recorded — leave the ``base``
    order untouched."""

    def order(state: DomainState, var: Variable) -> list[int]:
        vals = base(state, var)
        saved = phases.get(var.index)
        if saved is None or not vals or vals[0] == saved:
            return vals
        b = saved - var.offset
        if b < 0 or not state.masks[var.index] >> b & 1:
            return vals  # saved value no longer available
        out = [saved]
        out.extend(v for v in vals if v != saved)
        return out

    return order


def value_order_custom(ranks: Mapping[int, Sequence[int]] | Sequence[int]):
    """Factory: per-variable (by ``var.index``) or global preferred order.

    ``ranks`` is either a mapping ``var.index -> preferred value list`` or a
    single list applied to every variable.  Values present in the current
    domain are tried in preferred order (a value listed twice is tried
    once, at its first position — branching on the same value twice would
    just re-explore an identical subtree); leftover domain values (not
    mentioned in the list) follow in ascending order.
    """

    def order(state: DomainState, var: Variable) -> list[int]:
        if isinstance(ranks, Mapping):
            preferred = ranks.get(var.index, ())
        else:
            preferred = ranks
        mask = state.masks[var.index]
        offset = var.offset
        out = []
        taken = 0  # bitmask of already-emitted values (dedup + leftovers)
        for v in preferred:
            b = v - offset
            if b >= 0 and mask >> b & 1 and not taken >> b & 1:
                taken |= 1 << b
                out.append(v)
        if taken != mask:
            # leftover domain values not mentioned in `preferred`
            out.extend(
                v for v in state.values(var) if not taken >> (v - offset) & 1
            )
        return out

    return order
