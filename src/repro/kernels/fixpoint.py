"""Batched counting rows for the propagation fixpoint.

The four counting propagators (``ExactSumBool``/``WeightedExactSumBool``
/``CountEq``/``WeightedCountEq``) are the engine's tier-0 workhorses:
on the paper-scale CSP2 grids they receive the large majority of all
event wakes, and each wake costs a Python method call just to bump two
or three counters and check a bound.  This module stacks *all* their
rows into one shared store the engine consults inline:

* **Rows.**  Every row is a set of ``(var_index, value_bit,
  coefficient)`` cells plus a target ``total`` (and ``cmax`` for the
  weighted rows) — exported by each propagator's ``batch_row()``.
* **Reset pass.**  :meth:`CountingKernel.reset` evaluates every row's
  aggregates from the current domain masks in one scalar sweep and
  re-points each propagator's ``_c`` at the kernel-owned list, so
  ``propagate`` reads the shared aggregates with no synchronisation.
* **Inline update tables.**  :attr:`CountingKernel.table` maps each
  variable to the tuple of row entries its events touch.  The engine's
  dispatch loop updates the aggregates *inline* (no function call) and
  re-enqueues a row only when its bounds say propagation could act —
  exactly the skip condition the scalar ``on_event`` hooks implement,
  so per-node search decisions are byte-identical (pinned by
  ``tests/test_engine_regression.py``).

The kernel is pure Python: one numpy dispatch costs more than an
entire node's Python bookkeeping at these row sizes.

Trail safety: aggregate lists are snapshotted once per node onto the
engine's undo log before the first inline update (the same
``(list, None, tuple)`` record the scalar propagators use), guarded by
a per-row stamp holder; deactivated (entailed) rows are skipped first,
keeping their aggregates frozen exactly like the scalar engine.
"""

from __future__ import annotations

__all__ = ["CountingKernel"]

#: the TRUE bit of 2-value boolean domains (bool rows count this value)
_TRUE = 0b10


def _or_all(bits) -> int:
    """OR an iterable of bit masks together."""
    out = 0
    for b in bits:
        out |= b
    return out


class _Row:
    """One counting row: identity, cells and the shared aggregate list."""

    __slots__ = ("pid", "prop", "kind", "slots", "cells", "total", "cmax", "c", "st")

    def __init__(self, pid, prop, kind, slots, cells, total, cmax):
        self.pid = pid
        self.prop = prop
        self.kind = kind
        self.slots = slots
        self.cells = cells  # [(var_index, value_bit, coefficient), ...]
        self.total = total
        self.cmax = cmax
        self.c = [0] * slots  # kernel-owned aggregates; prop._c aliases it
        self.st = [-1]  # per-row once-per-node trail stamp holder


class CountingKernel:
    """Shared aggregate store + per-variable inline wake tables."""

    def __init__(self, rows: list[_Row], n_vars: int) -> None:
        self.rows = rows
        tables: list[dict[int, list]] = [{} for _ in range(n_vars)]
        for row in rows:
            # merge duplicate occurrences per variable (CountEq may watch a
            # variable several times; one event must update the aggregates
            # once per occurrence, so the merged entry carries the sum)
            merged: dict[int, int] = {}
            bit_of: dict[int, int] = {}
            for vi, bit, coef in row.cells:
                merged[vi] = merged.get(vi, 0) + coef
                bit_of[vi] = bit
            # every entry is the same uniform 7-tuple: the bool rows are
            # just count rows whose counted value-bit is TRUE (a 2-value
            # domain only ever sees assign events, and the gain/loss
            # bookkeeping coincides), and the 2-slot rows are 3-slot rows
            # without the free-count cell (w3 gates it)
            w3 = row.slots == 3
            for vi in merged:
                bit = bit_of[vi] if row.kind == "count" else _TRUE
                tables[vi].setdefault(bit, []).append(
                    (row.pid, row.c, row.st, row.total,
                     merged[vi], w3, row.cmax)
                )
        #: per-variable dict ``value_bit -> tuple of inline entries``
        #: ``(pid, c, st, total, coef, w3, cmax)``, indexed by
        #: ``var.index``.  Keying by bit lets the dispatch loop jump
        #: straight from an event's removed/assigned bits to the rows
        #: they affect, instead of scanning every row watching the var.
        self.table: list[dict[int, tuple]] = [
            {bit: tuple(entries) for bit, entries in t.items()} for t in tables
        ]
        #: per-variable OR of the keyed bits: masking an event's removed
        #: bits with this skips the non-keyed ones before any dict lookup
        #: (and makes every surviving lookup a guaranteed hit)
        self.bitmask: list[int] = [
            0 if not t else _or_all(t) for t in self.table
        ]

    # -- construction --------------------------------------------------------
    @classmethod
    def build(cls, batched: list[tuple[int, object]], n_vars: int):
        """Collect ``batch_row()`` exports of the given ``(pid, prop)``
        pairs; None when the list is empty."""
        rows = []
        for pid, prop in batched:
            kind, slots, cells, total, cmax = prop.batch_row()
            rows.append(_Row(pid, prop, kind, slots, list(cells), total, cmax))
        if not rows:
            return None
        return cls(rows, n_vars)

    # -- the single-pass reset sweep ----------------------------------------
    def reset(self, state) -> None:
        """Recompute every row's aggregates from the current domains.

        Each propagator's ``_c`` is re-pointed at the kernel-owned list
        so ``propagate`` and the inline tables observe the same
        aggregates with no copying.
        """
        for row, agg in zip(self.rows, self.evaluate(state)):
            row.c[:] = agg
            row.st[0] = -1
            row.prop._c = row.c

    def evaluate(self, state) -> list[list[int]]:
        """Every row's aggregates, computed fresh from the domain masks.

        :meth:`reset` writes these; tests use it to cross-check the
        aggregates the engine maintains inline mid-search.
        """
        out = []
        masks = state.masks
        for row in self.rows:
            fix = cand_w = cand_n = 0
            for vi, bit, coef in row.cells:
                m = masks[vi]
                if m & bit:
                    if m == bit:
                        fix += coef
                    else:
                        cand_w += coef
                        cand_n += 1
            if row.slots == 2:
                out.append([fix, cand_w])
            else:
                out.append([fix, cand_w, cand_n])
        return out
