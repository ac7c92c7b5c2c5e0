"""Trail-based domain state with a typed, level-aware event log.

Current domains live in a flat ``list[int]`` of bitmasks indexed by
variable index.  Every mutation pushes a generic undo record onto a
trail; :meth:`DomainState.push_level` / :meth:`pop_level` bracket decision
levels so the search undoes exactly the changes of a failed subtree —
O(#changes), never a full copy.

Two things make the state *event-driven*:

**Typed events.**  Every domain mutation appends ``(index, old_mask,
new_mask, event_mask)`` to :attr:`DomainState.events`, where
``event_mask`` is an OR of

* :data:`EVT_REMOVE` — at least one value left the domain (set on every
  event, since domains only ever shrink);
* :data:`EVT_BOUNDS` — the domain minimum or maximum moved;
* :data:`EVT_ASSIGN` — the domain became a singleton.

The propagation engine drains the log and wakes only propagators
subscribed to a matching event type (``Propagator.watches()``), handing
them the exact ``old/new`` masks so incremental propagators can update
their counters from the delta in O(1) instead of rescanning.

The log is **level-aware**: ``push_level`` records the event mark along
with the trail mark, and ``pop_level`` truncates only the events
recorded inside the popped level.  Events recorded *before* the push —
pending but not yet drained — survive the pop, so no wake is ever lost
to backtracking.

**A generic trail.**  Undo records are ``(container, key, old_value)``
triples restored as ``container[key] = old_value``.  Domain masks use it
with ``container is self.masks``; propagators use :meth:`save` (or the
once-per-node :meth:`save_all`) to give their *owned* counters — fixed/
free counts, entailment flags, validity bitmasks — exactly the same
backtracking guarantee as the domains themselves.  :attr:`stamp` is a
never-reused id of the current search node, letting a propagator trail a
counter snapshot at most once per node.

**An implication trail (opt-in).**  Constructed with
``record_causes=True``, the state additionally records *who wrote each
event*: :attr:`causes` is a list parallel to :attr:`events` whose entry
for event ``p`` is the value :attr:`cause` held when the mutation was
made — the engine sets it to the running propagator's id before calling
``propagate`` (:data:`CAUSE_DECISION` marks search decisions and any
other out-of-engine writer; learned-nogood forcings use ``-2 - nogood_id``,
see :mod:`repro.csp.learning`).  The conflict analyzer walks this trail
backwards to resolve a failure into the literals that caused it.  The
list is level-truncated together with the events, and the default
(``record_causes=False``) leaves :attr:`causes` as ``None`` so the
non-learning hot path pays one predictable branch per event and nothing
more.
"""

from __future__ import annotations

from repro.csp.core import Model, Variable
from repro.util.bitset import values_from_mask

__all__ = [
    "DomainState",
    "EVT_REMOVE",
    "EVT_BOUNDS",
    "EVT_ASSIGN",
    "EVT_ANY",
    "CAUSE_DECISION",
]

#: :attr:`DomainState.cause` value for events written by a search
#: decision (or any writer outside the propagation engine)
CAUSE_DECISION = -1

#: event type: one or more values were removed (set on every event)
EVT_REMOVE = 0b001
#: event type: the domain minimum or maximum changed
EVT_BOUNDS = 0b010
#: event type: the domain collapsed to a singleton
EVT_ASSIGN = 0b100
#: subscribe-to-everything wake mask
EVT_ANY = EVT_REMOVE | EVT_BOUNDS | EVT_ASSIGN

#: event mask of a collapse to singleton (a bound always moves too;
#: wipe-outs are refused before any event is recorded)
_EV_SINGLETON = EVT_REMOVE | EVT_BOUNDS | EVT_ASSIGN


class DomainState:
    """Mutable domains of one search over a :class:`Model`."""

    __slots__ = (
        "model",
        "masks",
        "events",
        "causes",
        "cause",
        "dispatched",
        "_undo",
        "_levels",
        "_stamp",
    )

    def __init__(self, model: Model, record_causes: bool = False) -> None:
        self.model = model
        self.masks: list[int] = [v.initial_mask for v in model.variables]
        #: typed change log consumed by the engine:
        #: ``(var_index, old_mask, new_mask, event_mask)`` tuples.  The
        #: list is level-truncated on backtrack, so consumers read it
        #: through the :attr:`dispatched` cursor rather than draining it.
        self.events: list[tuple[int, int, int, int]] = []
        #: implication trail: ``causes[p]`` is who wrote ``events[p]``
        #: (a propagator id, :data:`CAUSE_DECISION`, or ``-2 - nogood_id``);
        #: ``None`` unless constructed with ``record_causes=True``
        self.causes: list[int] | None = [] if record_causes else None
        #: id the next recorded event is attributed to (the engine sets it
        #: around each propagator run; meaningless when ``causes`` is None)
        self.cause = CAUSE_DECISION
        #: cursor into :attr:`events`: entries below it have been handed
        #: to the engine already (clamped by :meth:`pop_level`)
        self.dispatched = 0
        #: generic undo log of ``(container, key, old_value)`` records
        #: for propagator-owned state (key ``None`` = whole-list snapshot).
        #: Domain masks have no separate trail: every mutation records
        #: exactly one event carrying ``old_mask``, so :meth:`pop_level`
        #: restores masks from the level's event slice.
        self._undo: list[tuple] = []
        #: per open level: (undo mark, event mark)
        self._levels: list[tuple[int, int]] = []
        #: never-reused id of the current search node (see :attr:`stamp`)
        self._stamp = 0

    # -- queries ------------------------------------------------------------
    def mask(self, var: Variable) -> int:
        """Current domain bitmask (relative to ``var.offset``)."""
        return self.masks[var.index]

    def size(self, var: Variable) -> int:
        """Current domain size."""
        return self.masks[var.index].bit_count()

    def is_assigned(self, var: Variable) -> bool:
        """True iff the domain is a singleton."""
        m = self.masks[var.index]
        return m != 0 and (m & (m - 1)) == 0

    def value(self, var: Variable) -> int:
        """The assigned value; raises if unassigned."""
        m = self.masks[var.index]
        if m == 0 or m & (m - 1):
            raise ValueError(f"{var.name} is not assigned (mask={bin(m)})")
        return var.offset + m.bit_length() - 1

    def contains(self, var: Variable, value: int) -> bool:
        """True iff ``value`` is still in the domain."""
        b = value - var.offset
        return b >= 0 and bool(self.masks[var.index] >> b & 1)

    def min_value(self, var: Variable) -> int:
        """Smallest value in the domain."""
        m = self.masks[var.index]
        if not m:
            raise ValueError(f"{var.name} has an empty domain")
        return var.offset + ((m & -m).bit_length() - 1)

    def max_value(self, var: Variable) -> int:
        """Largest value in the domain."""
        m = self.masks[var.index]
        if not m:
            raise ValueError(f"{var.name} has an empty domain")
        return var.offset + m.bit_length() - 1

    def values(self, var: Variable) -> list[int]:
        """Current domain as a sorted list."""
        return values_from_mask(self.masks[var.index], var.offset)

    def solution(self) -> dict[Variable, int]:
        """Mapping of every variable to its value (all must be assigned)."""
        return {v: self.value(v) for v in self.model.variables}

    # -- mutations ------------------------------------------------------------
    # The mutators record the undo and the typed event inline (these are
    # the hottest writes in the engine; assign's event mask is constant).

    def assign(self, var: Variable, value: int) -> bool:
        """Reduce the domain to ``{value}``; False if value not in domain."""
        b = value - var.offset
        if b < 0:
            return False
        bit = 1 << b
        idx = var.index
        masks = self.masks
        old = masks[idx]
        if not old & bit:
            return False
        if old != bit:
            self.events.append((idx, old, bit, _EV_SINGLETON))
            if self.causes is not None:
                self.causes.append(self.cause)
            masks[idx] = bit
        return True

    def remove_value(self, var: Variable, value: int) -> bool:
        """Remove one value; False if this empties the domain."""
        b = value - var.offset
        if b < 0:
            return True  # value was never in the domain
        bit = 1 << b
        idx = var.index
        masks = self.masks
        old = masks[idx]
        if not old & bit:
            return True
        new = old & ~bit
        if new == 0:
            return False
        if not new & (new - 1):
            ev = _EV_SINGLETON
        elif bit == old & -old or new < bit:  # dropped the min or the max
            ev = EVT_REMOVE | EVT_BOUNDS
        else:
            ev = EVT_REMOVE
        self.events.append((idx, old, new, ev))
        if self.causes is not None:
            self.causes.append(self.cause)
        masks[idx] = new
        return True

    def intersect_mask(self, var: Variable, mask: int) -> bool:
        """Keep only values whose bits are set in ``mask`` (same offset);
        False if the domain becomes empty."""
        idx = var.index
        masks = self.masks
        old = masks[idx]
        new = old & mask
        if new == old:
            return True
        if new == 0:
            return False
        if not new & (new - 1):
            ev = _EV_SINGLETON
        elif old & -old != new & -new or old.bit_length() != new.bit_length():
            ev = EVT_REMOVE | EVT_BOUNDS
        else:
            ev = EVT_REMOVE
        self.events.append((idx, old, new, ev))
        if self.causes is not None:
            self.causes.append(self.cause)
        masks[idx] = new
        return True

    def remove_above(self, var: Variable, bound: int) -> bool:
        """Remove every value > bound; False if the domain empties."""
        b = bound - var.offset
        if b < 0:
            return False
        return self.intersect_mask(var, (1 << (b + 1)) - 1)

    def remove_below(self, var: Variable, bound: int) -> bool:
        """Remove every value < bound; False if the domain empties."""
        b = bound - var.offset
        if b <= 0:
            return True
        return self.intersect_mask(var, ~((1 << b) - 1))

    # -- generic trail (propagator-owned reversible data) ---------------------
    @property
    def stamp(self) -> int:
        """Never-reused identifier of the current search node.

        Increases on every :meth:`push_level` and is never reused after a
        pop, so ``my_stamp != state.stamp`` is a safe "have I trailed my
        counters at this node yet?" test for propagators."""
        return self._stamp

    def refresh_stamp(self) -> None:
        """Give the current node a fresh stamp.

        The learning search calls this after a conflict-driven backjump:
        the assertion (and its propagation) happens at the surviving
        level *without* a new ``push_level``, and a propagator that last
        trailed its counters inside the popped subtree would otherwise
        see a matching stamp and skip re-trailing — leaving the new
        deltas unprotected against the next pop."""
        self._stamp += 1

    def save(self, container, key) -> None:
        """Trail one slot of any mutable container so :meth:`pop_level`
        restores it: the undo replays ``container[key] = old_value``."""
        self._undo.append((container, key, container[key]))

    def save_all(self, container: list) -> None:
        """Trail a (small) list wholesale in one undo record — the idiom
        for a propagator snapshotting its counters once per node.  The
        record's key is ``None`` and the undo replays a slice assign."""
        self._undo.append((container, None, tuple(container)))

    # -- trail ---------------------------------------------------------------
    @property
    def level(self) -> int:
        """Current decision depth."""
        return len(self._levels)

    def push_level(self) -> None:
        """Open a new decision level."""
        self._levels.append((len(self._undo), len(self.events)))
        self._stamp += 1

    def pop_level(self) -> None:
        """Undo every change made since the matching :meth:`push_level`.

        Domain masks *and* any propagator-owned slots trailed via
        :meth:`save` / :meth:`save_all` are restored; events recorded
        inside the popped level are discarded, while events recorded
        before the push (pending, not yet drained) survive."""
        if not self._levels:
            raise RuntimeError("pop_level without matching push_level")
        undo_mark, event_mark = self._levels.pop()
        masks = self.masks
        events = self.events
        if len(events) > event_mark:
            # LIFO replay leaves the oldest (correct) mask in place,
            # including for mutations whose events were never dispatched
            for idx, old, _new, _ev in reversed(events[event_mark:]):
                masks[idx] = old
            del events[event_mark:]
        undo = self._undo
        if len(undo) > undo_mark:
            for container, key, old in reversed(undo[undo_mark:]):
                if key is None:  # wholesale list snapshot (save_all)
                    container[:] = old
                else:
                    container[key] = old
            del undo[undo_mark:]
        if self.causes is not None:
            del self.causes[event_mark:]
        if self.dispatched > event_mark:
            self.dispatched = event_mark

    def make_trail_ops(self):
        """Bind ``(push, pop)`` closures over this state's trail.

        Semantically identical to :meth:`push_level` / :meth:`pop_level`
        but with every structure captured as a default argument, so the
        once-per-node calls skip the attribute-load prologue (the search
        makes ~2 of these per node explored; the method-call overhead is
        measurable on small instances).  For paired use by the search
        loop only: the unmatched-pop guard is dropped (an unmatched pop
        raises ``IndexError`` from the list instead of ``RuntimeError``).

        Bindings snapshot :attr:`causes`, so the list must not be
        replaced afterwards."""
        state = self
        levels = self._levels

        def push(
            append=levels.append,
            undo=self._undo,
            events=self.events,
            state=state,
        ) -> None:
            append((len(undo), len(events)))
            state._stamp += 1

        def pop(
            take=levels.pop,
            masks=self.masks,
            events=self.events,
            undo=self._undo,
            causes=self.causes,
            state=state,
        ) -> None:
            undo_mark, event_mark = take()
            if len(events) > event_mark:
                for idx, old, _new, _ev in reversed(events[event_mark:]):
                    masks[idx] = old
                del events[event_mark:]
            if len(undo) > undo_mark:
                for container, key, old in reversed(undo[undo_mark:]):
                    if key is None:  # wholesale list snapshot (save_all)
                        container[:] = old
                    else:
                        container[key] = old
                del undo[undo_mark:]
            if causes is not None:
                del causes[event_mark:]
            if state.dispatched > event_mark:
                state.dispatched = event_mark

        return push, pop

    def drain_events(self) -> list[tuple[int, int, int, int]]:
        """Return the not-yet-consumed events and advance the cursor."""
        out = self.events[self.dispatched:]
        self.dispatched = len(self.events)
        return out

    def drain_changed(self) -> list[int]:
        """Return and consume the changed-variable log (indices only).

        Compatibility surface over :meth:`drain_events` for callers that
        only need *which* variables moved, not the typed deltas."""
        return [e[0] for e in self.drain_events()]
