"""In-memory span recorder and the wrappers that trace repro's layers.

The program itself carries no tracing hooks yet, so the traced run wraps
each layer's entry points from here: a wrapper opens a span, calls the
original and closes the span, and :meth:`Tracer.uninstall` puts every
original back.  A span is ``[name, start, end, parent, request, note]``:
``parent`` is the index of the enclosing span on the same thread (or
``None``), ``request`` the id of the request the work belongs to, and
``note`` an optional value taken from the wrapped call's result.

Spans stay in memory while the workload runs and are written out once,
at the end (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, REQUEST, NOTE = range(6)

#: the screening cascade's tests, in cascade order
CASCADE_TESTS = (
    "necessary:utilization",
    "necessary:wcet-slack",
    "sufficient:gfb",
    "sufficient:density",
    "sufficient:uniproc-edf",
    "sufficient:partitioned-ff",
    "sufficient:edf-sim",
    "necessary:interval-load",
    "necessary:forced-demand",
)


class Tracer:
    """Records spans from any thread; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: request id given to spans opened outside any enclosing span
        self.request = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request=None) -> int:
        """Start a span under the innermost open span of this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None:
            request = self.request if parent is None else self.spans[parent][REQUEST]
        span = [name, time.perf_counter(), None, parent, request, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int, note=None) -> None:
        """End the span ``index`` (the innermost open one)."""
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[NOTE] = note
        self._stack().pop()

    def wrap(self, name: str, fn, request_of=None, note_of=None):
        """``fn`` recording one span per call.

        ``request_of`` picks a request id from the arguments; ``note_of``
        keeps a value computed from the result.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = None if request_of is None else request_of(args)
            index = tracer.open(name, request)
            note = None
            try:
                result = fn(*args, **kwargs)
                if note_of is not None:
                    note = note_of(result)
                return result
            finally:
                tracer.close(index, note)

        return traced

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` restores it."""
        own = attr in vars(owner)
        self._patches.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, **wrap_options) -> None:
        """Replace ``owner.attr`` by its traced wrapper."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), **wrap_options))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self, path: str) -> None:
        """Write the spans as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i] for i, span in enumerate(spans)]


def totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``total_s``."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        agg = out[span[NAME]]
        agg["calls"] += 1
        agg["self_s"] += own
        agg["total_s"] += span[END] - span[START]
    return out


# -- layer wrappers ----------------------------------------------------------


class _TracedEngine:
    """A solver engine whose ``solve`` records a span."""

    def __init__(self, engine, span_name: str, tracer: Tracer) -> None:
        self._engine = engine
        self._span_name = span_name
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        index = self._tracer.open(self._span_name)
        try:
            return self._engine.solve(*args, **kwargs)
        finally:
            self._tracer.close(index)

    def __getattr__(self, attr):
        return getattr(self._engine, attr)


def install_inprocess(tracer: Tracer) -> None:
    """Trace the layers an in-process solve goes through.

    ``create_solver`` is replaced both where ``solve_problem`` bound it
    and in the registry (the ``screen`` solver builds its fall-through
    engine from there), so model building shows as ``solvers.build`` and
    every engine's search as ``solvers.solve.<solver>``.
    """
    import repro.analysis.cascade as cascade
    import repro.baselines.simulator as simulator
    import repro.kernels.demand as demand
    import repro.kernels.fixpoint as fixpoint
    import repro.solvers.problem as problem
    import repro.solvers.registry as registry
    from repro.solvers.spec import SolverSpec

    original = registry.create_solver

    def create_solver(spec, *args, **kwargs):
        name = SolverSpec.parse(spec).canonical
        index = tracer.open("solvers.build")
        try:
            engine = original(spec, *args, **kwargs)
        finally:
            tracer.close(index)
        return _TracedEngine(engine, "solvers.solve." + name, tracer)

    tracer.replace(problem, "create_solver", create_solver)
    tracer.replace(registry, "create_solver", create_solver)
    tracer.patch(problem, "validate", "schedule.validate")
    tracer.patch(cascade, "run_cascade", "analysis.cascade")
    for fn in ("enclosed_excess_witness", "forced_demand_witness", "interval_min_processors"):
        tracer.patch(demand, fn, "kernels.demand")
    tracer.patch(simulator, "simulate_static", "kernels.simulate")
    tracer.patch(fixpoint.CountingKernel, "reset", "kernels.fixpoint")


def _child_elapsed(result):
    """The solve time the child reported, or ``None`` for a fault; the
    rest of the supervise span is spawn and transfer overhead."""
    value, fault = result
    return None if fault is not None else value.elapsed


def install_service(tracer: Tracer) -> None:
    """Trace the daemon's parent process: protocol, memo and supervision.

    ``SolverService._execute`` is the per-request unit of work on the
    daemon's executor threads; wrapping it tags the cache and supervise
    spans nested under it with the request's id.
    """
    import repro.batch.cache as cache
    import repro.batch.transport as transport
    import repro.service.server as server

    tracer.patch(server, "parse_solve_request", "service.parse")
    tracer.patch(server, "report_line", "service.encode")
    tracer.patch(
        server.SolverService, "_execute", "service.execute",
        request_of=lambda args: args[1].id,
    )
    tracer.patch(
        cache.ReportCache, "get", "batch.cache_get",
        note_of=lambda hit: hit is not None,
    )
    tracer.patch(cache.ReportCache, "put", "batch.cache_put")
    tracer.patch(transport, "run_supervised", "batch.supervise", note_of=_child_elapsed)
