"""R4 — batch/pickle safety: what crosses a process boundary must pickle.

The batch executor, the racing portfolio and the difftest runner all
ship work into ``multiprocessing`` workers.  Pickle cannot serialize
lambdas, closures, or functions defined inside another function — such a
callable works under ``jobs=1`` (in-process, no pickling) and then
explodes (or worse, silently falls back) the first time someone passes
``--jobs 4``.  The repo's convention is explicit: worker callables are
module-level (``batch.cells.solve_cell``, ``racing._race_entry``,
``portfolio._run_member``) and payloads are plain data.

Two checks:

* the *callable* position of a process primitive (``Process(target=…)``,
  pool ``submit``/``map``/``apply_async``, :func:`repro.batch.racing.race`'s
  ``worker``, :func:`repro.batch.supervise.run_supervised`'s ``fn``) must
  not be a lambda or a locally-defined function;
* the *payload* arguments of those same primitives must not contain
  lambdas anywhere (payloads are data, and data pickles).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.astutil import dotted_name
from repro.lint.engine import LintContext, ModuleInfo, Rule, register_rule
from repro.lint.report import Finding

__all__ = ["ProcessCallableRule", "ProcessPayloadRule"]

#: the dirs whose callables routinely cross process boundaries (the
#: service ships every solve into pool or supervised workers)
PICKLE_SCOPE = (
    "src/repro/batch/",
    "src/repro/difftest/",
    "src/repro/solvers/portfolio.py",
    "src/repro/service/",
)

#: pool/executor methods whose first argument is pickled into a worker
_POOL_METHODS = frozenset(
    {"submit", "map", "apply_async", "apply", "starmap", "imap", "imap_unordered"}
)


def _process_calls(tree: ast.AST) -> Iterator[tuple[ast.Call, list[ast.expr], list[ast.expr]]]:
    """Yield ``(call, callable_positions, payload_positions)`` triples."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        simple = name.rsplit(".", 1)[-1] if name else None
        callables: list[ast.expr] = []
        payloads: list[ast.expr] = []
        if isinstance(node.func, ast.Attribute) and node.func.attr in _POOL_METHODS:
            if node.args:
                callables.append(node.args[0])
                payloads.extend(node.args[1:])
        elif simple == "Process":
            for kw in node.keywords:
                if kw.arg == "target":
                    callables.append(kw.value)
                elif kw.arg == "args":
                    payloads.append(kw.value)
        elif simple == "race":
            # race(payloads, worker, decisive=..., ...): worker is pickled
            # into each entry process; payloads too
            if len(node.args) >= 2:
                payloads.append(node.args[0])
                callables.append(node.args[1])
            for kw in node.keywords:
                if kw.arg == "worker":
                    callables.append(kw.value)
        elif simple == "run_supervised":
            # run_supervised(fn, payload, ..., pool=...): fn is pickled
            # into the supervised worker, payload rides along
            if node.args:
                callables.append(node.args[0])
                payloads.extend(node.args[1:2])
            for kw in node.keywords:
                if kw.arg == "fn":
                    callables.append(kw.value)
                elif kw.arg == "payload":
                    payloads.append(kw.value)
        if callables or payloads:
            yield node, callables, payloads


def _local_callables(tree: ast.Module) -> dict[int, set[str]]:
    """Per-function-node id: names bound to nested defs/lambdas inside it."""
    out: dict[int, set[str]] = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names: set[str] = set()
        for node in ast.walk(fn):
            if node is fn:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        names.add(t.id)
        out[id(fn)] = names
    return out


def _enclosing_function(tree: ast.Module, target: ast.AST):
    """The innermost function whose span contains ``target`` (or None)."""
    best = None
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if fn.lineno <= target.lineno <= (fn.end_lineno or fn.lineno):
                if best is None or fn.lineno >= best.lineno:
                    best = fn
    return best


@register_rule(
    "R4.process-callable",
    family="pickle-safety",
    description="lambda or locally-defined callable shipped to a worker process",
    contract="worker callables must be module-level (picklable by qualified name)",
)
class ProcessCallableRule(Rule):
    """The callable handed to Process/pool/race must pickle by name."""

    scope = PICKLE_SCOPE

    def check_module(self, ctx: LintContext, module: ModuleInfo) -> Iterator[Finding]:
        """Flag lambdas/local defs in the callable slot of process calls."""
        locals_of = _local_callables(module.tree)
        for call, callables, _payloads in _process_calls(module.tree):
            for target in callables:
                if isinstance(target, ast.Lambda):
                    yield self.finding(
                        module,
                        target,
                        "lambda crosses a process boundary: pickle cannot "
                        "serialize it — use a module-level function",
                    )
                    continue
                if isinstance(target, ast.Name):
                    fn = _enclosing_function(module.tree, call)
                    if fn is not None and target.id in locals_of.get(id(fn), set()):
                        yield self.finding(
                            module,
                            target,
                            f"locally-defined callable {target.id!r} "
                            "crosses a process boundary: pickle cannot "
                            "serialize nested functions — move it to "
                            "module level",
                        )


@register_rule(
    "R4.process-payload",
    family="pickle-safety",
    description="lambda inside a payload shipped to a worker process",
    contract="batch cells and race payloads are plain, picklable data",
)
class ProcessPayloadRule(Rule):
    """Payload arguments of process primitives must contain no lambdas."""

    scope = PICKLE_SCOPE

    def check_module(self, ctx: LintContext, module: ModuleInfo) -> Iterator[Finding]:
        """Flag lambdas nested anywhere inside process-call payloads."""
        for _call, _callables, payloads in _process_calls(module.tree):
            for payload in payloads:
                for node in ast.walk(payload):
                    if isinstance(node, ast.Lambda):
                        yield self.finding(
                            module,
                            node,
                            "lambda inside a worker payload: payloads "
                            "must be plain picklable data (tuples, "
                            "dataclasses of primitives)",
                        )
