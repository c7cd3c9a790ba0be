"""REP013 — asyncio safety for the serving tier.

The query tier (``serving/``) is the one place the repo runs an event
loop, and its determinism contract (seeded loadgen streams, replayable
cache-hit counts) only holds if the loop actually stays single-threaded
and non-blocking.  Three failure modes, none of which the other rules
look for:

* **blocking calls inside a coroutine** — ``time.sleep``, sync
  file/socket/subprocess IO — stall every connection on the loop and
  turn latency measurements into noise;
* **coroutine calls never awaited** — ``self._drain()`` as a bare
  statement creates a coroutine object and drops it; the work silently
  never happens (Python only warns at GC time, if ever);
* **shared server state mutated from multiple coroutines** — every
  field that two coroutines write is a race against interleaved
  awaits.  The serving design routes all mutation through the single
  drain-loop coroutine; the only sanctioned exception is a constant
  shutdown flag (``self._shutting_down = True``), which is atomic and
  order-insensitive.

Scope: modules under ``serving/`` (plus loose test fixtures).  The
never-awaited check resolves callees through the project call graph,
so an async helper defined in another serving module is still caught.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.base import Rule
from repro.lint.diagnostics import Diagnostic
from repro.lint.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectContext,
)

__all__ = ["AsyncSafetyRule"]

#: external calls that block the event loop (dotted names after alias
#: resolution, so ``from time import sleep`` is caught too).
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.wait",
        "os.waitpid",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "socket.create_connection",
        "urllib.request.urlopen",
        "requests.get",
        "requests.post",
        "requests.request",
    }
)


class AsyncSafetyRule(Rule):
    code = "REP013"
    name = "asyncio-safety"
    summary = (
        "serving/ coroutines must not block the event loop, drop "
        "un-awaited coroutines, or mutate shared server state outside "
        "the drain loop"
    )

    def applies(self, module: ModuleInfo) -> bool:
        # Loose fixture files (no package) exercise the rule directly.
        return module.package in (None, "serving")

    def check_module(
        self, project: ProjectContext, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        for fn in module.all_functions():
            if fn.is_async:
                yield from self._check_coroutine(project, module, fn)
        for cls_name in sorted(module.classes):
            yield from self._check_shared_state(
                module, module.classes[cls_name]
            )

    # -- blocking calls + dropped coroutines -----------------------------
    def _check_coroutine(
        self,
        project: ProjectContext,
        module: ModuleInfo,
        fn: FunctionInfo,
    ) -> Iterator[Diagnostic]:
        cls = project.enclosing_class(module, fn)
        for node in _walk_coroutine_body(fn.node):
            if isinstance(node, ast.Call):
                yield from self._check_blocking(project, module, node)
            if isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Call
            ):
                yield from self._check_unawaited(
                    project, module, cls, node.value
                )

    def _check_blocking(
        self,
        project: ProjectContext,
        module: ModuleInfo,
        call: ast.Call,
    ) -> Iterator[Diagnostic]:
        if isinstance(call.func, ast.Name) and call.func.id == "open":
            yield self.diag(
                module.ctx,
                call,
                "sync open() inside a coroutine blocks the event loop; "
                "do file IO before entering async code or hand it to a "
                "thread",
            )
            return
        dotted = project.resolve_external(module, call.func)
        if dotted is not None and dotted in _BLOCKING_CALLS:
            yield self.diag(
                module.ctx,
                call,
                f"blocking call {dotted}() inside a coroutine stalls "
                "every connection on the event loop; use the asyncio "
                "equivalent (e.g. await asyncio.sleep) or move it off "
                "the loop",
            )

    def _check_unawaited(
        self,
        project: ProjectContext,
        module: ModuleInfo,
        cls: Optional[ClassInfo],
        call: ast.Call,
    ) -> Iterator[Diagnostic]:
        dotted = project.resolve_external(module, call.func)
        if dotted == "asyncio.sleep":
            yield self.diag(
                module.ctx,
                call,
                "asyncio.sleep() is never awaited — the coroutine "
                "object is created and dropped, so the pause never "
                "happens",
            )
            return
        target = project.resolve_call(module, call, cls)
        if target is not None and target.is_async:
            yield self.diag(
                module.ctx,
                call,
                f"coroutine {target.dotted}() is called but never "
                "awaited — the coroutine object is dropped and its "
                "body never runs",
            )

    # -- shared mutable state --------------------------------------------
    def _check_shared_state(
        self, module: ModuleInfo, cls: ClassInfo
    ) -> Iterator[Diagnostic]:
        #: attr -> [(method name, assignment node, is_constant_flag)]
        writes: Dict[str, List[Tuple[str, ast.stmt, bool]]] = {}
        for meth_name in sorted(cls.methods):
            meth = cls.methods[meth_name]
            if not meth.is_async:
                continue
            for stmt in _walk_coroutine_body(meth.node):
                for attr, constant in _self_attr_writes(stmt):
                    writes.setdefault(attr, []).append(
                        (meth_name, stmt, constant)
                    )
        for attr in sorted(writes):
            entries = writes[attr]
            methods = sorted({name for name, _, _ in entries})
            if len(methods) < 2:
                continue
            if all(constant for _, _, constant in entries):
                continue  # constant flags (shutdown sentinel) are atomic
            first = entries[0][1]
            yield self.diag(
                module.ctx,
                first,
                f"shared field self.{attr} is mutated in "
                f"{len(methods)} coroutines ({', '.join(methods)}); "
                "route mutations through the single drain-loop "
                "coroutine so interleaved awaits cannot race",
            )


def _walk_coroutine_body(fn_node: ast.AST) -> Iterator[ast.AST]:
    """Walk a coroutine's body without entering nested function defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _self_attr_writes(
    stmt: ast.AST,
) -> Iterator[Tuple[str, bool]]:
    """(attr, rhs_is_constant) for every ``self.X = ...`` in ``stmt``."""
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield target.attr, isinstance(stmt.value, ast.Constant)
    elif isinstance(stmt, ast.AugAssign):
        target = stmt.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            yield target.attr, False
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        target = stmt.target
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            yield target.attr, isinstance(stmt.value, ast.Constant)
