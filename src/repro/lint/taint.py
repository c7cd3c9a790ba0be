"""REP010 — interprocedural determinism taint.

REP001 bans wall-clock reads and unseeded randomness *inside* the
algorithmic packages, but it cannot see a helper one module away::

    # analysis/helpers.py          (outside REP001's scope)
    def fresh_token():
        return time.time()

    # distributed/foo_protocol.py  (inside the scope — looks clean)
    from repro.analysis.helpers import fresh_token
    self.token = fresh_token()          # nondeterminism smuggled in

This rule computes, for every function in the project, whether its
result can carry nondeterminism, and flags every *cross-module* call
from an algorithmic package into a tainted function.  Taint sources:

* external calls REP001 bans — :func:`repro.lint.determinism.source_advice`
  is the one table: ``time.time``/``time_ns``, ``os.urandom``,
  ``secrets.*``, ``uuid.uuid1``/``uuid.uuid4``, any ``random.*`` call,
  unseeded ``numpy.random.*``;
* set-iteration order escaping a function — ``return list(s)`` /
  ``return tuple(s)`` / ``return [x for x in s]`` where ``s`` is
  statically set-typed (REP005's inference, reused);
* transitively, any call into a function already tainted.

``repro.util.rng`` is the sanctioned laundering point: its functions
are never taint sources and calls into it never propagate — that is
exactly the module whose job is to turn a run seed into replayable
draws.  Same-module calls to tainted helpers are not re-flagged either:
REP001/REP005 already convict the source line itself when it sits in
an algorithmic package.

Each diagnostic spells out the full call chain down to the source so
the finding is actionable without re-running the analysis by hand.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.lint.base import ALGORITHMIC_PACKAGES, Rule
from repro.lint.determinism import source_advice
from repro.lint.diagnostics import Diagnostic
from repro.lint.iteration import (
    _function_set_names,
    _looks_like_set,
    _Scope,
)
from repro.lint.project import FunctionInfo, ModuleInfo, ProjectContext

__all__ = ["TaintRule"]


def _is_rng_module(module: ModuleInfo) -> bool:
    """The sanctioned randomness plumbing (``repro.util.rng``)."""
    return module.name == "rng" or module.name.endswith(".rng")


class _Taint:
    """Why a function is tainted: source label + call chain to it."""

    __slots__ = ("source", "chain")

    def __init__(self, source: str, chain: Tuple[str, ...]) -> None:
        self.source = source
        self.chain = chain


class TaintRule(Rule):
    code = "REP010"
    name = "determinism-taint"
    summary = (
        "cross-module calls from algorithmic packages must not reach "
        "wall-clock/entropy/unsorted-set sources through helpers — "
        "interprocedural extension of REP001/REP005"
    )

    def applies(self, module: ModuleInfo) -> bool:
        in_scope = module.ctx.in_packages(ALGORITHMIC_PACKAGES)
        return in_scope and not _is_rng_module(module)

    def check(self, project: ProjectContext) -> Iterator[Diagnostic]:
        # One taint memo per run, shared by every module's checks.
        cache: Dict[int, Optional[_Taint]] = {}
        for module in project.sorted_modules():
            if self.applies(module):
                for fn in module.all_functions():
                    yield from self._check_function(
                        project, module, fn, cache
                    )

    # -- reporting ------------------------------------------------------
    def _check_function(
        self,
        project: ProjectContext,
        module: ModuleInfo,
        fn: FunctionInfo,
        cache: Dict[int, Optional[_Taint]],
    ) -> Iterator[Diagnostic]:
        cls = project.enclosing_class(module, fn)
        for call in self._calls_in(fn.node):
            target = project.resolve_call(module, call, cls)
            if target is None or target.module is module:
                continue  # same-module sources are REP001/REP005's job
            if _is_rng_module(target.module):
                continue
            taint = self._taint_of(project, target, cache, stack=set())
            if taint is None:
                continue
            chain = " -> ".join(taint.chain)
            yield self.diag(
                module.ctx,
                call,
                f"call into {target.dotted}() reaches nondeterminism "
                f"source {taint.source} (chain: {chain}); thread a "
                "seed/Prf from repro.util.rng or sort before the value "
                "escapes",
            )

    def _calls_in(self, fn_node: ast.AST) -> Iterator[ast.Call]:
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Call):
                yield node

    # -- taint computation ----------------------------------------------
    def _taint_of(
        self,
        project: ProjectContext,
        fn: FunctionInfo,
        cache: Dict[int, Optional[_Taint]],
        stack: Set[int],
    ) -> Optional[_Taint]:
        key = id(fn)
        if key in cache:
            return cache[key]
        if key in stack:
            return None  # recursion: optimistic (cycle carries no new source)
        stack.add(key)
        taint = self._compute_taint(project, fn, cache, stack)
        stack.discard(key)
        cache[key] = taint
        return taint

    def _compute_taint(
        self,
        project: ProjectContext,
        fn: FunctionInfo,
        cache: Dict[int, Optional[_Taint]],
        stack: Set[int],
    ) -> Optional[_Taint]:
        module = fn.module
        if _is_rng_module(module):
            return None
        cls = project.enclosing_class(module, fn)
        direct = self._direct_source(project, module, fn)
        if direct is not None:
            return _Taint(direct, (fn.dotted,))
        for call in self._calls_in(fn.node):
            target = project.resolve_call(module, call, cls)
            if target is None or target is fn:
                continue
            if _is_rng_module(target.module):
                continue
            inner = self._taint_of(project, target, cache, stack)
            if inner is not None:
                return _Taint(inner.source, (fn.dotted,) + inner.chain)
        return None

    def _direct_source(
        self,
        project: ProjectContext,
        module: ModuleInfo,
        fn: FunctionInfo,
    ) -> Optional[str]:
        for call in self._calls_in(fn.node):
            dotted = project.resolve_external(module, call.func)
            if dotted is None:
                continue
            if source_advice(dotted, call) is not None:
                return dotted
        escape = self._set_order_escape(fn)
        if escape is not None:
            return escape
        return None

    def _set_order_escape(self, fn: FunctionInfo) -> Optional[str]:
        """Does ``fn`` return a set's iteration order as a sequence?"""
        node = fn.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        scope = _Scope(_function_set_names(node), set())
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.Return) or stmt.value is None:
                continue
            value = stmt.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("list", "tuple")
                and len(value.args) == 1
                and _looks_like_set(value.args[0], scope)
            ):
                return (
                    f"unsorted set iteration ({value.func.id}() over a "
                    "set) escaping via return"
                )
            if isinstance(value, (ast.ListComp, ast.GeneratorExp)):
                for gen in value.generators:
                    if _looks_like_set(gen.iter, scope):
                        return (
                            "unsorted set iteration (comprehension over "
                            "a set) escaping via return"
                        )
        return None
