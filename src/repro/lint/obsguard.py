"""REP004 — obs guard: observability calls hide behind ``is not None``.

The observability bundle (PR 2) promises **zero overhead when
disabled**: an unobserved run must not pay even an attribute lookup plus
no-op call per message (benchmark E21 measures exactly this).  The
contract in hot-path code is therefore::

    obs = self.obs
    ...
    if obs is not None:
        obs.on_send(round_no, v, dst, words, payloads)

This rule finds method calls on an ``obs`` handle (a name ``obs``, or
any ``*.obs`` attribute) inside the algorithmic packages that are *not*
dominated by a ``None`` guard on that same expression.  Recognized
guards:

* ``if obs is not None:`` / truthiness ``if obs:`` (and the guarded
  else-branch of ``if obs is None:``),
* early exits — ``if obs is None: return`` guards the rest of the block,
* ``assert obs is not None``,
* ``and`` chains — ``obs is not None and obs.on_x()``,
* conditional expressions — ``obs.on_x() if obs is not None else None``.

Guards are matched by expression text, so the ``obs = self.obs``
aliasing idiom works: the guard and the call must spell the handle the
same way.  Plain function calls *taking* obs as an argument
(``phase_scope(obs, ...)``, ``build_network(..., obs=obs)``) are not
method calls on the handle and are fine — the callee owns the check.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Tuple

from repro.lint.base import ALGORITHMIC_PACKAGES, FileContext, Rule
from repro.lint.diagnostics import Diagnostic
from repro.lint.project import ModuleInfo, ProjectContext

__all__ = ["ObsGuardRule"]


def _is_obs_handle(expr: ast.expr) -> bool:
    """Whether ``expr`` spells an observability handle (obs / *.obs)."""
    if isinstance(expr, ast.Name):
        return expr.id == "obs"
    if isinstance(expr, ast.Attribute):
        return expr.attr == "obs"
    return False


def _key(expr: ast.expr) -> str:
    return ast.unparse(expr)


def _guards_from_test(
    test: ast.expr,
) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(keys guarded when test is true, keys guarded when false)."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, op, right = test.left, test.ops[0], test.comparators[0]
        is_none = isinstance(right, ast.Constant) and right.value is None
        if is_none and _is_obs_handle(left):
            if isinstance(op, ast.IsNot):
                return frozenset({_key(left)}), frozenset()
            if isinstance(op, ast.Is):
                return frozenset(), frozenset({_key(left)})
        return frozenset(), frozenset()
    if _is_obs_handle(test):
        # truthiness: Obs instances are always truthy, so ``if obs:``
        # is an acceptable (if less idiomatic) None guard.
        return frozenset({_key(test)}), frozenset()
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        pos, neg = _guards_from_test(test.operand)
        return neg, pos
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        pos: FrozenSet[str] = frozenset()
        for value in test.values:
            sub_pos, _ = _guards_from_test(value)
            pos = pos | sub_pos
        return pos, frozenset()
    return frozenset(), frozenset()


def _diverges(body: List[ast.stmt]) -> bool:
    """Whether a block always leaves the enclosing block."""
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


class ObsGuardRule(Rule):
    code = "REP004"
    name = "obs-guard"
    summary = (
        "obs.* calls in algorithmic code must sit under an "
        "'if obs is not None' guard (zero-overhead-when-disabled "
        "contract, benchmark E21)"
    )

    def applies(self, module: ModuleInfo) -> bool:
        return module.ctx.in_packages(ALGORITHMIC_PACKAGES)

    def check_module(
        self, project: ProjectContext, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        found: List[Diagnostic] = []
        for node in module.ctx.tree.body:
            self._scan_stmt(module.ctx, node, frozenset(), found)
        yield from found

    # -- statement-level guard tracking ---------------------------------

    def _scan_block(
        self,
        ctx: FileContext,
        body: List[ast.stmt],
        guarded: FrozenSet[str],
        out: List[Diagnostic],
    ) -> None:
        for stmt in body:
            guarded = self._scan_stmt(ctx, stmt, guarded, out)

    def _scan_stmt(
        self,
        ctx: FileContext,
        stmt: ast.stmt,
        guarded: FrozenSet[str],
        out: List[Diagnostic],
    ) -> FrozenSet[str]:
        """Scan one statement; returns guards active *after* it."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._scan_block(ctx, stmt.body, frozenset(), out)
            return guarded
        if isinstance(stmt, ast.ClassDef):
            self._scan_block(ctx, stmt.body, frozenset(), out)
            return guarded
        if isinstance(stmt, ast.If):
            pos, neg = _guards_from_test(stmt.test)
            self._check_expr(ctx, stmt.test, guarded, out)
            self._scan_block(ctx, stmt.body, guarded | pos, out)
            self._scan_block(ctx, stmt.orelse, guarded | neg, out)
            # ``if obs is None: return`` → the rest of the block is safe.
            if _diverges(stmt.body):
                guarded = guarded | neg
            if stmt.orelse and _diverges(stmt.orelse):
                guarded = guarded | pos
            return guarded
        if isinstance(stmt, ast.Assert):
            pos, _ = _guards_from_test(stmt.test)
            return guarded | pos
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._check_expr(ctx, stmt.iter, guarded, out)
            self._scan_block(ctx, stmt.body, guarded, out)
            self._scan_block(ctx, stmt.orelse, guarded, out)
            return guarded
        if isinstance(stmt, ast.While):
            self._check_expr(ctx, stmt.test, guarded, out)
            self._scan_block(ctx, stmt.body, guarded, out)
            self._scan_block(ctx, stmt.orelse, guarded, out)
            return guarded
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._check_expr(ctx, item.context_expr, guarded, out)
            self._scan_block(ctx, stmt.body, guarded, out)
            return guarded
        if isinstance(stmt, (ast.Try,)):
            self._scan_block(ctx, stmt.body, guarded, out)
            for handler in stmt.handlers:
                self._scan_block(ctx, handler.body, guarded, out)
            self._scan_block(ctx, stmt.orelse, guarded, out)
            self._scan_block(ctx, stmt.finalbody, guarded, out)
            return guarded
        # Plain statement: check every expression it contains.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._check_expr(ctx, child, guarded, out)
        return guarded

    # -- expression-level checking --------------------------------------

    def _check_expr(
        self,
        ctx: FileContext,
        expr: ast.expr,
        guarded: FrozenSet[str],
        out: List[Diagnostic],
    ) -> None:
        if isinstance(expr, ast.IfExp):
            pos, neg = _guards_from_test(expr.test)
            self._check_expr(ctx, expr.test, guarded, out)
            self._check_expr(ctx, expr.body, guarded | pos, out)
            self._check_expr(ctx, expr.orelse, guarded | neg, out)
            return
        if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.And):
            # short-circuit: each operand sees the guards established by
            # the operands to its left.
            acc = guarded
            for value in expr.values:
                self._check_expr(ctx, value, acc, out)
                pos, _ = _guards_from_test(value)
                acc = acc | pos
            return
        if isinstance(expr, ast.Call):
            func = expr.func
            if (
                isinstance(func, ast.Attribute)
                and _is_obs_handle(func.value)
                and _key(func.value) not in guarded
            ):
                out.append(
                    self.diag(
                        ctx,
                        expr,
                        f"unguarded observability call "
                        f"{_key(func.value)}.{func.attr}(); wrap it in "
                        "'if obs is not None:' to keep disabled runs "
                        "zero-overhead",
                    )
                )
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    self._check_expr(ctx, child, guarded, out)
                elif isinstance(child, ast.keyword):
                    self._check_expr(ctx, child.value, guarded, out)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._check_expr(ctx, child, guarded, out)
            elif isinstance(child, ast.keyword):
                self._check_expr(ctx, child.value, guarded, out)
            elif isinstance(child, ast.comprehension):
                self._check_expr(ctx, child.iter, guarded, out)
                for cond in child.ifs:
                    self._check_expr(ctx, cond, guarded, out)
