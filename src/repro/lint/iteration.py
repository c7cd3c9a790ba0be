"""REP005 — iteration order: never iterate a bare ``set`` into output.

Python set iteration order depends on insertion history and hash
seeding of the *process*, not on the algorithm.  Any protocol that
iterates a set while emitting messages or selecting edges can produce
different message interleavings — or different spanners — across runs,
which breaks the byte-identical trace guarantee (PR 2) and the
sequential/distributed cross-validation the test suite leans on.  The
repo-wide idiom is ``for v in sorted(the_set):``.

This rule infers set-ness statically (no type checker needed at lint
time) from:

* set/frozenset displays, comprehensions and constructor calls,
* set-algebra results — ``a & b``, ``a | b``, ``a - b``, ``a ^ b`` and
  ``.intersection/.union/.difference/.symmetric_difference`` calls where
  either operand is itself set-typed,
* local names and parameters, via assignments and ``Set[...]`` /
  ``FrozenSet[...]`` annotations in the enclosing function,
* ``self.<attr>``, via assignments and annotations anywhere in the
  enclosing class.

It then flags ``for`` statements and *order-producing* comprehensions
(list comprehensions, generator expressions) whose iterable is
set-typed.  Set and dict comprehensions over a set are exempt — their
results carry no meaningful order out of the loop.  ``sorted(s)``,
``min(s)``, ``len(s)``, ``x in s`` are all order-insensitive and never
flagged (they are not iteration *over a bare set expression*).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.base import ALGORITHMIC_PACKAGES, FileContext, Rule
from repro.lint.diagnostics import Diagnostic
from repro.lint.project import ModuleInfo, ProjectContext

__all__ = ["IterationOrderRule"]

_SET_ANNOTATION_NAMES = frozenset(
    {"Set", "FrozenSet", "AbstractSet", "MutableSet", "set", "frozenset"}
)
_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference", "copy"}
)
_SET_BINOPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
#: expressions that are visibly NOT sets — used to veto a name whose
#: other assignments look set-like.
_NON_SET_NODES = (
    ast.List,
    ast.Tuple,
    ast.Dict,
    ast.ListComp,
    ast.DictComp,
    ast.GeneratorExp,
    ast.Constant,
)
#: calls that produce ordered (non-set) results; ``points = sorted(points)``
#: re-binds a former set name to a list, so the name stops being a set
#: for this (flow-insensitive) analysis.
_ORDERING_CALLS = frozenset({"sorted", "list", "tuple", "dict"})


def _visibly_non_set(expr: ast.expr) -> bool:
    if isinstance(expr, _NON_SET_NODES):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in _ORDERING_CALLS
    )


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):  # Set[int], FrozenSet[Edge]
        target = target.value
    if isinstance(target, ast.Name):
        return target.id in _SET_ANNOTATION_NAMES
    if isinstance(target, ast.Attribute):  # typing.Set, t.FrozenSet
        return target.attr in _SET_ANNOTATION_NAMES
    return False


class _Scope:
    """Set-ness facts for one function: local names + self attributes."""

    def __init__(
        self, set_names: Set[str], self_set_attrs: Set[str]
    ) -> None:
        self.set_names = set_names
        self.self_set_attrs = self_set_attrs


def _class_set_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attributes of ``self`` that are set-typed anywhere in the class."""
    set_attrs: Set[str] = set()
    non_set_attrs: Set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.AnnAssign):
            target = node.target
            name: Optional[str] = None
            if isinstance(target, ast.Name):
                name = target.id
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                name = target.attr
            if name is not None and _annotation_is_set(node.annotation):
                set_attrs.add(name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    if _looks_like_set(node.value):
                        set_attrs.add(target.attr)
                    elif _visibly_non_set(node.value):
                        non_set_attrs.add(target.attr)
    return set_attrs - non_set_attrs


def _function_set_names(fn: ast.AST) -> Set[str]:
    """Local names (incl. parameters) that are set-typed in ``fn``."""
    set_names: Set[str] = set()
    non_set_names: Set[str] = set()
    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = fn.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        ):
            if _annotation_is_set(arg.annotation):
                set_names.add(arg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if _looks_like_set(node.value):
                        set_names.add(target.id)
                    elif _visibly_non_set(node.value):
                        non_set_names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if _annotation_is_set(node.annotation):
                set_names.add(node.target.id)
    return set_names - non_set_names


def _looks_like_set(
    expr: ast.expr, scope: Optional[_Scope] = None
) -> bool:
    """Static set-ness of an expression (conservative, syntax-driven)."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and _looks_like_set(func.value, scope)
        ):
            return True
        return False
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_BINOPS):
        return _looks_like_set(expr.left, scope) or _looks_like_set(
            expr.right, scope
        )
    if scope is not None:
        if isinstance(expr, ast.Name):
            return expr.id in scope.set_names
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return expr.attr in scope.self_set_attrs
    return False


def _walk_within(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk ``fn``'s body without crossing into nested function scopes.

    Nested functions get their own scope pass from
    :meth:`IterationOrderRule.check_module`, so descending here would
    double-report their loops under the wrong scope."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class IterationOrderRule(Rule):
    code = "REP005"
    name = "iteration-order"
    summary = (
        "no iteration over bare sets where order escapes (for loops, "
        "list/generator comprehensions) — use sorted(...) so traces and "
        "edge selections are reproducible"
    )

    def applies(self, module: ModuleInfo) -> bool:
        return module.ctx.in_packages(ALGORITHMIC_PACKAGES)

    def check_module(
        self, project: ProjectContext, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        ctx = module.ctx
        # Map each function to the set-typed self-attrs of its class.
        class_attrs: Dict[ast.AST, Set[str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                attrs = _class_set_attrs(node)
                for child in ast.walk(node):
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        class_attrs[child] = attrs
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = _Scope(
                    _function_set_names(node),
                    class_attrs.get(node, set()),
                )
                yield from self._check_function(ctx, node, scope)

    def _check_function(
        self,
        ctx: FileContext,
        fn: ast.AST,
        scope: _Scope,
    ) -> Iterator[Diagnostic]:
        for node in _walk_within(fn):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._flag_if_set(
                    ctx, node.iter, scope, "for loop"
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                kind = (
                    "list comprehension"
                    if isinstance(node, ast.ListComp)
                    else "generator expression"
                )
                for gen in node.generators:
                    yield from self._flag_if_set(ctx, gen.iter, scope, kind)

    def _flag_if_set(
        self,
        ctx: FileContext,
        iterable: ast.expr,
        scope: _Scope,
        where: str,
    ) -> Iterator[Diagnostic]:
        if _looks_like_set(iterable, scope):
            yield self.diag(
                ctx,
                iterable,
                f"{where} iterates bare set "
                f"'{ast.unparse(iterable)}' whose order escapes; wrap "
                "in sorted(...) for reproducible traces/edge selection",
            )
