"""REP012 — CONGEST payload bounds: every message O(1) words, statically.

Pettie's model charges messages in *words* of ``O(log n)`` bits
(PAPER.md §2), and ``util/words.message_words`` is the runtime meter:
scalars cost one word, containers the sum of their items.  REP003's
``static_payload_words`` already prices payloads built from literals;
this rule closes the remaining gap — payloads assembled from
*variables, attributes and helper calls*, possibly in other modules.

For every ``api.send``/``api.broadcast`` payload in a
``*_protocol.py`` file the rule infers an upper bound on the word
count:

* literals price exactly (via ``static_payload_words``);
* names/attributes resolve through parameter and ``self`` annotations
  (``distributed/`` is mypy-strict, so these exist) and assignment
  right-hand sides;
* ``Tuple[a, b, c]`` sums its parts; ``List``/``Set``/``Dict``/
  ``Sequence``/``Iterable``/``Tuple[T, ...]``/``Any`` annotations are
  unbounded; project type aliases (``Edge = Tuple[int, int]``) resolve
  across modules;
* helper calls resolve through the project call graph to the callee's
  return annotation (or its return expressions);
* an explicit slice with an upper bound (``x[:self.cap]``) counts as a
  visible bounding gesture — capping a batch is exactly the discipline
  the rule exists to force;
* unknown bare names/attributes default to one word, matching
  ``message_words``' opaque-object fallback.

A payload whose bound comes out *unknown* (``None``) is flagged: the
protocol is putting a container of data-dependent size on the wire in
one round, which is exactly what the CONGEST accounting forbids.
Genuinely-unbounded protocols (the ``survey`` strawman, churn repair
records) carry audited inline suppressions explaining why.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.base import Rule
from repro.lint.diagnostics import Diagnostic
from repro.lint.messages import _payload_args, static_payload_words
from repro.lint.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectContext,
)

__all__ = ["CongestPayloadRule"]

#: annotation heads that denote a single scalar word.
_SCALAR_TYPES = frozenset({"int", "float", "bool", "str", "bytes"})
#: annotation heads that denote containers of data-dependent size.
_UNBOUNDED_TYPES = frozenset(
    {
        "List",
        "list",
        "Set",
        "set",
        "FrozenSet",
        "frozenset",
        "Dict",
        "dict",
        "Sequence",
        "MutableSequence",
        "Iterable",
        "Iterator",
        "Collection",
        "Mapping",
        "MutableMapping",
        "Any",
    }
)
#: calls that reorder/convert a container without changing its size.
_SIZE_PRESERVING_CALLS = frozenset(
    {"tuple", "list", "sorted", "reversed", "set", "frozenset"}
)
#: calls that collapse their arguments to a single scalar word.
_SCALAR_CALLS = frozenset(
    {"len", "min", "max", "sum", "abs", "round", "int", "float", "bool", "str"}
)

_MAX_DEPTH = 12


class CongestPayloadRule(Rule):
    code = "REP012"
    name = "congest-payload-bound"
    summary = (
        "send/broadcast payloads in *_protocol.py must have a "
        "statically constant word bound (util/words accounting; "
        "PAPER.md §2 CONGEST model)"
    )

    def applies(self, module: ModuleInfo) -> bool:
        return module.ctx.is_protocol_file

    def check_module(
        self, project: ProjectContext, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        for fn in module.all_functions():
            yield from self._check_function(project, module, fn)

    def _check_function(
        self,
        project: ProjectContext,
        module: ModuleInfo,
        fn: FunctionInfo,
    ) -> Iterator[Diagnostic]:
        cls = project.enclosing_class(module, fn)
        env = _FunctionEnv(project, module, fn, cls)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            for payload in _payload_args(node):
                bound = env.bound(payload, depth=0)
                if bound is None:
                    snippet = ast.unparse(payload)
                    yield self.diag(
                        module.ctx,
                        payload,
                        f"payload '{snippet}' has no constant word "
                        "bound — a data-dependent container reaches the "
                        "wire in one round; cap the batch (slice to a "
                        "constant) or spread it across rounds "
                        "(util/words accounting, PAPER.md §2)",
                    )


class _FunctionEnv:
    """Bound inference scoped to one function (locals + self attrs)."""

    def __init__(
        self,
        project: ProjectContext,
        module: ModuleInfo,
        fn: FunctionInfo,
        cls: Optional[ClassInfo],
    ) -> None:
        self.project = project
        self.module = module
        self.fn = fn
        self.cls = cls
        self._local_ann: Dict[str, ast.expr] = {}
        self._local_assigns: Dict[str, List[ast.expr]] = {}
        self._collect_locals()
        self._attr_ann: Dict[str, ast.expr] = {}
        self._attr_assigns: Dict[str, List[ast.expr]] = {}
        if cls is not None:
            self._collect_attrs(cls.node)
        self._return_stack: Set[int] = set()

    # -- fact collection ------------------------------------------------
    def _collect_locals(self) -> None:
        node = self.fn.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            ):
                if arg.annotation is not None:
                    self._local_ann[arg.arg] = arg.annotation
        for sub in ast.walk(node):
            if isinstance(sub, ast.AnnAssign) and isinstance(
                sub.target, ast.Name
            ):
                self._local_ann[sub.target.id] = sub.annotation
                if sub.value is not None:
                    self._local_assigns.setdefault(
                        sub.target.id, []
                    ).append(sub.value)
            elif isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        self._local_assigns.setdefault(
                            target.id, []
                        ).append(sub.value)

    def _collect_attrs(self, cls_node: ast.ClassDef) -> None:
        for sub in ast.walk(cls_node):
            if isinstance(sub, ast.AnnAssign):
                target = sub.target
                if isinstance(target, ast.Name):
                    self._attr_ann[target.id] = sub.annotation
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self._attr_ann[target.attr] = sub.annotation
            elif isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        self._attr_assigns.setdefault(
                            target.attr, []
                        ).append(sub.value)

    # -- the bound lattice ----------------------------------------------
    def bound(self, expr: ast.expr, depth: int) -> Optional[int]:
        """Upper bound in words, or None if data-dependent/unknown."""
        if depth > _MAX_DEPTH:
            return None
        exact = static_payload_words(expr)
        if exact is not None:
            return exact
        if isinstance(expr, (ast.Tuple, ast.List)):
            return self._sum(expr.elts, depth)
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            return self._sum([expr.left, expr.right], depth)
        if isinstance(expr, ast.IfExp):
            return self._max([expr.body, expr.orelse], depth)
        if isinstance(expr, ast.BoolOp):
            return self._max(expr.values, depth)
        if isinstance(expr, (ast.Compare, ast.UnaryOp)):
            return 1
        if isinstance(expr, ast.Name):
            return self._name_bound(expr.id, depth)
        if isinstance(expr, ast.Attribute):
            return self._attr_bound(expr, depth)
        if isinstance(expr, ast.Subscript):
            return self._subscript_bound(expr, depth)
        if isinstance(expr, ast.Call):
            return self._call_bound(expr, depth)
        if isinstance(expr, ast.Starred):
            return self.bound(expr.value, depth + 1)
        return None

    def _sum(
        self, parts: List[ast.expr], depth: int
    ) -> Optional[int]:
        total = 0
        for part in parts:
            b = self.bound(part, depth + 1)
            if b is None:
                return None
            total += b
        return total

    def _max(
        self, parts: List[ast.expr], depth: int
    ) -> Optional[int]:
        best = 0
        for part in parts:
            b = self.bound(part, depth + 1)
            if b is None:
                return None
            best = max(best, b)
        return best

    def _name_bound(self, name: str, depth: int) -> Optional[int]:
        ann = self._local_ann.get(name)
        if ann is not None:
            return self._ann_bound(self.module, ann, depth + 1)
        assigns = self._local_assigns.get(name)
        if assigns:
            return self._max(assigns, depth)
        # Loop targets, closure names: a bare unannotated name defaults
        # to one word — message_words charges opaque objects exactly 1.
        return 1

    def _attr_bound(
        self, expr: ast.Attribute, depth: int
    ) -> Optional[int]:
        if not (
            isinstance(expr.value, ast.Name) and expr.value.id == "self"
        ):
            return 1  # foo.bar on a non-self object: opaque scalar
        ann = self._attr_ann.get(expr.attr)
        if ann is not None:
            return self._ann_bound(self.module, ann, depth + 1)
        assigns = self._attr_assigns.get(expr.attr)
        if assigns:
            return self._max(assigns, depth)
        return 1

    def _subscript_bound(
        self, expr: ast.Subscript, depth: int
    ) -> Optional[int]:
        sl = expr.slice
        if isinstance(sl, ast.Slice):
            # An explicit upper bound is the sanctioned capping idiom
            # (batch = queue[: self.cap]); without one the slice is as
            # unbounded as its source.
            if sl.upper is not None:
                return 1
            return self.bound(expr.value, depth + 1)
        return 1  # single-element access

    def _call_bound(self, expr: ast.Call, depth: int) -> Optional[int]:
        func = expr.func
        if isinstance(func, ast.Name):
            if func.id in _SCALAR_CALLS:
                return 1
            if (
                func.id in _SIZE_PRESERVING_CALLS
                and len(expr.args) == 1
                and not expr.keywords
            ):
                return self.bound(expr.args[0], depth + 1)
        resolved = self.project.resolve_call(self.module, expr, self.cls)
        if resolved is not None:
            return self._return_bound(resolved, depth + 1)
        return None

    def _return_bound(
        self, fn: FunctionInfo, depth: int
    ) -> Optional[int]:
        node = fn.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return None
        if node.returns is not None:
            return self._ann_bound(fn.module, node.returns, depth)
        key = id(fn)
        if key in self._return_stack:
            return None
        self._return_stack.add(key)
        try:
            env = _FunctionEnv(
                self.project,
                fn.module,
                fn,
                self.project.enclosing_class(fn.module, fn),
            )
            env._return_stack = self._return_stack
            returns = [
                stmt.value
                for stmt in ast.walk(node)
                if isinstance(stmt, ast.Return) and stmt.value is not None
            ]
            if not returns:
                return 0
            return env._max(returns, depth)
        finally:
            self._return_stack.discard(key)

    # -- annotations -----------------------------------------------------
    def _ann_bound(
        self, module: ModuleInfo, ann: ast.expr, depth: int
    ) -> Optional[int]:
        if depth > _MAX_DEPTH:
            return None
        if isinstance(ann, ast.Constant):
            if ann.value is None:
                return 0
            if isinstance(ann.value, str):
                # Quoted forward reference: parse and recurse.
                try:
                    parsed = ast.parse(ann.value, mode="eval")
                except SyntaxError:
                    return 1
                return self._ann_bound(module, parsed.body, depth + 1)
            return 1
        head = _ann_head(ann)
        if head is None:
            return 1
        if isinstance(ann, ast.Subscript):
            return self._generic_bound(module, head, ann, depth)
        if head in _SCALAR_TYPES:
            return 1
        if head == "None":
            return 0
        if head in _UNBOUNDED_TYPES:
            return None
        alias = self.project.resolve_type_alias(module, head)
        if alias is not None:
            alias_module, alias_expr = alias
            return self._ann_bound(alias_module, alias_expr, depth + 1)
        return 1  # unknown class: opaque token, one word

    def _generic_bound(
        self,
        module: ModuleInfo,
        head: str,
        ann: ast.Subscript,
        depth: int,
    ) -> Optional[int]:
        params = (
            list(ann.slice.elts)
            if isinstance(ann.slice, ast.Tuple)
            else [ann.slice]
        )
        if head == "Optional":
            bounds = [
                self._ann_bound(module, p, depth + 1) for p in params
            ]
            return _max_or_none(bounds)
        if head == "Union":
            bounds = [
                self._ann_bound(module, p, depth + 1) for p in params
            ]
            return _max_or_none(bounds)
        if head in ("Tuple", "tuple"):
            if any(
                isinstance(p, ast.Constant) and p.value is Ellipsis
                for p in params
            ):
                return None  # Tuple[T, ...]: data-dependent length
            total = 0
            for p in params:
                b = self._ann_bound(module, p, depth + 1)
                if b is None:
                    return None
                total += b
            return total
        if head in _UNBOUNDED_TYPES:
            return None
        if head in _SCALAR_TYPES:
            return 1
        alias = self.project.resolve_type_alias(module, head)
        if alias is not None:
            alias_module, alias_expr = alias
            return self._ann_bound(alias_module, alias_expr, depth + 1)
        return 1


def _ann_head(ann: ast.expr) -> Optional[str]:
    target = ann
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):  # typing.Tuple, t.List
        return target.attr
    return None


def _max_or_none(bounds: List[Optional[int]]) -> Optional[int]:
    best = 0
    for b in bounds:
        if b is None:
            return None
        best = max(best, b)
    return best
