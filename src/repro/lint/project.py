"""Whole-program analysis context: the one engine every rule runs on.

A rule that saw one AST at a time could not find a wall-clock read or
an unbounded payload hidden *one helper call away*.  This module
discovers the files to lint and builds the three structures every rule
(REP001-REP005, REP010-REP013) reads:

* a **module map** — every ``.py`` file under the linted roots, keyed
  by dotted module name (``src/repro/util/rng.py`` -> ``repro.util.rng``;
  bare fixture files -> their stem), each carrying its parsed
  :class:`~repro.lint.base.FileContext`;
* a **module-import graph** — one edge per resolved project-internal
  import, split into *eager* (module scope, executed at import time)
  and *deferred* (inside a function body, or under an
  ``if TYPE_CHECKING:`` block — these impose no load-order
  constraint).  Importing a submodule also executes its ancestor
  packages' ``__init__``, so eager edges to those ancestors are added
  too (except a module's own ancestors, which are already live when it
  runs);
* a **symbol table + call resolver** — top-level functions, classes
  with their methods, and the import bindings of each module, so a
  call expression can be resolved across module boundaries
  (``helper()``, ``mod.helper()``, ``self.method()``) without running
  any code.

Everything is deterministic: modules iterate in sorted name order and
resolution never consults hashes or filesystem order.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lint.base import FileContext, attribute_chain, make_context

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ImportEdge",
    "ModuleInfo",
    "ProjectContext",
    "build_project",
    "discover_files",
    "module_name_for",
]


# ----------------------------------------------------------------------
# File discovery
# ----------------------------------------------------------------------
def discover_files(paths: Sequence[str]) -> List[Tuple[Path, str, str]]:
    """Expand CLI paths into a deduplicated, ordered list of .py files.

    Returns ``(path, display_path, module_name)`` triples sorted by
    display path; the module name is taken relative to the package
    root above the CLI path that first reached the file (see
    :func:`module_name_for`).
    Duplicate entries (the same file reached twice, e.g. ``src src`` or
    a file plus its parent directory) are listed once; ``__pycache__``
    directories, hidden directories and non-``.py`` files are skipped
    explicitly.  Missing paths raise :class:`FileNotFoundError`.
    """
    roots = [Path(raw) for raw in paths]
    for raw, root in zip(paths, roots):
        if not root.exists():
            raise FileNotFoundError(raw)
    seen: Dict[Path, Tuple[str, str]] = {}
    for root in roots:
        base = root if root.is_dir() else root.parent
        for path in _python_files(root):
            resolved = path.resolve()
            if resolved not in seen:
                seen[resolved] = (str(path), module_name_for(path, base))
    return sorted(
        ((resolved, shown, name) for resolved, (shown, name) in seen.items()),
        key=lambda triple: triple[1],
    )


def _skip_dir(name: str) -> bool:
    return name.startswith(".") or name == "__pycache__"


def _python_files(root: Path) -> Iterator[Path]:
    if root.is_file():
        if root.suffix == ".py":
            yield root
        return
    for path in sorted(root.rglob("*.py")):
        if any(_skip_dir(part) for part in path.parts[:-1]):
            continue
        yield path


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` under the discovery root.

    The name is taken from the root's enclosing package root: while the
    root directory holds an ``__init__.py`` the walk goes up one level,
    so ``src/repro/util/rng.py`` is ``repro.util.rng`` under ``src``,
    ``src/repro/util`` or the file itself, and absolute imports between
    files given as separate subdirectories resolve.  A package
    ``__init__.py`` names the package itself; a file outside any
    package -> its path under the root (its stem when given directly).
    """
    root = root.resolve()
    while (root / "__init__.py").is_file() and root.parent != root:
        root = root.parent
    try:
        rel = path.resolve().relative_to(root)
    except ValueError:
        rel = Path(path.name)
    parts = list(rel.parts)
    if not parts:
        return path.stem
    parts[-1] = Path(parts[-1]).stem
    if parts[-1] == "__init__":
        parts.pop()
    if not parts:
        return path.stem
    return ".".join(parts)


# ----------------------------------------------------------------------
# Symbols
# ----------------------------------------------------------------------
class FunctionInfo:
    """One function or method: where it lives and its AST."""

    __slots__ = ("module", "qualname", "node", "cls")

    def __init__(
        self,
        module: "ModuleInfo",
        qualname: str,
        node: ast.AST,
        cls: Optional[str] = None,
    ) -> None:
        self.module = module
        self.qualname = qualname
        self.node = node
        self.cls = cls

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)

    @property
    def dotted(self) -> str:
        return f"{self.module.name}.{self.qualname}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.dotted})"


class ClassInfo:
    """One class: its methods and (syntactic) base-class names."""

    __slots__ = ("module", "name", "node", "methods", "bases")

    def __init__(
        self, module: "ModuleInfo", name: str, node: ast.ClassDef
    ) -> None:
        self.module = module
        self.name = name
        self.node = node
        self.methods: Dict[str, FunctionInfo] = {}
        self.bases: List[str] = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                self.bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                self.bases.append(base.attr)


class ImportEdge:
    """One resolved project-internal import."""

    __slots__ = ("source", "target", "node", "deferred")

    def __init__(
        self, source: str, target: str, node: ast.stmt, deferred: bool
    ) -> None:
        self.source = source
        self.target = target
        self.node = node
        self.deferred = deferred


#: import-binding kinds: a bound name is either a module alias
#: (``import x.y as z``) or a symbol pulled out of a module
#: (``from m import s``).  ``module`` is the dotted source module,
#: which may or may not be part of the project.
class Binding:
    __slots__ = ("kind", "module", "symbol")

    def __init__(
        self, kind: str, module: str, symbol: Optional[str] = None
    ) -> None:
        self.kind = kind  # "module" | "symbol"
        self.module = module
        self.symbol = symbol


class ModuleInfo:
    """Everything the project rules know about one module."""

    def __init__(self, name: str, ctx: FileContext) -> None:
        self.name = name
        self.ctx = ctx
        #: first component of the repro subpackage path, or None for
        #: fixture files / "" for the package root.
        sub = ctx.subpackage
        self.package: Optional[str] = (
            None if sub is None else (sub[0] if sub else "")
        )
        self.imports: List[ImportEdge] = []
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.bindings: Dict[str, Binding] = {}
        #: module-level ``Name = <annotation-like expr>`` aliases
        #: (``Edge = Tuple[int, int]``), for annotation resolution.
        self.type_aliases: Dict[str, ast.expr] = {}
        self._collect_symbols()

    # -- symbol collection ---------------------------------------------
    def _collect_symbols(self) -> None:
        for stmt in self.ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = FunctionInfo(
                    self, stmt.name, stmt
                )
            elif isinstance(stmt, ast.ClassDef):
                info = ClassInfo(self, stmt.name, stmt)
                for child in stmt.body:
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        info.methods[child.name] = FunctionInfo(
                            self,
                            f"{stmt.name}.{child.name}",
                            child,
                            cls=stmt.name,
                        )
                self.classes[stmt.name] = info
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name) and isinstance(
                    stmt.value, (ast.Subscript, ast.Name, ast.Attribute)
                ):
                    self.type_aliases[target.id] = stmt.value
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.bindings[alias.asname] = Binding(
                            "module", alias.name
                        )
                    else:
                        root = alias.name.split(".")[0]
                        self.bindings[root] = Binding("module", root)
            elif isinstance(node, ast.ImportFrom):
                module = self._absolute_module(node)
                if module is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.bindings[bound] = Binding(
                        "symbol", module, alias.name
                    )

    def _absolute_module(self, node: ast.ImportFrom) -> Optional[str]:
        """Resolve an ImportFrom's source module to a dotted name."""
        if node.level == 0:
            return node.module
        # Relative import: strip ``level`` components off this module's
        # package path (the module's own name counts as one component
        # unless it *is* a package __init__).
        parts = self.name.split(".")
        if not self.ctx.filename == "__init__.py":
            parts = parts[:-1]
        drop = node.level - 1
        if drop > len(parts):
            return None
        base = parts[: len(parts) - drop]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base) if base else None

    # -- convenience ----------------------------------------------------
    def all_functions(self) -> Iterator[FunctionInfo]:
        for name in sorted(self.functions):
            yield self.functions[name]
        for cls_name in sorted(self.classes):
            cls = self.classes[cls_name]
            for meth_name in sorted(cls.methods):
                yield cls.methods[meth_name]


class ProjectContext:
    """The whole-program view: module map + import graph + resolver."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules
        for info in self.sorted_modules():
            self._extract_imports(info)

    def sorted_modules(self) -> List[ModuleInfo]:
        return [self.modules[name] for name in sorted(self.modules)]

    # -- import graph ---------------------------------------------------
    def _extract_imports(self, info: ModuleInfo) -> None:
        self._walk_imports(info, info.ctx.tree.body, deferred=False)

    def _walk_imports(
        self, info: ModuleInfo, body: List[ast.stmt], deferred: bool
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_imports(info, stmt.body, deferred=True)
            elif isinstance(stmt, ast.ClassDef):
                self._walk_imports(info, stmt.body, deferred=deferred)
            elif isinstance(stmt, ast.If):
                branch_deferred = deferred or _is_type_checking(stmt.test)
                self._walk_imports(info, stmt.body, branch_deferred)
                self._walk_imports(info, stmt.orelse, deferred)
            elif isinstance(stmt, (ast.Try,)):
                self._walk_imports(info, stmt.body, deferred)
                for handler in stmt.handlers:
                    self._walk_imports(info, handler.body, deferred)
                self._walk_imports(info, stmt.orelse, deferred)
                self._walk_imports(info, stmt.finalbody, deferred)
            elif isinstance(
                stmt, (ast.With, ast.For, ast.While)
            ):
                self._walk_imports(info, stmt.body, deferred)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    self._add_edges(info, alias.name, stmt, deferred)
            elif isinstance(stmt, ast.ImportFrom):
                module = info._absolute_module(stmt)
                if module is None:
                    continue
                targets = set()
                for alias in stmt.names:
                    sub = f"{module}.{alias.name}"
                    targets.add(sub if sub in self.modules else module)
                for target in sorted(targets):
                    self._add_edges(info, target, stmt, deferred)

    def _add_edges(
        self,
        info: ModuleInfo,
        dotted: str,
        node: ast.stmt,
        deferred: bool,
    ) -> None:
        """Edge to ``dotted`` plus its ancestor package __init__ chain."""
        targets = []
        if dotted in self.modules:
            targets.append(dotted)
        parts = dotted.split(".")
        own = info.name.split(".")
        for i in range(1, len(parts)):
            ancestor = ".".join(parts[:i])
            if ancestor not in self.modules:
                continue
            # A module's own ancestor packages are already (partially)
            # initialized whenever it runs — no new load-order edge.
            if own[: i] == parts[:i]:
                continue
            targets.append(ancestor)
        for target in sorted(set(targets)):
            if target != info.name:
                info.imports.append(
                    ImportEdge(info.name, target, node, deferred)
                )

    def eager_graph(self) -> Dict[str, List[str]]:
        """Module -> sorted eager (import-time) project dependencies."""
        graph: Dict[str, List[str]] = {}
        for info in self.sorted_modules():
            eager = {e.target for e in info.imports if not e.deferred}
            graph[info.name] = sorted(eager)
        return graph

    def import_cycles(self) -> List[List[str]]:
        """Strongly connected components (size > 1) of the eager graph.

        Returned as sorted lists of module names, ordered by their
        smallest member — deterministic regardless of discovery order.
        """
        graph = self.eager_graph()
        index: Dict[str, int] = {}
        lowlink: Dict[str, int] = {}
        on_stack: Dict[str, bool] = {}
        stack: List[str] = []
        counter = [0]
        sccs: List[List[str]] = []

        def strongconnect(v: str) -> None:
            # Iterative Tarjan: (node, iterator position) frames.
            work: List[Tuple[str, int]] = [(v, 0)]
            while work:
                node, i = work.pop()
                if i == 0:
                    index[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack[node] = True
                recurse = False
                succs = graph.get(node, [])
                while i < len(succs):
                    succ = succs[i]
                    i += 1
                    if succ not in index:
                        work.append((node, i))
                        work.append((succ, 0))
                        recurse = True
                        break
                    if on_stack.get(succ):
                        lowlink[node] = min(lowlink[node], index[succ])
                if recurse:
                    continue
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == node:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])

        for name in sorted(graph):
            if name not in index:
                strongconnect(name)
        return sorted(sccs, key=lambda c: c[0])

    # -- call resolution ------------------------------------------------
    def resolve_external(
        self, info: ModuleInfo, func: ast.expr
    ) -> Optional[str]:
        """Dotted name of a call target *outside* the project, if known.

        ``time.time`` via ``import time``; ``sleep`` via
        ``from time import sleep`` -> ``time.sleep``.  Returns ``None``
        for project-internal or unresolvable targets.
        """
        if isinstance(func, ast.Name):
            binding = info.bindings.get(func.id)
            if (
                binding is not None
                and binding.kind == "symbol"
                and binding.module not in self.modules
                and not self._project_prefix(binding.module)
            ):
                return f"{binding.module}.{binding.symbol}"
            return None
        chain = attribute_chain(func)
        if chain is None:
            return None
        root, attrs = chain
        binding = info.bindings.get(root)
        if binding is None or binding.kind != "module":
            return None
        if binding.module in self.modules or self._project_prefix(
            binding.module
        ):
            return None
        return ".".join([binding.module] + attrs)

    def _project_prefix(self, dotted: str) -> bool:
        prefix = dotted.split(".")[0]
        return any(
            name == prefix or name.startswith(prefix + ".")
            for name in self.modules
        )

    def resolve_call(
        self,
        info: ModuleInfo,
        call: ast.Call,
        cls: Optional[ClassInfo] = None,
    ) -> Optional[FunctionInfo]:
        """Resolve a call to a project function/method, if possible."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(info, func.id)
        chain = attribute_chain(func)
        if chain is None:
            return None
        root, attrs = chain
        if root == "self" and cls is not None and len(attrs) == 1:
            return self._resolve_method(info, cls, attrs[0])
        binding = info.bindings.get(root)
        if binding is None:
            return None
        if binding.kind == "symbol":
            sub = f"{binding.module}.{binding.symbol}"
            base = sub if sub in self.modules else None
            if base is None:
                return None
            dotted_parts = [base] + attrs
        else:
            dotted_parts = [binding.module] + attrs
        # Longest module prefix + trailing function name.
        dotted = ".".join(dotted_parts[:-1]) if len(dotted_parts) > 1 else ""
        fn_name = attrs[-1] if attrs else None
        if fn_name is None:
            return None
        joined = ".".join(dotted_parts[:-1])
        target = self.modules.get(joined) if joined else None
        if target is None and dotted:
            return None
        if target is not None:
            return target.functions.get(fn_name) or self._constructor(
                target, fn_name
            )
        return None

    def _resolve_name(
        self, info: ModuleInfo, name: str
    ) -> Optional[FunctionInfo]:
        if name in info.functions:
            return info.functions[name]
        if name in info.classes:
            return self._constructor(info, name)
        binding = info.bindings.get(name)
        if binding is None or binding.kind != "symbol":
            return None
        target = self.modules.get(binding.module)
        if target is None:
            return None
        symbol = binding.symbol or name
        if symbol in target.functions:
            return target.functions[symbol]
        if symbol in target.classes:
            return self._constructor(target, symbol)
        return None

    def _constructor(
        self, where: "ModuleInfo | ClassInfo", name: str
    ) -> Optional[FunctionInfo]:
        classes = (
            where.classes if isinstance(where, ModuleInfo) else None
        )
        if classes is None or name not in classes:
            return None
        return classes[name].methods.get("__init__")

    def _resolve_method(
        self, info: ModuleInfo, cls: ClassInfo, name: str
    ) -> Optional[FunctionInfo]:
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.bases:
            base_cls = info.classes.get(base)
            if base_cls is None:
                resolved = self._resolve_class(info, base)
                base_cls = resolved
            if base_cls is not None and name in base_cls.methods:
                return base_cls.methods[name]
        return None

    def _resolve_class(
        self, info: ModuleInfo, name: str
    ) -> Optional[ClassInfo]:
        binding = info.bindings.get(name)
        if binding is None or binding.kind != "symbol":
            return None
        target = self.modules.get(binding.module)
        if target is None:
            return None
        return target.classes.get(binding.symbol or name)

    def enclosing_class(
        self, info: ModuleInfo, fn: FunctionInfo
    ) -> Optional[ClassInfo]:
        if fn.cls is None:
            return None
        return info.classes.get(fn.cls)

    def resolve_type_alias(
        self, info: ModuleInfo, name: str
    ) -> Optional[Tuple[ModuleInfo, ast.expr]]:
        """Find a module-level ``Name = <type expr>`` alias for ``name``."""
        if name in info.type_aliases:
            return info, info.type_aliases[name]
        binding = info.bindings.get(name)
        if binding is not None and binding.kind == "symbol":
            target = self.modules.get(binding.module)
            symbol = binding.symbol or name
            if target is not None and symbol in target.type_aliases:
                return target, target.type_aliases[symbol]
        return None


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def build_project(
    paths: Sequence[str],
) -> Tuple[ProjectContext, List[Tuple[Path, str, Exception]]]:
    """Parse every file under ``paths`` into a :class:`ProjectContext`.

    Returns ``(project, failures)`` where failures are
    ``(path, display_path, error)`` for files that did not parse (the
    runner reports them as REP000 and analyzes the rest).  Every file
    :func:`discover_files` finds is analyzed: when two share a module
    name (``a/mod.py`` and ``b/mod.py``), the later one in display
    order is keyed ``mod#2``, a name no import resolves to.
    """
    modules: Dict[str, ModuleInfo] = {}
    failures: List[Tuple[Path, str, Exception]] = []
    for path, shown, name in discover_files(paths):
        try:
            ctx = make_context(path, shown)
        except (SyntaxError, ValueError) as exc:
            failures.append((path, shown, exc))
            continue
        key, copy = name, 1
        while key in modules:
            copy += 1
            key = f"{name}#{copy}"
        modules[key] = ModuleInfo(key, ctx)
    return ProjectContext(modules), failures
