"""Shared infrastructure for repro-lint rules.

Every rule runs over the whole-program context, and most are scoped by
where a file lives inside the ``repro`` package (the paper's
correctness arguments only constrain the algorithmic core, not e.g.
``analysis/`` plotting code).  Files *outside* any ``repro`` package —
the unit-test fixtures — are treated as in-scope for every rule, so
fixtures exercise rules without having to fake a package layout.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import TYPE_CHECKING, FrozenSet, Iterator, List, Optional, Tuple

from repro.lint.diagnostics import Diagnostic, Suppressions, parse_suppressions

if TYPE_CHECKING:
    from repro.lint.project import ModuleInfo, ProjectContext

__all__ = [
    "ALGORITHMIC_PACKAGES",
    "FileContext",
    "Rule",
    "attribute_chain",
    "make_context",
]

#: subpackages whose code the paper's guarantees constrain (REP001/REP005
#: scope): the sequential core, the protocols, the graph layer and the
#: spanner layer.  ``util/`` hosts the sanctioned RNG plumbing and
#: ``analysis``/``baselines``/``obs`` are off the simulated network.
#: ``perf/`` is included so the benchmark harness can never introduce
#: unseeded randomness or wall-clock reads other than ``perf_counter``
#: into its workload construction — benchmark cells must replay exactly.
#: ``fuzz/`` is included for the same reason: a fuzzer whose case
#: streams or shrinker are not bit-reproducible cannot emit trustworthy
#: reproducers.  ``churn/`` joins because its byte-identical replay
#: contract (same stream, same repair trajectory) is load-bearing for
#: the rebuild-equivalence oracle.  ``serving/`` joins because both of
#: its determinism contracts — byte-identical artifact bundles and
#: replayable loadgen streams / cache-hit counts — break the moment
#: unseeded randomness or a wall-clock read sneaks in.
ALGORITHMIC_PACKAGES = frozenset(
    {
        "core",
        "distributed",
        "graphs",
        "spanner",
        "perf",
        "fuzz",
        "churn",
        "serving",
    }
)


class FileContext:
    """Everything a rule needs to check one parsed file."""

    def __init__(
        self,
        path: Path,
        display_path: str,
        source: str,
        tree: ast.Module,
        suppressions: Suppressions,
    ) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree = tree
        self.suppressions = suppressions
        self.filename = path.name
        self.subpackage = _subpackage_of(path)

    def in_packages(self, names: FrozenSet[str]) -> bool:
        """Whether this file sits under one of the given repro subpackages.

        Files outside any ``repro`` package (``subpackage is None``) are
        fixture files and count as in-scope everywhere.
        """
        if self.subpackage is None:
            return True
        return bool(self.subpackage) and self.subpackage[0] in names

    @property
    def is_protocol_file(self) -> bool:
        """Protocol node-program modules (``*_protocol.py``) — REP002 scope."""
        return self.filename.endswith("_protocol.py")


def _subpackage_of(path: Path) -> Optional[Tuple[str, ...]]:
    """Path components between the ``repro`` package root and the file.

    ``.../src/repro/distributed/foo.py`` -> ``("distributed",)``;
    ``.../src/repro/__init__.py`` -> ``()``; a path with no ``repro``
    component (test fixtures in tmp dirs) -> ``None``.
    """
    parts = path.parts[:-1]
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return tuple(parts[index + 1:])
    return None


def make_context(path: Path, display_path: Optional[str] = None) -> FileContext:
    """Read + parse ``path`` into a :class:`FileContext`.

    Raises :class:`SyntaxError` if the file does not parse; the runner
    turns that into a ``REP000`` diagnostic.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return FileContext(
        path=path,
        display_path=display_path or str(path),
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source),
    )


class Rule:
    """One lint rule: a stable code plus a check over the whole program.

    Every rule sees the full :class:`~repro.lint.project.ProjectContext`
    (module graph, symbol tables, call resolver) and anchors each
    diagnostic in whichever module it convicts.  Most rules judge one
    module at a time: they say which modules they cover in
    :meth:`applies` and check each in :meth:`check_module`.  A rule
    that needs the whole graph at once overrides :meth:`check`.
    """

    code: str = "REP000"
    name: str = ""
    #: one-line summary for ``--list-rules`` and the docs catalog.
    summary: str = ""

    def applies(self, module: "ModuleInfo") -> bool:
        return True

    def check(self, project: "ProjectContext") -> Iterator[Diagnostic]:
        for module in project.sorted_modules():
            if self.applies(module):
                yield from self.check_module(project, module)

    def check_module(
        self, project: "ProjectContext", module: "ModuleInfo"
    ) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diag(self, ctx: FileContext, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


def attribute_chain(node: ast.expr) -> Optional[Tuple[str, List[str]]]:
    """Decompose ``a.b.c`` into ``("a", ["b", "c"])``.

    Returns ``None`` when the chain is not rooted at a plain name
    (e.g. ``f().x`` or ``d[k].x``).
    """
    attrs: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        attrs.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        return current.id, list(reversed(attrs))
    return None
