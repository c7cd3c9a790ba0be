"""REP011 — architecture layering: the declared import DAG of repro.

The repo's correctness story is layered: ``util`` (RNG plumbing, word
accounting) sits at the bottom with no internal dependencies, the
sequential ``core`` and the ``distributed`` protocols build on it, and
operational tiers (``serving``, ``perf``, ``fuzz``, ``churn``) sit on
top.  A ``core`` module importing ``serving`` — or an import-time cycle
between packages — would mean the paper's algorithm layer depends on
the machinery that is supposed to *measure* it, and would make the
strict-typing / lint gates impossible to order.

:data:`LAYER_DAG` is the contract: for each ``repro`` subpackage, the
set of subpackages its *module-level* imports may target.  Function-
local imports (and ``if TYPE_CHECKING:`` blocks) are deliberately
exempt — they are the sanctioned escape hatch for late binding (e.g.
``perf`` loading ``serving`` workloads on demand), because they impose
no import-time ordering constraint.  The rule also runs Tarjan's SCC
over the eager import graph and reports every genuine import-time
cycle, package-internal ones included.

The DAG is documented as the repo's import-architecture contract in
``docs/static_analysis.md``; changing it is an API-design decision,
not a lint tweak.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Optional, Set, Tuple

from repro.lint.base import Rule
from repro.lint.diagnostics import Diagnostic
from repro.lint.project import ModuleInfo, ProjectContext

__all__ = ["LAYER_DAG", "LayeringRule"]

#: package -> subpackages its module-level imports may target.  Keep
#: alphabetical by key; the bottom of the stack has the empty tuple.
LAYER_DAG: Dict[str, Tuple[str, ...]] = {
    "analysis": (
        "baselines",
        "core",
        "distributed",
        "graphs",
        "obs",
        "spanner",
        "util",
    ),
    "applications": ("distributed", "graphs", "obs", "spanner", "util"),
    "baselines": ("graphs", "spanner", "util"),
    "churn": ("distributed", "graphs", "obs", "spanner", "util"),
    "core": ("graphs", "spanner", "util"),
    "distributed": ("core", "graphs", "obs", "spanner", "util"),
    "fuzz": (
        "analysis",
        "baselines",
        "churn",
        "core",
        "distributed",
        "graphs",
        "obs",
        "spanner",
        "util",
    ),
    "graphs": ("util",),
    "lint": ("util",),
    "obs": ("graphs", "util"),
    "perf": (
        "churn",
        "distributed",
        "graphs",
        "obs",
        "serving",
        "spanner",
        "util",
    ),
    "serving": ("applications", "core", "graphs", "obs", "spanner", "util"),
    "spanner": ("graphs", "util"),
    "util": (),
}


def _package_of(module: ModuleInfo) -> Optional[str]:
    """The repro subpackage a module belongs to, for layering purposes.

    ``None`` for modules outside any ``repro`` tree (loose fixture
    files) and for the package apex (``repro/__init__``,
    ``repro/__main__``) — the apex wires the tiers together and may
    import any of them.
    """
    if module.package is None or module.package == "":
        return None
    return module.package


class LayeringRule(Rule):
    code = "REP011"
    name = "layering"
    summary = (
        "module-level imports must follow the declared layer DAG "
        "(util/core at the bottom, serving/perf/fuzz/churn on top) and "
        "the eager import graph must be acyclic"
    )

    def check(self, project: ProjectContext) -> Iterator[Diagnostic]:
        yield from super().check(project)
        yield from self._check_cycles(project)

    def check_module(
        self, project: ProjectContext, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        package = _package_of(module)
        if package is None:
            return
        allowed: Optional[FrozenSet[str]] = (
            frozenset(LAYER_DAG[package]) if package in LAYER_DAG else None
        )
        seen: Set[Tuple[int, str]] = set()
        for edge in module.imports:
            if edge.deferred:
                continue  # fn-local / TYPE_CHECKING: sanctioned late binding
            target = project.modules.get(edge.target)
            if target is None:
                continue
            target_pkg = _package_of(target)
            if target_pkg is None or target_pkg == package:
                continue
            anchor = (edge.node.lineno, target_pkg)
            if anchor in seen:
                continue
            seen.add(anchor)
            if allowed is None:
                yield self.diag(
                    module.ctx,
                    edge.node,
                    f"package '{package}' has no declared layer in "
                    "LAYER_DAG but imports "
                    f"'{target_pkg}' at module level; add it to the "
                    "layer contract in repro/lint/layering.py",
                )
            elif target_pkg not in allowed:
                allowed_list = ", ".join(LAYER_DAG[package]) or "(nothing)"
                yield self.diag(
                    module.ctx,
                    edge.node,
                    f"layer violation: '{package}' must not import "
                    f"'{target_pkg}' at module level "
                    f"(allowed: {allowed_list}); use a function-local "
                    "import if late binding is genuinely needed",
                )

    def _check_cycles(
        self, project: ProjectContext
    ) -> Iterator[Diagnostic]:
        for cycle in project.import_cycles():
            members = set(cycle)
            first = project.modules[cycle[0]]
            anchor: ast.AST = first.ctx.tree
            for edge in first.imports:
                if not edge.deferred and edge.target in members:
                    anchor = edge.node
                    break
            yield self.diag(
                first.ctx,
                anchor,
                "import-time cycle: " + " -> ".join(cycle + [cycle[0]]) +
                "; break it by deferring one import into a function "
                "body",
            )
