"""REP001 — determinism: all randomness flows through ``repro.util.rng``.

The paper's protocols rely on *shared randomness*: every processor
derives identical sampling decisions from a common seed, with zero
communication spent on coin flips (Sect. 2.1, Sect. 4.1; see
``util/rng.py``).  The sequential/distributed cross-validation tests and
the byte-identical trace guarantee (PR 2) both assume it.  A single
``random.random()`` or ``time.time()`` call in the algorithmic core
silently breaks every one of those properties, so this rule bans them
statically in ``core/``, ``distributed/``, ``graphs/`` and ``spanner/``:

* any call ``random.<fn>(...)`` (including seeded ``random.Random(s)`` —
  construct generators via :func:`repro.util.rng.ensure_rng` /
  :func:`repro.util.rng.spawn_rng` so seeding policy lives in one place);
* ``from random import ...`` in any form;
* wall-clock reads ``time.time()`` / ``time.time_ns()`` (round counting
  is the model's only clock; ``perf_counter`` is allowed for profiling);
* OS entropy: ``os.urandom(...)``, ``secrets.*``, ``uuid.uuid1()`` /
  ``uuid.uuid4()``;
* ``numpy.random`` calls, except explicitly seeded ``default_rng(seed)``
  / ``RandomState(seed)`` / ``SeedSequence(seed)`` constructions.

:func:`source_advice` is the one definition of a nondeterminism source:
REP001 applies it to direct calls, REP010 (:mod:`repro.lint.taint`) to
calls that reach a source through helpers in other modules.

Type annotations such as ``rng: random.Random`` are *not* calls and are
deliberately permitted.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.base import ALGORITHMIC_PACKAGES, FileContext, Rule
from repro.lint.diagnostics import Diagnostic
from repro.lint.project import ModuleInfo, ProjectContext

__all__ = ["DeterminismRule", "source_advice"]

#: numpy.random entry points that are fine *when given a seed argument*.
_SEEDED_CONSTRUCTORS = frozenset(
    {"default_rng", "RandomState", "SeedSequence", "Generator"}
)
_BANNED_TIME = frozenset({"time", "time_ns"})
#: uuid constructors that draw OS entropy or read the clock.
_UUID_DRAWS = frozenset({"uuid.uuid1", "uuid.uuid4"})


def source_advice(dotted: str, call: ast.Call) -> Optional[str]:
    """REP001's message if calling ``dotted`` is a nondeterminism source.

    ``dotted`` is the external call target after alias resolution
    (``time.time``, ``numpy.random.rand``); ``call`` supplies the
    arguments that make a numpy constructor seeded.  Returns ``None``
    for every call that is not a source.
    """
    if dotted.startswith("random."):
        return (
            f"call to {dotted}(); use repro.util.rng "
            "(ensure_rng/make_prf/spawn_rng) so every draw is seeded "
            "and replayable"
        )
    if dotted in ("time.time", "time.time_ns"):
        return (
            f"wall-clock read {dotted}(); synchronous rounds are the "
            "model's only clock (use the round counter, or "
            "perf_counter in obs/ profiling code)"
        )
    if dotted == "os.urandom":
        return (
            "os.urandom() draws OS entropy; derive bytes from the run "
            "seed via repro.util.rng instead"
        )
    if dotted.startswith("secrets.") or dotted in _UUID_DRAWS:
        return (
            f"{dotted}() draws OS entropy; derive tokens and ids from "
            "the run seed via repro.util.rng instead"
        )
    if dotted.startswith("numpy.random."):
        fn = dotted.rsplit(".", 1)[1]
        if fn in _SEEDED_CONSTRUCTORS and (call.args or call.keywords):
            return None
        return (
            f"unseeded numpy.random call {dotted}(); construct an "
            "explicitly seeded generator (numpy.random.default_rng("
            "seed)) with a seed threaded from repro.util.rng"
        )
    return None


class DeterminismRule(Rule):
    code = "REP001"
    name = "determinism"
    summary = (
        "randomness and wall-clock reads in the algorithmic core must go "
        "through repro.util.rng (shared-randomness model, Sect. 2.1/4.1)"
    )

    def applies(self, module: ModuleInfo) -> bool:
        return module.ctx.in_packages(ALGORITHMIC_PACKAGES)

    def check_module(
        self, project: ProjectContext, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        ctx = module.ctx
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                yield from self._check_import_from(ctx, node)
            elif isinstance(node, ast.Call):
                dotted = project.resolve_external(module, node.func)
                advice = source_advice(dotted, node) if dotted else None
                if advice is not None:
                    yield self.diag(ctx, node, advice)

    def _check_import_from(
        self, ctx: FileContext, node: ast.ImportFrom
    ) -> Iterator[Diagnostic]:
        module = node.module or ""
        if module == "random" or module.startswith("random."):
            yield self.diag(
                ctx,
                node,
                "import from the stdlib random module; route randomness "
                "through repro.util.rng (ensure_rng/make_prf/spawn_rng)",
            )
        elif module == "numpy.random":
            yield self.diag(
                ctx,
                node,
                "import from numpy.random; use an explicitly seeded "
                "generator threaded from repro.util.rng",
            )
        elif module == "time":
            names = {alias.name for alias in node.names}
            if names & _BANNED_TIME:
                yield self.diag(
                    ctx,
                    node,
                    "wall-clock import (time.time/time_ns); rounds are the "
                    "model's only clock",
                )
        elif module == "os":
            names = {alias.name for alias in node.names}
            if "urandom" in names:
                yield self.diag(
                    ctx,
                    node,
                    "os.urandom import; entropy must come from the run seed "
                    "via repro.util.rng",
                )
