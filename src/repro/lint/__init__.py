"""repro-lint: whole-program checker for the repo's protocol invariants.

The paper's guarantees only hold if the implementation plays by the
CONGEST-style rules the simulator assumes.  Each rule encodes one such
invariant with a stable ``REP0xx`` code.  Every run first builds a
whole-program context (module-import graph, symbol tables, call graph —
:mod:`repro.lint.project`) and runs all rules on it:

====== ===================== =============================================
code   name                  invariant
====== ===================== =============================================
REP001 determinism           randomness/clock via ``util/rng.py`` only
REP002 simulation-honesty    nodes talk only through send/recv
REP003 message-discipline    payloads ordered + word-countable
REP004 obs-guard             obs calls behind ``if obs is not None``
REP005 iteration-order       no bare-set iteration where order escapes
REP010 determinism-taint     no helper-call path to clock/entropy/set-order
REP011 layering              imports follow the declared layer DAG
REP012 congest-payload-bound payloads bounded by a constant word count
REP013 asyncio-safety        serving/ coroutines don't block/drop/race
====== ===================== =============================================

Run it as ``python -m repro lint [paths]``; see
``docs/static_analysis.md`` for the full catalog and suppression syntax.
"""

from repro.lint.asyncsafe import AsyncSafetyRule
from repro.lint.base import (
    ALGORITHMIC_PACKAGES,
    FileContext,
    Rule,
    make_context,
)
from repro.lint.congest import CongestPayloadRule
from repro.lint.determinism import DeterminismRule
from repro.lint.diagnostics import (
    Diagnostic,
    Directive,
    Suppressions,
    parse_suppressions,
)
from repro.lint.honesty import HonestyRule
from repro.lint.iteration import IterationOrderRule
from repro.lint.layering import LAYER_DAG, LayeringRule
from repro.lint.messages import MessageDisciplineRule, static_payload_words
from repro.lint.obsguard import ObsGuardRule
from repro.lint.project import ProjectContext, build_project
from repro.lint.runner import RULES, lint_paths, main
from repro.lint.taint import TaintRule

__all__ = [
    "ALGORITHMIC_PACKAGES",
    "AsyncSafetyRule",
    "CongestPayloadRule",
    "Diagnostic",
    "Directive",
    "DeterminismRule",
    "FileContext",
    "HonestyRule",
    "IterationOrderRule",
    "LAYER_DAG",
    "LayeringRule",
    "MessageDisciplineRule",
    "ObsGuardRule",
    "ProjectContext",
    "RULES",
    "Rule",
    "Suppressions",
    "TaintRule",
    "build_project",
    "lint_paths",
    "main",
    "make_context",
    "parse_suppressions",
    "static_payload_words",
]
