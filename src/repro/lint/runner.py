"""repro-lint driver: rule dispatch, suppressions, CLI.

Usage (also reachable as ``python -m repro lint``)::

    python -m repro lint src               # lint a tree, exit 1 on findings
    python -m repro lint --select REP001,REP010 src/repro/core
    python -m repro lint --format json src # machine-readable (CI artifact)
    python -m repro lint --list-rules

Every run builds the whole-program context over ``paths``
(:func:`repro.lint.project.build_project`) and runs the selected rules
on it.  Diagnostics print as ``path:line:col: REPxxx message`` and are
sorted by (path, line, col, code), so output is deterministic and
editor-clickable; ``--format json`` emits one object per diagnostic
instead.  A file that fails to parse yields a single ``REP000``
diagnostic instead of crashing the run.  Inline
``# repro-lint: disable=REPxxx`` comments suppress findings on their
line (see :mod:`repro.lint.diagnostics`);
``--report-unused-suppressions`` flags directives that no longer
suppress anything (code ``REP099``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable, List, Optional, Sequence, TextIO

from repro.lint.asyncsafe import AsyncSafetyRule
from repro.lint.base import Rule
from repro.lint.congest import CongestPayloadRule
from repro.lint.determinism import DeterminismRule
from repro.lint.diagnostics import Diagnostic
from repro.lint.honesty import HonestyRule
from repro.lint.iteration import IterationOrderRule
from repro.lint.layering import LayeringRule
from repro.lint.messages import MessageDisciplineRule
from repro.lint.obsguard import ObsGuardRule
from repro.lint.project import build_project
from repro.lint.taint import TaintRule

__all__ = ["RULES", "lint_paths", "main"]

#: every rule, in code order.
RULES: List[Rule] = [
    DeterminismRule(),
    HonestyRule(),
    MessageDisciplineRule(),
    ObsGuardRule(),
    IterationOrderRule(),
    TaintRule(),
    LayeringRule(),
    CongestPayloadRule(),
    AsyncSafetyRule(),
]

#: pseudo-code for stale ``# repro-lint: disable=`` directives
#: (``--report-unused-suppressions``); not a selectable rule.
UNUSED_SUPPRESSION_CODE = "REP099"


def _select_rules(codes: Optional[Iterable[str]]) -> List[Rule]:
    if codes is None:
        return list(RULES)
    wanted = {c.strip().upper() for c in codes if c.strip()}
    unknown = wanted - {rule.code for rule in RULES}
    if unknown:
        raise ValueError(
            f"unknown rule code(s): {', '.join(sorted(unknown))}"
        )
    return [rule for rule in RULES if rule.code in wanted]


def _parse_failure(shown: str, exc: Exception) -> Diagnostic:
    line = getattr(exc, "lineno", None) or 1
    return Diagnostic(
        path=shown,
        line=line,
        col=1,
        code="REP000",
        message=(
            "file does not parse: "
            f"{exc.msg if isinstance(exc, SyntaxError) else exc}"
        ),
    )


def _dedupe(findings: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Sort by (path, line, col, code) and drop exact re-finds.

    Nested AST visits can re-find the same spot; sorting first makes
    the surviving diagnostic deterministic when messages differ.
    """
    seen: "set[tuple[str, int, int, str]]" = set()
    out: List[Diagnostic] = []
    for diag in sorted(findings):
        anchor = (diag.path, diag.line, diag.col, diag.code)
        if anchor in seen:
            continue
        seen.add(anchor)
        out.append(diag)
    return out


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    report_unused_suppressions: bool = False,
) -> List[Diagnostic]:
    """Lint files/trees; returns sorted, suppression-filtered diagnostics.

    Builds the project context once (module graph, symbol tables, call
    resolver), runs each rule over it (default: all of :data:`RULES`)
    and applies each file's inline suppressions.  With
    ``report_unused_suppressions``, a directive that suppressed nothing
    yields a ``REP099`` finding, unless it names a rule that did not
    run (``all`` names every rule).  Missing paths raise
    :class:`FileNotFoundError`.
    """
    active = list(rules) if rules is not None else list(RULES)
    project, failures = build_project(paths)
    findings = [_parse_failure(shown, exc) for _path, shown, exc in failures]
    suppressions = {
        module.ctx.display_path: module.ctx.suppressions
        for module in project.sorted_modules()
    }
    for rule in active:
        for diag in rule.check(project):
            if not suppressions[diag.path].active(diag.line, diag.code):
                findings.append(diag)

    if report_unused_suppressions:
        # Judge a directive only if its rule ran: a skipped rule (and
        # so ``all``) might have matched it.
        skipped = {rule.code for rule in RULES} - {r.code for r in active}
        for shown, supp in sorted(suppressions.items()):
            for directive in supp.unused_directives():
                if directive.code in skipped or (
                    directive.code == "all" and skipped
                ):
                    continue
                scope = "file-wide " if directive.file_wide else ""
                findings.append(
                    Diagnostic(
                        path=shown,
                        line=directive.line,
                        col=directive.col,
                        code=UNUSED_SUPPRESSION_CODE,
                        message=(
                            f"unused {scope}suppression of "
                            f"{directive.code}: no finding matches this "
                            "directive — remove it"
                        ),
                    )
                )
    return _dedupe(findings)


def _render(
    findings: Sequence[Diagnostic], fmt: str, stream: TextIO
) -> None:
    if fmt == "json":
        payload = [
            {
                "path": d.path,
                "line": d.line,
                "col": d.col,
                "code": d.code,
                "message": d.message,
            }
            for d in findings
        ]
        print(json.dumps(payload, indent=2), file=stream)
        return
    for diag in findings:
        print(diag.render(), file=stream)
    if findings:
        print(f"repro lint: {len(findings)} finding(s)", file=stream)


def main(
    argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None
) -> int:
    """CLI entry point; returns the process exit code (1 on findings)."""
    stream = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Whole-program checker for the repo's protocol invariants "
            "(determinism, simulation honesty, message discipline, obs "
            "guards, iteration order, cross-module taint, layering, "
            "CONGEST payload bounds, asyncio safety). See "
            "docs/static_analysis.md."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json: one object per diagnostic)",
    )
    parser.add_argument(
        "--report-unused-suppressions",
        action="store_true",
        help=(
            "flag repro-lint: disable= comments of the selected rules "
            f"that suppress nothing ({UNUSED_SUPPRESSION_CODE})"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.code} {rule.name}: {rule.summary}", file=stream)
        return 0

    try:
        rules = _select_rules(args.select.split(",") if args.select else None)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    try:
        findings = lint_paths(
            args.paths,
            rules,
            report_unused_suppressions=args.report_unused_suppressions,
        )
    except FileNotFoundError as exc:
        print(f"repro lint: no such path: {exc}", file=sys.stderr)
        return 2
    _render(findings, args.format, stream)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
