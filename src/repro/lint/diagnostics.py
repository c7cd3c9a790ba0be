"""Diagnostics and inline suppressions for the repro-lint analyzer.

A :class:`Diagnostic` is one finding: a stable rule code (``REP0xx``),
a ``file:line:col`` anchor and a human-readable message.  Diagnostics
sort by location so output is deterministic regardless of rule order.

Suppressions are inline comments on the offending line::

    for v in self.children:  # repro-lint: disable=REP005

Multiple codes are comma-separated (``disable=REP001,REP005``) and the
special code ``all`` silences every rule on that line.  A
``disable-file=`` comment anywhere in the file suppresses the listed
codes for the whole file (used sparingly, e.g. in fixtures).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set

__all__ = ["Diagnostic", "Directive", "Suppressions", "parse_suppressions"]

#: the literal every directive holds; a source without it has none.
_MARKER = "repro-lint"

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<filewide>-file)?\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One static-analysis finding, sortable by location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True, order=True)
class Directive:
    """One parsed suppression directive: where it sits and what it names.

    ``line``/``col`` anchor the comment; ``code`` is a single rule code
    (a comma-separated comment yields one Directive per code);
    ``file_wide`` marks ``disable-file=`` directives, which apply to
    the whole file rather than their own line.
    """

    line: int
    col: int
    code: str
    file_wide: bool


class Suppressions:
    """Per-line and file-wide ``# repro-lint: disable=...`` directives.

    Tracks which directives actually suppressed something, so the
    runner can report stale ones (``--report-unused-suppressions``).
    """

    def __init__(
        self,
        by_line: Mapping[int, FrozenSet[str]],
        file_wide: FrozenSet[str] = frozenset(),
        directives: Optional[Sequence[Directive]] = None,
    ) -> None:
        self._by_line = dict(by_line)
        self._file_wide = file_wide
        self.directives: List[Directive] = (
            sorted(directives) if directives is not None else []
        )
        self._used: Set[Directive] = set()

    def active(self, line: int, code: str) -> bool:
        """Whether ``code`` is suppressed at ``line`` (marks uses)."""
        codes = self._by_line.get(line, frozenset()) | self._file_wide
        hit = "all" in codes or code in codes
        if hit:
            for directive in self.directives:
                if directive.code not in ("all", code):
                    continue
                if directive.file_wide or directive.line == line:
                    self._used.add(directive)
        return hit

    def unused_directives(self) -> List[Directive]:
        """Directives that never suppressed a finding, sorted by location."""
        return [d for d in self.directives if d not in self._used]


def parse_suppressions(source: str) -> Suppressions:
    """Extract suppression directives from ``source``'s comments.

    Uses the tokenizer (not a per-line regex) so ``#`` characters inside
    string literals can never masquerade as directives.  A directive
    applies to the physical line its comment sits on.  Every directive
    holds the literal ``repro-lint``, so a file without it (most files)
    is never tokenized.
    """
    if _MARKER not in source:
        return Suppressions({})
    by_line: Dict[int, FrozenSet[str]] = {}
    file_wide: FrozenSet[str] = frozenset()
    directives: List[Directive] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            codes = frozenset(
                c.strip() for c in match.group("codes").split(",") if c.strip()
            )
            line, col = tok.start
            for code in sorted(codes):
                directives.append(
                    Directive(
                        line=line,
                        col=col + 1,
                        code=code,
                        file_wide=bool(match.group("filewide")),
                    )
                )
            if match.group("filewide"):
                file_wide = file_wide | codes
            else:
                by_line[line] = by_line.get(line, frozenset()) | codes
    except tokenize.TokenError:
        # Unterminated constructs: the AST parse will report the real
        # problem; treat the file as having no suppressions.
        pass
    return Suppressions(by_line, file_wide, directives)
