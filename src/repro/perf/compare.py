"""Baseline comparison: the regression gate behind ``--baseline``.

Reports are joined on ``cell_id`` and compared on the intersection —
a smoke run against a full-matrix baseline simply compares the smoke
cells.  Two failure classes, deliberately distinct:

* **count drift** — rounds / messages / words (or n / m, or a faulty
  row's retransmissions / dropped) differ for the same cell.  The
  workload is deterministic, so this means the *engine changed
  behavior*; no timing threshold excuses it.
* **wall regression** — ``new > old * (1 + threshold)`` AND
  ``new - old > min_wall`` seconds.  The absolute guard keeps tiny
  cells (sub-50ms, where pool scheduling noise dominates the signal)
  from tripping a percentage-only gate.

Timing comparisons are only meaningful between runs on comparable
hardware; count comparisons are meaningful everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["CellDelta", "ComparisonResult", "compare_reports"]

#: a field absent from both rows (clean rows carry no retransmissions
#: or dropped) compares equal.
_COUNT_FIELDS = (
    "n", "m", "rounds", "messages", "words", "retransmissions", "dropped"
)


@dataclass(frozen=True)
class CellDelta:
    """One compared cell: old/new wall time and the verdict."""

    cell_id: str
    old_wall: float
    new_wall: float
    #: "ok", "faster", "regression", or "count-drift"
    verdict: str
    detail: str = ""

    @property
    def ratio(self) -> float:
        return self.new_wall / self.old_wall if self.old_wall > 0 else 1.0


@dataclass
class ComparisonResult:
    """Outcome of comparing a new report against a baseline."""

    deltas: List[CellDelta] = field(default_factory=list)
    only_in_baseline: List[str] = field(default_factory=list)
    only_in_new: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[CellDelta]:
        return [d for d in self.deltas if d.verdict == "regression"]

    @property
    def drifted(self) -> List[CellDelta]:
        return [d for d in self.deltas if d.verdict == "count-drift"]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.drifted and bool(self.deltas)

    def render(self) -> str:
        lines = [
            f"{'cell':40s} {'old(s)':>8s} {'new(s)':>8s} "
            f"{'ratio':>6s}  verdict"
        ]
        for d in self.deltas:
            lines.append(
                f"{d.cell_id:40s} {d.old_wall:8.3f} {d.new_wall:8.3f} "
                f"{d.ratio:5.2f}x  {d.verdict}"
                + (f" ({d.detail})" if d.detail else "")
            )
        if self.only_in_new:
            lines.append(
                f"not in baseline (ignored): {len(self.only_in_new)} cells"
            )
        if self.only_in_baseline:
            lines.append(
                f"not re-run (ignored): {len(self.only_in_baseline)} cells"
            )
        if not self.deltas:
            lines.append(
                "no common cells: baseline and run share no cell ids"
            )
        else:
            lines.append(
                f"{len(self.deltas)} compared, "
                f"{len(self.regressions)} regression(s), "
                f"{len(self.drifted)} count drift(s)"
            )
        return "\n".join(lines)


def _index(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {cell["cell_id"]: cell for cell in report.get("cells", [])}


def compare_reports(
    baseline: Dict[str, Any],
    new: Dict[str, Any],
    threshold: float = 0.2,
    min_wall: float = 0.05,
) -> ComparisonResult:
    """Compare ``new`` against ``baseline`` on their shared cells."""
    old_cells = _index(baseline)
    new_cells = _index(new)
    result = ComparisonResult(
        only_in_baseline=sorted(set(old_cells) - set(new_cells)),
        only_in_new=sorted(set(new_cells) - set(old_cells)),
    )
    for cell_id in sorted(set(old_cells) & set(new_cells)):
        old, cur = old_cells[cell_id], new_cells[cell_id]
        old_wall = float(old["wall_s"])
        new_wall = float(cur["wall_s"])
        drift = [
            f"{name} {old[name]} -> {cur[name]}"
            for name in _COUNT_FIELDS
            if old.get(name) != cur.get(name)
        ]
        if drift:
            verdict, detail = "count-drift", "; ".join(drift)
        elif (
            new_wall > old_wall * (1.0 + threshold)
            and new_wall - old_wall > min_wall
        ):
            verdict = "regression"
            detail = f"+{(new_wall / old_wall - 1.0) * 100:.0f}%"
        elif new_wall < old_wall * (1.0 - threshold):
            verdict, detail = "faster", ""
        else:
            verdict, detail = "ok", ""
        result.deltas.append(
            CellDelta(cell_id, old_wall, new_wall, verdict, detail)
        )
    return result
