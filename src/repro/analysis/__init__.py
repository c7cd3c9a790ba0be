"""The X^t_p recurrence, paper-style tables and the phase-budget report.

The closed-form bounds live in :mod:`repro.core.theory`.
"""

from repro.analysis.xtp import (
    monte_carlo_vertex_contribution,
    x_tp,
    x_tp_closed_form,
)
from repro.analysis.tables import format_table
from repro.analysis.report import (
    PhaseBudgetRow,
    phase_budget_report,
    render_phase_budget,
)

__all__ = [
    "monte_carlo_vertex_contribution",
    "x_tp",
    "x_tp_closed_form",
    "format_table",
    "PhaseBudgetRow",
    "phase_budget_report",
    "render_phase_budget",
]
