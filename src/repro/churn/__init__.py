"""Self-healing spanners under edge churn (ROADMAP: dynamic scenarios).

The paper's related-work section (Sect. 1.4) surveys fully-dynamic
spanner maintenance; :mod:`repro.baselines.streaming` carries the
classical one-pass girth-rule baseline.  This package maintains that
rule's spanner under churn:

* :mod:`repro.churn.events` — a deterministic, seeded update stream of
  edge insertions/deletions and node crash/recover events, applied in
  batches;
* :mod:`repro.churn.maintainer` — :class:`IncrementalSpanner`, the
  incrementally maintained (2k-1)-spanner with region-limited repair
  (re-offering only edges near the damage) and both fail-pause and
  amnesia crash-recovery semantics;
* :mod:`repro.churn.policy` — :class:`RepairPolicy`, the
  repair-vs-rebuild decision (cost budget, degradation patience);
* :mod:`repro.churn.engine` — :func:`run_churn`, the batch driver that
  grades the maintained object with
  :func:`repro.spanner.verification.classify_outcome` after every batch
  and emits per-batch repair metrics;
* :mod:`repro.churn.repair_protocol` — the distributed repair handshake
  an amnesia-crashed node uses to re-learn its incident spanner edges
  from its neighbors, run over the reliable-delivery layer;
* :mod:`repro.churn.oracle` — the rebuild-equivalence oracle battery
  the differential fuzzer applies to churn cases.

See ``docs/robustness.md`` for the fault model and the grading contract.
"""

from repro.churn.engine import BatchReport, ChurnResult, run_churn, spanner_baseline
from repro.churn.events import UpdateEvent, churn_stream, events_from_json, events_to_json
from repro.churn.maintainer import IncrementalSpanner, RepairStats
from repro.churn.oracle import CHURN_ORACLE_NAMES, check_churn
from repro.churn.policy import RepairPolicy
from repro.churn.repair_protocol import RepairSurveyProgram, repair_handshake

__all__ = [
    "BatchReport",
    "CHURN_ORACLE_NAMES",
    "ChurnResult",
    "IncrementalSpanner",
    "RepairPolicy",
    "RepairStats",
    "RepairSurveyProgram",
    "UpdateEvent",
    "check_churn",
    "churn_stream",
    "events_from_json",
    "events_to_json",
    "repair_handshake",
    "run_churn",
    "spanner_baseline",
]
