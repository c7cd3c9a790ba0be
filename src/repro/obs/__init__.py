"""Observability for the distributed simulator: tracing, metrics, replay.

The paper's claims are *per-round, per-phase* statements — Theorem 2's
``O(t + log n)`` rounds of ``O(log^eps n)``-word messages, Lemma 6's
per-call size recurrence — but a bare protocol run only surfaces
end-of-run aggregates.  This package records where rounds and messages
actually go and makes two runs comparable event by event:

* :mod:`repro.obs.trace` — :class:`TraceRecorder` (structured event
  stream + canonical JSONL) and :class:`Obs`, the bundle every protocol
  entry point accepts via ``obs=``;
* :mod:`repro.obs.metrics` — labelled counter/gauge/histogram registry,
  fed per (protocol, phase) by :meth:`Obs.phase`;
* :mod:`repro.obs.replay` — reconstruct
  :class:`~repro.distributed.simulator.NetworkStats` from a trace,
  summarize it, and diff two traces down to the first divergent
  ``(round, edge, event)``;
* :mod:`repro.obs.profile` — per-phase wall-clock attribution with an
  opt-in sampling timer;
* :mod:`repro.obs.runners` — ``run_traced(protocol, graph, ...)``, the
  uniform driver used by the CLI, the tests and benchmark E21; it reads
  the protocol registry, :mod:`repro.core.protocols`.

See ``docs/observability.md`` for the event schema and the phase
taxonomy of all six protocols.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import PhaseProfiler, PhaseTiming
from repro.obs.replay import (
    PhaseSummary,
    TraceDivergence,
    TraceSummary,
    filter_events,
    first_divergence,
    reconstruct_stats,
    summarize,
)
from repro.obs.runners import run_traced
from repro.obs.trace import (
    Obs,
    TraceRecorder,
    dump_events,
    dumps_events,
    load_events,
    payload_fingerprint,
    phase_scope,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Obs",
    "PhaseProfiler",
    "PhaseSummary",
    "PhaseTiming",
    "TraceDivergence",
    "TraceRecorder",
    "TraceSummary",
    "dump_events",
    "dumps_events",
    "filter_events",
    "first_divergence",
    "load_events",
    "payload_fingerprint",
    "phase_scope",
    "reconstruct_stats",
    "run_traced",
    "summarize",
]
