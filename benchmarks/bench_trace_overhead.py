"""E21 — what observability costs: tracing/metrics overhead per protocol.

The acceptance bar for the obs subsystem: with tracing *disabled* the
simulator must run the pre-observability code path (one ``obs is None``
check per hot-path branch — target <= 2% round-loop slowdown, i.e.
within noise here), and even *full* tracing should stay a small constant
factor.  This bench times all five protocols under three settings:

* ``off``      — ``obs=None``: the default, untouched hot path;
* ``metrics``  — :class:`Obs` with a metrics registry + profiler but no
  recorder: per-phase aggregation only;
* ``trace``    — full :class:`TraceRecorder` event capture.

Invariance check: the protocol output is identical across all three
(observation never perturbs the run).
"""

from __future__ import annotations

import time

from repro.analysis.tables import format_table
from repro.core.protocols import PROTOCOLS
from repro.graphs import erdos_renyi_gnp
from repro.obs import (
    MetricsRegistry,
    Obs,
    PhaseProfiler,
    TraceRecorder,
    run_traced,
)

REPEATS = 3


def _edges(result):
    return result.edges if hasattr(result, "edges") else result


def _time_run(protocol, graph, obs_factory):
    best = float("inf")
    result = events = None
    for _ in range(REPEATS):
        obs = obs_factory()
        t0 = time.perf_counter()
        result, _ = run_traced(protocol, graph, seed=7, obs=obs)
        best = min(best, time.perf_counter() - t0)
        if obs is not None and obs.recorder is not None:
            events = len(obs.recorder)
    return best, _edges(result), events


def _sweep(graph):
    rows = []
    for protocol in PROTOCOLS:
        t_off, out_off, _ = _time_run(protocol, graph, lambda: None)
        t_met, out_met, _ = _time_run(
            protocol, graph,
            lambda: Obs(metrics=MetricsRegistry(),
                        profiler=PhaseProfiler()),
        )
        t_full, out_full, events = _time_run(
            protocol, graph, lambda: Obs(recorder=TraceRecorder())
        )
        # Observation never perturbs the run.
        assert out_off == out_met == out_full
        rows.append(
            (
                protocol,
                f"{1e3 * t_off:.1f}",
                f"{1e3 * t_met:.1f}",
                f"{t_met / t_off:.2f}x",
                f"{1e3 * t_full:.1f}",
                f"{t_full / t_off:.2f}x",
                events,
            )
        )
    return rows


HEADERS = ["protocol", "off ms", "metrics ms", "x off",
           "trace ms", "x off", "events"]


def test_trace_overhead(benchmark, report):
    graph = erdos_renyi_gnp(120, 0.06, seed=4)
    rows = benchmark.pedantic(
        lambda: _sweep(graph), rounds=1, iterations=1
    )
    report(
        "E21 / observability overhead (five protocols)",
        format_table(
            HEADERS, rows,
            title="G(120, 0.06), best of 3; 'off' is the obs=None path",
        ),
    )
    # Full tracing stays a small constant factor on every protocol.
    assert all(float(r[5].rstrip("x")) < 3.0 for r in rows)
