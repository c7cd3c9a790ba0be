"""Tests for the observability subsystem (trace / metrics / replay).

The two load-bearing properties:

* **determinism** — a fixed (protocol, graph, seed, fault plan) yields a
  byte-identical JSONL trace on every run;
* **replay exactness** — :func:`repro.obs.reconstruct_stats` rebuilds
  the run's aggregated :class:`NetworkStats` from the trace alone.

Both are asserted for all five protocols, plain and under the reliable
adapter with a lossy fault plan.
"""

from __future__ import annotations

import io

import pytest

from repro.analysis.report import phase_budget_report, render_phase_budget
from repro.core.protocols import PROTOCOLS
from repro.distributed import FaultEvent, FaultPlan
from repro.distributed.faults import DROP
from repro.distributed.simulator import NetworkStats
from repro.graphs import erdos_renyi_gnp
from repro.obs import (
    MetricsRegistry,
    Obs,
    PhaseProfiler,
    TraceRecorder,
    dumps_events,
    filter_events,
    first_divergence,
    load_events,
    payload_fingerprint,
    reconstruct_stats,
    run_traced,
    summarize,
)
from repro.__main__ import main as cli_main


HOST = erdos_renyi_gnp(40, 0.12, seed=3)


def lossy_plan(seed=5):
    return FaultPlan(
        seed=seed, drop_rate=0.08, duplicate_rate=0.03, delay_rate=0.03
    )


def traced_run(protocol, reliable=False, fault_plan=None, **obs_kwargs):
    recorder = TraceRecorder()
    obs = Obs(recorder=recorder, **obs_kwargs)
    result, stats = run_traced(
        protocol, HOST, seed=7, obs=obs,
        reliable=reliable, fault_plan=fault_plan,
    )
    return recorder, result, stats


# ----------------------------------------------------------------------
# Determinism + replay exactness, all five protocols
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("faulty", [False, True], ids=["plain", "faulty"])
def test_trace_deterministic_and_replay_exact(protocol, faulty):
    kwargs = (
        {"reliable": True, "fault_plan": lossy_plan()} if faulty else {}
    )
    rec_a, _, stats_a = traced_run(protocol, **kwargs)
    kwargs = (
        {"reliable": True, "fault_plan": lossy_plan()} if faulty else {}
    )
    rec_b, _, stats_b = traced_run(protocol, **kwargs)

    assert rec_a.dumps() == rec_b.dumps()  # byte-identical JSONL
    assert stats_a == stats_b
    # The trace alone reconstructs the aggregated NetworkStats exactly.
    assert reconstruct_stats(rec_a.events) == stats_a
    if faulty:
        assert stats_a.dropped > 0
        assert stats_a.retransmissions > 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_tracing_does_not_change_results(protocol):
    plain, _ = run_traced(protocol, HOST, seed=7)
    _, traced, _ = traced_run(protocol)

    def edges(result):
        return result.edges if hasattr(result, "edges") else result

    assert edges(plain) == edges(traced)


def test_trace_roundtrips_through_jsonl(tmp_path):
    recorder, _, _ = traced_run("baswana_sen")
    path = tmp_path / "trace.jsonl"
    recorder.dump(str(path))
    loaded = TraceRecorder.load(str(path))
    assert loaded.events == recorder.events
    assert loaded.dumps() == recorder.dumps()
    # file-object variant
    assert load_events(io.StringIO(recorder.dumps())) == recorder.events


def test_payload_fingerprint_is_stable():
    assert payload_fingerprint([("a", 1)]) == payload_fingerprint([("a", 1)])
    assert payload_fingerprint([("a", 1)]) != payload_fingerprint([("a", 2)])


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------
def test_diff_pinpoints_first_divergent_fault():
    """Two runs differing only in the FaultPlan seed diverge at the
    exact first fault the PRFs decide differently."""
    rec_a, _, _ = traced_run(
        "baswana_sen", reliable=True, fault_plan=lossy_plan(seed=1)
    )
    rec_b, _, _ = traced_run(
        "baswana_sen", reliable=True, fault_plan=lossy_plan(seed=2)
    )
    div = first_divergence(rec_a.events, rec_b.events)
    assert div is not None
    # The divergent triple is exact: the event at div.index differs,
    # everything before it agrees.
    assert rec_a.events[: div.index] == rec_b.events[: div.index]
    assert rec_a.events[div.index] == div.event_a
    assert rec_b.events[div.index] == div.event_b
    assert div.event_a != div.event_b
    # Only the fault plan differs, so the first disagreement is an
    # injected fault, with its (round, edge) exposed for the report.
    assert div.event_a["e"] == "fault"
    assert div.round == div.event_a["r"]
    assert div.edge == (div.event_a["src"], div.event_a["dst"])
    assert "first divergence" in div.render()


def test_diff_identical_and_prefix_traces():
    rec, _, _ = traced_run("survey")
    assert first_divergence(rec.events, rec.events) is None
    truncated = rec.events[:-3]
    div = first_divergence(rec.events, truncated)
    assert div is not None
    assert div.index == len(truncated)
    assert div.event_b is None


# ----------------------------------------------------------------------
# Summaries / filtering / report integration
# ----------------------------------------------------------------------
def test_summary_matches_stats():
    recorder, _, stats = traced_run("skeleton")
    summary = summarize(recorder.events)
    assert summary.rounds == stats.rounds
    assert summary.messages == stats.messages
    assert summary.words == stats.total_words
    assert summary.max_message_words == stats.max_message_words
    assert summary.networks == 1
    assert summary.phases  # skeleton marks exchange/converge/... phases
    assert sum(p.rounds for p in summary.phases) == stats.rounds
    rendered = summary.render()
    assert "rounds=" in rendered and "phase" in rendered


def test_filter_events():
    recorder, _, _ = traced_run(
        "baswana_sen", reliable=True, fault_plan=lossy_plan()
    )
    faults = filter_events(recorder.events, kind="fault")
    assert faults and all(e["e"] == "fault" for e in faults)
    round_1 = filter_events(recorder.events, kind="send", round_no=1)
    assert round_1 and all(e["r"] == 1 for e in round_1)
    node = faults[0]["src"]
    touching = filter_events(recorder.events, node=node)
    assert all(
        node in (e.get("src"), e.get("dst"), e.get("node"))
        for e in touching
    )
    assert filter_events(
        recorder.events, kind="send", src=node
    ) == [e for e in recorder.events
          if e["e"] == "send" and e["src"] == node]


def test_phase_budget_report():
    recorder, _, stats = traced_run("baswana_sen")
    rows = phase_budget_report(recorder.events)
    assert [r.phase for r in rows] == ["phase[0]", "phase[1]", "phase[2]"]
    assert all(r.budget == "2" for r in rows)
    assert sum(r.rounds for r in rows) == stats.rounds
    assert abs(sum(r.round_share for r in rows) - 1.0) < 1e-9
    table = render_phase_budget(rows)
    assert "budget/call" in table


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("rounds", protocol="skeleton")
        c.inc()
        c.inc(4)
        assert reg.counter("rounds", protocol="skeleton").value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.counter("x", phase="a").inc(1)
        reg.counter("x", phase="b").inc(2)
        assert reg.counter("x", phase="a").value == 1
        assert reg.counter("x", phase="b").value == 2

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        g = reg.gauge("load")
        g.set(2.5)
        g.add(0.5)
        assert g.value == 3.0
        h = reg.histogram("width")
        for w in (1, 2, 8):
            h.observe(w)
        assert h.count == 3
        assert h.total == 11
        assert (h.min, h.max) == (1, 8)
        assert h.mean == pytest.approx(11 / 3)

    def test_snapshot_and_render(self):
        reg = MetricsRegistry()
        reg.counter("rounds", protocol="p", phase="f").inc(7)
        assert reg.snapshot()["rounds{phase=f,protocol=p}"] == 7
        assert "rounds{phase=f,protocol=p} 7" in reg.render()

    def test_obs_phase_flushes_metrics(self):
        reg = MetricsRegistry()
        recorder, _, stats = traced_run("additive", metrics=reg)
        total = sum(
            metric.value for _, _, _, metric in reg.collect("rounds")
        )
        assert total == stats.rounds
        phases = {
            labels["phase"]
            for _, _, labels, _ in reg.collect("phase_calls")
        }
        assert phases == {"exchange", "trees"}


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
def test_profiler_attributes_time():
    ticks = iter(range(100))
    prof = PhaseProfiler(clock=lambda: next(ticks))
    for _ in range(3):
        token = prof.enter("work")
        prof.exit("work", token)
    timing = prof.timings["work"]
    assert timing.calls == 3 and timing.sampled == 3
    assert timing.seconds == 3  # each enter/exit pair spans one tick
    assert prof.total_seconds() == 3
    assert prof.rows() == [("work", 3, 3.0, 1.0)]
    assert "work" in prof.render()


def test_profiler_sampling_extrapolates():
    ticks = iter(range(1000))
    prof = PhaseProfiler(sample_every=4, clock=lambda: next(ticks))
    for _ in range(8):
        token = prof.enter("p")
        prof.exit("p", token)
    timing = prof.timings["p"]
    assert timing.calls == 8
    assert timing.sampled == 2  # every 4th call is timed
    assert timing.estimated_seconds == timing.seconds * 4


# ----------------------------------------------------------------------
# Bounded fault log (satellite b)
# ----------------------------------------------------------------------
def test_fault_log_is_bounded_with_drop_counter():
    stats = NetworkStats()
    for i in range(10):
        stats.record_fault(FaultEvent(DROP, i, src=0, dst=1), limit=4)
    assert len(stats.fault_events) == 4
    assert stats.fault_events_dropped == 6

    merged = stats.merged_with(stats)
    assert len(merged.fault_events) == 8
    assert merged.fault_events_dropped == 12


def test_fault_log_cap_in_simulation():
    plan = FaultPlan(seed=1, drop_rate=0.3, max_logged_events=5)
    recorder = TraceRecorder()
    _, stats = run_traced(
        "survey", HOST, seed=7, obs=Obs(recorder=recorder), fault_plan=plan
    )
    assert len(stats.fault_events) == 5
    assert stats.fault_events_dropped == stats.dropped - 5
    # The attached recorder keeps full fidelity past the cap...
    faults = filter_events(recorder.events, kind="fault")
    assert len(faults) == stats.dropped
    # ...and replay reproduces the bounded in-memory log exactly.
    assert reconstruct_stats(recorder.events) == stats


# ----------------------------------------------------------------------
# Disabled-tracing guard
# ----------------------------------------------------------------------
def test_disabled_recorder_emits_nothing():
    recorder = TraceRecorder()
    recorder.enabled = False
    obs = Obs(recorder=recorder)
    _, stats = run_traced("baswana_sen", HOST, seed=7, obs=obs)
    assert recorder.events == []
    # Phase bookkeeping still runs (totals live on the Obs, not events).
    assert obs.rounds == stats.rounds


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_record_summary_diff_filter(tmp_path, capsys):
    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    base = ["trace", "record", "--protocol", "baswana_sen",
            "--n", "30", "--seed", "3", "--drop-rate", "0.1",
            "--reliable"]
    assert cli_main(base + [a]) == 0
    assert cli_main(base + [b, "--fault-seed", "9"]) == 0
    capsys.readouterr()

    assert cli_main(["trace", "summary", a]) == 0
    out = capsys.readouterr().out
    assert "rounds=" in out and "phase[0]" in out

    assert cli_main(["trace", "diff", a, a]) == 0
    assert "identical" in capsys.readouterr().out
    assert cli_main(["trace", "diff", a, b]) == 1
    assert "first divergence" in capsys.readouterr().out

    assert cli_main(["trace", "filter", a, "--kind", "fault"]) == 0
    lines = capsys.readouterr().out.splitlines()
    events = load_events(a)
    assert lines == dumps_events(
        filter_events(events, kind="fault")
    ).splitlines()


def test_cli_record_metrics_profile_stdout(tmp_path, capsys):
    out_file = str(tmp_path / "t.jsonl")
    assert cli_main(["trace", "record", out_file, "--protocol", "survey",
                     "--n", "25", "--metrics", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "events ->" in out
    assert "phase_calls{" in out  # metrics render
    assert "est.sec" in out  # profiler render

    assert cli_main(["trace", "record", "-", "--n", "20",
                     "--protocol", "baswana_sen"]) == 0
    out = capsys.readouterr().out
    events = [line for line in out.splitlines() if line.startswith("{")]
    assert events and all('"e":' in line for line in events)


def test_cli_legacy_fig1_still_works(capsys):
    assert cli_main(["40", "0.1", "5"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 1, measured on this host" in out
