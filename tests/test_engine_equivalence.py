"""The observation-neutrality oracle: observed run == bare run.

``Network.run`` is one round loop whose observability hooks each sit
behind an ``obs is not None`` check.  The contract is that observing a
run is *indistinguishable* from not observing it: identical protocol
outputs and identical :class:`NetworkStats` on every workload.  These
tests pin that contract across every protocol — attaching a tracer must
change nothing but the trace, with or without a fault plan — and that
fault-plan runs replay byte-identically.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.core.protocols import PROTOCOLS
from repro.distributed import FaultPlan
from repro.graphs import erdos_renyi_gnp
from repro.obs import Obs, TraceRecorder, run_traced


def _host() -> Any:
    return erdos_renyi_gnp(60, 0.1, seed=7)


def _normalize(protocol: str, result: Any) -> Any:
    """Map a protocol result to a comparable value."""
    if protocol == "survey":
        return result  # the `known` edge map: plain comparable dict
    return sorted(result.edges)


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestFastPathEquivalence:
    def test_clean_run_matches_instrumented_run(self, protocol):
        """obs=None == obs=TraceRecorder."""
        fast_result, fast_stats = run_traced(
            protocol, _host(), seed=11, obs=None
        )
        obs = Obs(recorder=TraceRecorder())
        slow_result, slow_stats = run_traced(
            protocol, _host(), seed=11, obs=obs
        )
        assert fast_stats == slow_stats
        assert _normalize(protocol, fast_result) == _normalize(
            protocol, slow_result
        )

    def test_faulty_run_is_obs_neutral(self, protocol):
        """With a fault plan attached, an observer must still not
        perturb outcomes."""
        plan = FaultPlan(
            seed=5, drop_rate=0.05, delay_rate=0.05, reorder_rate=0.1
        )
        bare_result, bare_stats = run_traced(
            protocol, _host(), seed=11, obs=None, fault_plan=plan
        )
        obs = Obs(recorder=TraceRecorder())
        seen_result, seen_stats = run_traced(
            protocol, _host(), seed=11, obs=obs, fault_plan=plan
        )
        assert bare_stats == seen_stats
        assert _normalize(protocol, bare_result) == _normalize(
            protocol, seen_result
        )

    def test_faulty_trace_replays_byte_identically(self, protocol):
        traces = []
        for _ in range(2):
            recorder = TraceRecorder()
            run_traced(
                protocol,
                _host(),
                seed=11,
                obs=Obs(recorder=recorder),
                fault_plan=FaultPlan(seed=5, drop_rate=0.1, delay_rate=0.1),
            )
            traces.append(recorder.dumps())
        assert traces[0] == traces[1]
