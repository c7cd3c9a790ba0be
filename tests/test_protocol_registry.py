"""The protocol registry is the one place a protocol's parameters resolve.

``run_traced``, the fuzzer's runs and oracles, and the analytic budgets
each read :mod:`repro.core.protocols`; these tests check that they all
resolve the same parameters, by spying on each driver where the
registry looks it up: on its defining module.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib

import pytest

from repro.core.protocols import PROTOCOLS, protocol_spec
from repro.core.theory import (
    fibonacci_size_bound,
    protocol_size_budget,
    protocol_stretch_budget,
)
from repro.distributed import survey_protocol
from repro.distributed.simulator import NetworkStats
from repro.fuzz import FuzzCase, case_stream, check_case
from repro.fuzz.runner import CaseExecution
from repro.graphs import erdos_renyi_gnp, path
from repro.graphs.properties import bfs_distances
from repro.obs import run_traced
from repro.perf.workloads import BENCH_PROTOCOLS

HOST = erdos_renyi_gnp(30, 0.2, seed=5)


def spy_driver(monkeypatch, protocol):
    """Wrap ``protocol``'s driver on its module; returns the call log."""
    module_name, _, name = protocol_spec(protocol).driver.partition(":")
    module = importlib.import_module(module_name)
    original = getattr(module, name)
    calls = []

    def spy(graph, **kwargs):
        calls.append(kwargs)
        return original(graph, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def resolved_part(spec, kwargs):
    """The spec's parameters among a driver call's kwargs, with types."""
    return {
        p.name: (kwargs[p.name], type(kwargs[p.name])) for p in spec.params
    }


def with_types(params):
    return {k: (v, type(v)) for k, v in params.items()}


def sampled_case(protocol):
    cases = case_stream(7, 4, protocols=[protocol], fault_fraction=0.0)
    return min(cases, key=lambda c: c.n)


def test_bench_protocols_are_registered():
    assert set(BENCH_PROTOCOLS) <= set(PROTOCOLS)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_run_traced_passes_the_resolved_parameters(protocol, monkeypatch):
    spec = protocol_spec(protocol)
    calls = spy_driver(monkeypatch, protocol)
    run_traced(protocol, HOST, seed=1)
    sampled = sampled_case(protocol).params
    run_traced(protocol, HOST, seed=1, **sampled)
    assert [resolved_part(spec, kw) for kw in calls] == [
        with_types(spec.resolve({})),
        with_types(spec.resolve(sampled)),
    ]
    assert all(("seed" in kw) == spec.seeded for kw in calls)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fuzz_runs_pass_the_resolved_parameters(protocol, monkeypatch):
    spec = protocol_spec(protocol)
    case = sampled_case(protocol)
    calls = spy_driver(monkeypatch, protocol)
    CaseExecution(case).clean()
    CaseExecution(dataclasses.replace(case, params={})).clean()
    assert [resolved_part(spec, kw) for kw in calls] == [
        with_types(spec.resolve(case.params)),
        with_types(spec.resolve({})),
    ]
    if spec.seeded:
        assert all(kw["seed"] == case.protocol_seed for kw in calls)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_budgets_default_to_the_resolved_parameters(protocol):
    spec = protocol_spec(protocol)
    defaults = spec.resolve({})
    if not spec.spanner:
        with pytest.raises(ValueError):
            protocol_size_budget(protocol, 60)
        with pytest.raises(ValueError):
            protocol_stretch_budget(protocol, 60)
        return
    assert protocol_size_budget(protocol, 60) == protocol_size_budget(
        protocol, 60, **defaults
    )
    assert protocol_stretch_budget(protocol, 60) == protocol_stretch_budget(
        protocol, 60, **defaults
    )


def test_survey_coverage_is_checked_at_the_radius_the_run_used(
    monkeypatch,
):
    # A fake survey that knows exactly the edges the oracle demands at
    # radius r passes a check at r and fails one at r + 1; knowing one
    # hop less fails a check at r.  Both together pin the checked
    # radius to the run's.
    radii = []

    def exact(graph, radius, **kwargs):
        radii.append(radius)
        known = {}
        for v in graph.vertices():
            near = bfs_distances(graph, v, cutoff=radius - 1)
            known[v] = {
                (u, w)
                for u in near
                for w in graph.neighbors(u)
                if w in near and u < w
            }
        return known, NetworkStats()

    host = path(12)
    case = FuzzCase(
        case_id=0,
        protocol="survey",
        graph_kind="explicit",
        n=host.n,
        density=0.0,
        graph_seed=0,
        protocol_seed=1,
        params={},
        vertices=tuple(sorted(host.vertices())),
        edges=tuple(sorted(host.edges())),
    )
    monkeypatch.setattr(survey_protocol, "neighborhood_survey", exact)
    assert check_case(case, oracles=("connectivity",)) == []
    monkeypatch.setattr(
        survey_protocol,
        "neighborhood_survey",
        lambda graph, radius, **kw: exact(graph, radius - 1),
    )
    failures = check_case(case, oracles=("connectivity",))
    assert [f.oracle for f in failures] == ["connectivity"]
    run_radius = protocol_spec("survey").resolve({})["radius"]
    assert radii == [run_radius, run_radius - 1]


def test_run_traced_honours_the_fibonacci_order():
    spanner, _ = run_traced("fibonacci", HOST, seed=1, order=3)
    assert spanner.metadata["order"] == 3


def test_fibonacci_size_budget_uses_the_runs_ell():
    # At eps = 0.7 the run rounds ell = ceil(3o/eps) + 2 up to 11; the
    # budget must use that ell, not the unrounded 10.571.
    host = erdos_renyi_gnp(600, 0.02, seed=1001)
    spanner, _ = run_traced("fibonacci", host, seed=1, eps=0.7)
    budget = protocol_size_budget("fibonacci", host.n, eps=0.7)
    assert spanner.metadata["ell"] == 11
    assert budget == fibonacci_size_bound(host.n, 2, spanner.metadata["ell"])
    assert round(budget) == 144980


class TestCollectorPolicy:
    """A registry run pauses automatic cyclic collection for the whole
    driver call and hands the caller its own setting back."""

    @pytest.fixture(autouse=True)
    def _keep_the_collector_setting(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @staticmethod
    def fake_driver(monkeypatch, protocol, driver):
        """Replace ``protocol``'s driver on its module."""
        module_name, _, name = protocol_spec(protocol).driver.partition(":")
        monkeypatch.setattr(importlib.import_module(module_name), name, driver)

    def test_collector_is_off_inside_a_run(self, monkeypatch):
        seen = []
        self.fake_driver(
            monkeypatch,
            "baswana_sen",
            lambda graph, **kwargs: seen.append(gc.isenabled()),
        )
        gc.enable()
        protocol_spec("baswana_sen").run(HOST, seed=1)
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_callers_setting_is_restored(self, monkeypatch, enabled):
        self.fake_driver(monkeypatch, "baswana_sen", lambda graph, **kw: None)
        (gc.enable if enabled else gc.disable)()
        protocol_spec("baswana_sen").run(HOST, seed=1)
        assert gc.isenabled() is enabled

    def test_the_setting_is_restored_when_the_driver_raises(
        self, monkeypatch
    ):
        def broken(graph, **kwargs):
            raise RuntimeError("driver failed")

        self.fake_driver(monkeypatch, "baswana_sen", broken)
        gc.enable()
        with pytest.raises(RuntimeError, match="driver failed"):
            protocol_spec("baswana_sen").run(HOST, seed=1)
        assert gc.isenabled()

    def test_a_nested_run_leaves_the_restore_to_the_outermost(
        self, monkeypatch
    ):
        seen = []

        def outer(graph, **kwargs):
            protocol_spec("survey").run(graph)
            seen.append(("outer", gc.isenabled()))

        self.fake_driver(
            monkeypatch,
            "survey",
            lambda graph, **kw: seen.append(("inner", gc.isenabled())),
        )
        self.fake_driver(monkeypatch, "baswana_sen", outer)
        gc.enable()
        protocol_spec("baswana_sen").run(HOST, seed=1)
        assert seen == [("inner", False), ("outer", False)]
        assert gc.isenabled()

    def test_a_run_triggers_no_collection(self):
        # Large enough that a run with the collector on collects.
        host = erdos_renyi_gnp(200, 0.05, seed=5)
        generations = []

        def meter(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.enable()
        gc.callbacks.append(meter)
        try:
            run_traced("skeleton", host, seed=1)
        finally:
            gc.callbacks.remove(meter)
        assert generations == []
