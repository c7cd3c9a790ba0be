"""Tests of the benchmark itself: contract, checks, tracing and teardown.

Run with ``python -m pytest perfbench/tests``.  Workloads run as small
instances (smoke hosts, short seed tables) in this process.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import socket
import subprocess
import sys
from multiprocessing import resource_tracker

import pytest

from perfbench import run
from perfbench.cells import Cell
from perfbench.common import ROOT, load_pins, seed_order
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.serve import Serve
from perfbench.workloads import PROTOCOL_WORKLOADS, Sharded, Simulate
from repro.distributed import baswana_sen_protocol
from repro.distributed.sharded import shutdown_workers
from repro.serving.server import QueryService
from repro.spanner.spanner import Spanner


@pytest.fixture(autouse=True)
def _no_leftover_workers():
    yield
    shutdown_workers()


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_pins_match_the_committed_trajectory():
    pins = load_pins()
    with open(os.path.join(ROOT, "BENCH_simulator.json"), encoding="utf-8") as f:
        committed = {row["cell_id"]: row for row in json.load(f)["cells"]}
    shared = sorted(set(pins) & set(committed))
    assert len(shared) >= 12 * 3
    for cell_id in shared:
        for key in ("rounds", "messages", "words"):
            assert pins[cell_id][key] == committed[cell_id][key], cell_id
    det = pins["deterministic/grid/e1/s1"]
    assert (det["rounds"], det["messages"], det["words"]) == (411, 223129, 448314)
    er = pins["baswana_sen/er/e2/s1"]
    row = committed["baswana_sen/er/e2/s1/shards1"]
    assert (er["rounds"], er["messages"]) == (row["rounds"], row["messages"])
    assert (er["rounds"], er["messages"]) == (6, 573963)
    grid = pins["baswana_sen/grid/e2/s1"]
    assert (grid["rounds"], grid["messages"]) == (6, 452527)


def test_every_cell_of_every_run_is_pinned_and_none_repeats():
    pins = load_pins()
    for cls in PROTOCOL_WORKLOADS.values():
        for small in (False, True):
            workload = cls(7, small=small)
            ids = [c.cell_id for cells in workload.passes() for c in cells]
            assert len(ids) == len(set(ids)), cls.name
            assert set(ids) <= set(pins), cls.name


def test_seed_order_starts_at_the_workload_seed():
    assert seed_order(1, 5) == [1, 2, 3, 4, 5]
    assert seed_order(4, 5) == [4, 5, 1, 2, 3]
    assert seed_order(9, 5) == seed_order(4, 5)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_end_to_end_small_instance(name):
    result, details = run.run_workload(name, 3, 0.3, trace=False, small=True)
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == END_TO_END
    assert all(v["value"] > 0 for v in metrics.values())
    assert metrics["ok_frac"]["value"] == 1.0
    assert details["provenance"]["cpus"] >= 1
    # setup_s is the median of fresh-process set-ups, each timed from
    # before the import, which dwarfs a smoke-size set-up.
    probes = details["setup_probes"]
    workload = PROTOCOL_WORKLOADS.get(name, Serve)(3, small=True)
    assert len(probes) == workload.setup_reps
    assert all(p["wall_s"] > details["main_setup_s"] for p in probes)
    assert all(p["factor"] > 0 for p in probes)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_self_check(name):
    result, details = run.run_workload(name, 2, 0.3, trace=True, small=True)
    # The replay repeated every operation with equal counts and outputs.
    assert result["correct"], details["failures"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    with open(details["trace_file"], encoding="utf-8") as f:
        trace = json.load(f)["trace"]
    spans, aggregates = trace["spans"], trace["aggregates"]
    tolerance = 1e-6
    assert all(s["self_s"] >= -tolerance for s in spans)
    assert all(a["self_s"] >= -tolerance for a in aggregates)
    roots = [s for s in spans if s["parent"] < 0]
    assert [s["name"] for s in roots] == ["setup", "run"]
    root_s = sum(s["end"] - s["start"] for s in roots)
    self_s = sum(s["self_s"] for s in spans) + sum(
        a["self_s"] for a in aggregates
    )
    assert self_s == pytest.approx(root_s, abs=1e-5)
    assert sum(details["layer_self_s"].values()) == pytest.approx(
        root_s, abs=1e-5
    )
    cells = [s for s in spans if s["name"] == "cell"]
    if name != "serve":
        assert len(cells) == details["operations"]
        assert all(s["op"] for s in cells)
        inner = [
            s for s in spans
            if s["parent"] >= 0 and spans[s["parent"]]["name"] == "cell"
        ]
        assert inner and all(s["op"] == spans[s["parent"]]["op"] for s in inner)
    assert multiprocessing.active_children() == []


def test_traced_run_attributes_the_expected_layers():
    result, _ = run.run_workload("reliable", 1, 0.3, trace=True, small=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("node.step_s", "simulator.self_s", "reliable.self_s",
                 "driver.baswana_sen_s", "graphs.build_s"):
        assert metrics[name] > 0, name
    assert metrics["reliable.retransmissions"] > 0
    assert 0 < metrics["reliable.goodput_frac"] < 1
    assert metrics["reliable.round_inflation"] > 1
    assert metrics["service.handle_s"] == 0
    result, _ = run.run_workload("serve", 1, 0.3, trace=True, small=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("artifact.build_s", "artifact.load_s", "service.init_s",
                 "service.handle_s", "apps.label_s", "server.io_s"):
        assert metrics[name] > 0, name
    assert metrics["node.steps"] == 0


def test_a_wrong_spanner_edge_fails_its_cell(monkeypatch):
    original = baswana_sen_protocol.distributed_baswana_sen
    injected = []

    def one_extra_edge(graph, k, seed=None, **kwargs):
        spanner = original(graph, k, seed=seed, **kwargs)
        if injected:
            return spanner
        # The first Baswana-Sen cell of the run is er/smoke at seed 1.
        injected.append(graph)
        extra = next(e for e in sorted(graph.edges()) if e not in spanner.edges)
        return Spanner(graph, spanner.edges | {extra}, spanner.metadata)

    monkeypatch.setattr(
        baswana_sen_protocol, "distributed_baswana_sen", one_extra_edge
    )
    result, details = run.run_workload("simulate", 1, 0.0, trace=False, small=True)
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] < 1
    assert result["failed"] == 1
    assert details["failures"][0].startswith("baswana_sen/er/smoke/s1:")
    assert "digest" in details["failures"][0]


def test_a_wrong_query_answer_fails_its_query(monkeypatch):
    original = QueryService.handle_request

    def one_wrong_answer(self, request):
        response = original(self, request)
        if request.get("id") == 7:
            response = dict(response, value="wrong")
        return response

    monkeypatch.setattr(QueryService, "handle_request", one_wrong_answer)
    result, details = run.run_workload("serve", 1, 0.3, trace=False, small=True)
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] < 1
    assert result["failed"] == 1
    assert details["failures"][0].startswith("query 7:")


def test_no_worker_outlives_a_sharded_run_that_fails_partway(monkeypatch):
    workload = Sharded(1, small=True)
    calls = []
    original = Sharded.execute

    def fail_on_second_cell(self, cell, graph):
        calls.append(cell.cell_id)
        if len(calls) == 2:
            assert multiprocessing.active_children()  # the pool is up
            raise RuntimeError("injected failure")
        return original(self, cell, graph)

    monkeypatch.setattr(Sharded, "execute", fail_on_second_cell)
    with pytest.raises(RuntimeError, match="injected failure"):
        run.run_end_to_end(workload, 10.0)
    assert len(calls) == 2
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_the_server_closes_when_a_serve_run_fails_partway(monkeypatch):
    workload = Serve(1, small=True)
    seen = {}

    def fail_after_setup(seconds, replay=None, tracer=None, clock=None):
        seen["address"] = workload.server.address
        raise RuntimeError("injected failure")

    monkeypatch.setattr(workload, "measure", fail_after_setup)
    with pytest.raises(RuntimeError, match="injected failure"):
        run.run_end_to_end(workload, 1.0)
    assert workload.loop is None and workload.server is None
    with pytest.raises(OSError):
        socket.create_connection(seen["address"], timeout=2).close()


def test_simulate_default_seed_starts_with_the_committed_rows():
    first = Simulate(1).passes()[0]
    assert [c.cell_id for c in first][:3] == [
        "skeleton/er/e1/s1", "skeleton/grid/e1/s1", "skeleton/hypercube/e1/s1"
    ]
    assert Cell("baswana_sen", "er", "e2", 1, 1001).cell_id == (
        "baswana_sen/er/e2/s1"
    )


def test_command_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    spec = _spec()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
