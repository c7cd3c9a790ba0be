"""Tests for the benchmark harness (repro.perf / `python -m repro bench`)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.perf import (
    ReliableCell,
    WorkloadCell,
    compare_reports,
    full_matrix,
    run_cell,
    run_matrix,
    smoke_matrix,
)
from repro.perf.bench import run_sharded_cell
from repro.perf.cli import build_report, main as bench_main
from repro.perf.runner import default_jobs
from repro.perf.workloads import ShardedCell, sharded_matrix

SRC = Path(__file__).resolve().parent.parent / "src"


class TestWorkloadMatrix:
    def test_cell_ids_unique(self):
        ids = [cell.cell_id for cell in full_matrix()]
        assert len(ids) == len(set(ids))

    def test_smoke_is_subset_of_full(self):
        # CI smoke runs must always find their cells in a committed
        # full-matrix baseline.
        full_ids = {cell.cell_id for cell in full_matrix()}
        for cell in smoke_matrix():
            assert cell.cell_id in full_ids
        assert len(smoke_matrix()) < len(full_matrix())

    def test_matrix_sizes(self):
        # 4 protocols x 3 hosts x 3 seeds of clean cells per scale, plus
        # Baswana-Sen over the reliable layer on every host and seed.
        full, smoke = full_matrix(), smoke_matrix()
        assert len(full) == 90 and len(smoke) == 45
        faulty = [c for c in full if c.fault_plan() is not None]
        assert len(faulty) == 18
        assert {
            (c.protocol, c.graph_kind, c.scale, c.seed) for c in faulty
        } == {
            ("baswana_sen", kind, scale, seed)
            for kind in ("er", "grid", "hypercube")
            for scale in ("smoke", "e1")
            for seed in (1, 2, 3)
        }
        assert all(isinstance(c, ReliableCell) for c in faulty)
        assert all(c.cell_id.endswith("/reliable") for c in faulty)
        assert sum(isinstance(c, ReliableCell) for c in smoke) == 9

    def test_reliable_plan_seeded_from_the_cell(self):
        cell = ReliableCell("baswana_sen", "er", "smoke", 1)
        a, b = cell.fault_plan(), cell.fault_plan()
        assert a is not None and b is not None
        assert (a.drop_rate, a.duplicate_rate, a.delay_rate) == (
            0.05, 0.02, 0.02
        )
        assert a.max_delay == 2
        assert not a.has_crashes and not a.has_reorders
        coords = [(r, 0, 1, 0) for r in range(1, 40)]
        assert [a.decide(*c) for c in coords] == [b.decide(*c) for c in coords]
        other = ReliableCell("baswana_sen", "er", "smoke", 2).fault_plan()
        assert other is not None
        assert [a.decide(*c) for c in coords] != [
            other.decide(*c) for c in coords
        ]

    def test_graphs_deterministic_per_cell(self):
        for cell in smoke_matrix()[:3]:
            a, b = cell.build_graph(), cell.build_graph()
            assert a.n == b.n and a.m == b.m
            assert sorted(a.edges()) == sorted(b.edges())

    def test_unknown_graph_kind_rejected(self):
        bad = WorkloadCell("skeleton", "torus", "smoke", 1)
        with pytest.raises(ValueError, match="torus"):
            bad.build_graph()


def _tiny_cell() -> WorkloadCell:
    return WorkloadCell("baswana_sen", "grid", "smoke", 1)


class TestRunCell:
    def test_counts_stable_and_fields_present(self):
        first = run_cell(_tiny_cell(), reps=1)
        second = run_cell(_tiny_cell(), reps=2)
        for name in ("rounds", "messages", "words", "n", "m"):
            assert first[name] == second[name]
        assert first["wall_s"] > 0
        assert first["peak_rss_kb"] > 0
        assert first["cell_id"] == "baswana_sen/grid/smoke/s1"

    def test_reps_must_be_positive(self):
        with pytest.raises(ValueError):
            run_cell(_tiny_cell(), reps=0)

    def test_reliable_cell_records_fault_counts(self):
        clean = run_cell(_tiny_cell(), reps=1)
        row = run_cell(ReliableCell("baswana_sen", "grid", "smoke", 1), reps=2)
        assert row["cell_id"] == "baswana_sen/grid/smoke/s1/reliable"
        assert row["retransmissions"] > 0 and row["dropped"] > 0
        assert row["messages"] > clean["messages"]
        assert "retransmissions" not in clean and "dropped" not in clean


class TestRunMatrix:
    def test_inline_results_in_matrix_order(self):
        cells = [
            WorkloadCell("baswana_sen", "grid", "smoke", seed)
            for seed in (1, 2)
        ]
        results = run_matrix(cells, jobs=1, reps=1)
        assert [r["cell_id"] for r in results] == [c.cell_id for c in cells]

    def test_parallel_pool_matches_inline_counts(self):
        cells = [
            WorkloadCell("baswana_sen", kind, "smoke", 1)
            for kind in ("er", "grid", "hypercube")
        ]
        inline = run_matrix(cells, jobs=1, reps=1)
        pooled = run_matrix(cells, jobs=2, reps=1)
        for a, b in zip(inline, pooled):
            assert a["cell_id"] == b["cell_id"]
            for name in ("rounds", "messages", "words"):
                assert a[name] == b[name]

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs /proc"
    )
    def test_row_peak_is_the_cells_own(self):
        """A pooled single-process row's peak RSS belongs to its cell: a
        buffer the caller touched and freed before the pool spawned
        does not show in it (``ru_maxrss`` would carry it over)."""
        buffer_kb = 64 << 10
        script = (
            "from repro.perf.runner import run_matrix\n"
            "from repro.perf.workloads import WorkloadCell\n"
            "cells = [\n"
            "    WorkloadCell('baswana_sen', 'grid', 'smoke', seed)\n"
            "    for seed in (1, 2)\n"
            "]\n"
            "def peak():\n"
            "    rows = run_matrix(cells, jobs=2, reps=1)\n"
            "    return max(row['peak_rss_kb'] for row in rows)\n"
            "before = peak()\n"
            f"buffer = b'x' * ({buffer_kb} << 10)\n"
            "del buffer\n"
            "print(before, peak())\n"
        )
        # -B: the stripped env drops PYTHONDONTWRITEBYTECODE; spawned
        # children inherit the flag, so no .pyc lands in src/.
        result = subprocess.run(
            [sys.executable, "-B", "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        before, after = map(int, result.stdout.split())
        assert before > 0
        assert after - before < buffer_kb // 2

    def test_inline_rows_carry_no_peak(self):
        """In-process rows cannot each have a peak of their own: after a
        reliable e1 cell, this process's running peak is that cell's,
        and a smoke cell run next would report it.  Such rows carry no
        peak; the spawn pool gives each row its own."""
        cells = [
            ReliableCell("baswana_sen", "er", "e1", 1),
            WorkloadCell("baswana_sen", "grid", "smoke", 1),
        ]
        inline = run_matrix(cells, jobs=1, reps=1)
        assert [row.get("peak_rss_kb") for row in inline] == [None, None]
        big, small = (
            row["peak_rss_kb"] for row in run_matrix(cells, jobs=2, reps=1)
        )
        assert 0 < small < big


class TestDefaultJobs:
    def test_respects_scheduling_affinity(self, monkeypatch):
        """Regression: a cgroup/taskset-limited runner must size the
        pool by the affinity mask, not the installed CPU count."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        assert default_jobs() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_jobs() == 5

    def test_never_below_one(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_jobs() == 1


class TestShardedMatrix:
    def test_cell_ids_unique_and_disjoint_from_simulator(self):
        shard_ids = [cell.cell_id for cell in sharded_matrix()]
        assert len(shard_ids) == len(set(shard_ids))
        assert not set(shard_ids) & {c.cell_id for c in full_matrix()}

    def test_e2_scale_is_baswana_sen_on_every_host(self):
        e2 = [c for c in sharded_matrix() if c.scale == "e2"]
        assert {(c.protocol, c.graph_kind, c.shards) for c in e2} == {
            ("baswana_sen", kind, shards)
            for kind in ("er", "grid", "hypercube")
            for shards in (1, 2, 4)
        }
        assert len(e2) == 9

    def test_counts_match_single_process_row(self):
        """The count-drift gate contract: a sharded cell's counts equal
        the single-process counts for the identical workload."""
        base = run_cell(_tiny_cell(), reps=1)
        sharded = run_sharded_cell(
            ShardedCell("baswana_sen", "grid", "smoke", 1, shards=2), reps=1
        )
        for name in ("rounds", "messages", "words", "n", "m"):
            assert sharded[name] == base[name]
        assert sharded["shards"] == 2
        assert sharded["cell_id"] == "baswana_sen/grid/smoke/s1/shards2"
        assert sharded["peak_rss_kb"] > 0

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs /proc"
    )
    def test_row_peak_is_the_cells_own(self):
        """A sharded row's peak RSS belongs to its cell: a buffer the
        caller touched and freed before the cell does not show in it."""
        buffer_kb = 64 << 10
        script = (
            "from repro.perf.bench import run_sharded_cell\n"
            "from repro.perf.workloads import ShardedCell\n"
            "cell = ShardedCell('baswana_sen', 'grid', 'smoke', 1, 2)\n"
            "before = run_sharded_cell(cell, reps=1)['peak_rss_kb']\n"
            f"buffer = b'x' * ({buffer_kb} << 10)\n"
            "del buffer\n"
            "after = run_sharded_cell(cell, reps=1)['peak_rss_kb']\n"
            "print(before, after)\n"
        )
        # -B: the stripped env drops PYTHONDONTWRITEBYTECODE; spawned
        # children inherit the flag, so no .pyc lands in src/.
        result = subprocess.run(
            [sys.executable, "-B", "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        before, after = map(int, result.stdout.split())
        assert before > 0
        assert after - before < buffer_kb // 2


def _report(cells):
    return {"schema": 1, "kind": "BENCH_simulator", "cells": cells}


def _cell(cell_id="p/g/s/s1", wall=1.0, rounds=10, messages=100, words=200):
    return {
        "cell_id": cell_id,
        "n": 50,
        "m": 100,
        "rounds": rounds,
        "messages": messages,
        "words": words,
        "wall_s": wall,
    }


class TestCompare:
    def test_identical_reports_ok(self):
        report = _report([_cell()])
        result = compare_reports(report, report)
        assert result.ok
        assert result.deltas[0].verdict == "ok"

    def test_wall_regression_flagged(self):
        result = compare_reports(
            _report([_cell(wall=1.0)]), _report([_cell(wall=1.5)])
        )
        assert not result.ok
        assert result.regressions[0].detail == "+50%"

    def test_small_absolute_regressions_tolerated(self):
        # 3x slower but only 20ms: under min_wall, scheduling noise.
        result = compare_reports(
            _report([_cell(wall=0.010)]), _report([_cell(wall=0.030)])
        )
        assert result.ok

    def test_count_drift_is_hard_failure_even_when_faster(self):
        result = compare_reports(
            _report([_cell(wall=1.0, rounds=10)]),
            _report([_cell(wall=0.1, rounds=11)]),
        )
        assert not result.ok
        assert result.drifted[0].verdict == "count-drift"
        assert "rounds 10 -> 11" in result.drifted[0].detail

    def test_fault_count_drift_is_hard_failure(self):
        old = dict(_cell(), retransmissions=30, dropped=20)
        new = dict(_cell(), retransmissions=30, dropped=21)
        result = compare_reports(_report([old]), _report([new]))
        assert not result.ok
        assert "dropped 20 -> 21" in result.drifted[0].detail

    def test_faster_cells_reported_as_faster(self):
        result = compare_reports(
            _report([_cell(wall=1.0)]), _report([_cell(wall=0.4)])
        )
        assert result.ok
        assert result.deltas[0].verdict == "faster"

    def test_disjoint_reports_not_ok(self):
        result = compare_reports(
            _report([_cell("a/b/c/s1")]), _report([_cell("x/y/z/s1")])
        )
        assert not result.ok
        assert result.only_in_baseline == ["a/b/c/s1"]
        assert result.only_in_new == ["x/y/z/s1"]

    def test_comparison_restricted_to_intersection(self):
        base = _report([_cell("a/b/c/s1"), _cell("a/b/c/s2", wall=9.0)])
        new = _report([_cell("a/b/c/s1")])
        result = compare_reports(base, new)
        assert result.ok
        assert [d.cell_id for d in result.deltas] == ["a/b/c/s1"]


class TestCli:
    def test_list_prints_matrix(self, capsys):
        assert bench_main(["--list", "--smoke"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == [cell.cell_id for cell in smoke_matrix()]

    def test_report_roundtrip_and_self_baseline(self, tmp_path, monkeypatch):
        # Shrink the smoke matrix so the CLI test stays fast.
        import repro.perf.cli as cli

        cells = [_tiny_cell()]
        monkeypatch.setattr(cli, "smoke_matrix", lambda: cells)
        out = tmp_path / "BENCH_test.json"
        assert bench_main(
            ["--smoke", "--jobs", "1", "--reps", "1", "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "BENCH_simulator"
        assert report["matrix"] == "smoke"
        assert [c["cell_id"] for c in report["cells"]] == [
            cells[0].cell_id
        ]
        # Same file as baseline and out: read-before-write, identical
        # counts, exit 0.
        assert bench_main(
            [
                "--smoke", "--jobs", "1", "--reps", "1",
                "--out", str(out), "--baseline", str(out),
            ]
        ) == 0

    def test_baseline_count_drift_exits_nonzero(self, tmp_path, monkeypatch):
        import repro.perf.cli as cli

        cells = [_tiny_cell()]
        monkeypatch.setattr(cli, "smoke_matrix", lambda: cells)
        out = tmp_path / "BENCH_test.json"
        assert bench_main(
            ["--smoke", "--jobs", "1", "--reps", "1", "--out", str(out)]
        ) == 0
        report = json.loads(out.read_text())
        report["cells"][0]["messages"] += 1
        baseline = tmp_path / "BENCH_drift.json"
        baseline.write_text(json.dumps(report))
        assert bench_main(
            [
                "--smoke", "--jobs", "1", "--reps", "1",
                "--baseline", str(baseline),
            ]
        ) == 1

    def test_report_metadata(self):
        report = build_report([_cell()], matrix="full", reps=3)
        assert report["schema"] == 1
        assert report["matrix"] == "full"
        assert report["reps"] == 3
        assert report["cpus"] == default_jobs()
        assert report["cpu_model"]
        assert report["python"]
        assert report["recorded"]
