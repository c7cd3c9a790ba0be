"""``python -m repro bench`` — run the matrix, write BENCH_*.json, gate.

Typical invocations::

    python -m repro bench --out BENCH_simulator.json          # full matrix
    python -m repro bench --smoke --baseline BENCH_simulator.json \\
                          --out BENCH_smoke.json              # CI gate
    python -m repro bench --list                              # show cells

The baseline (if given) is read *before* the new report is written, so
``--baseline X --out X`` safely compares against the previous contents
of ``X`` and then replaces it — the natural way to maintain a rolling
trajectory file.  Exit status is 1 when the comparison finds a wall
regression, a count drift, or no common cells at all.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.perf.bench import CellResult
from repro.perf.compare import compare_reports
from repro.perf.runner import default_jobs, run_matrix
from repro.perf.workloads import (
    SHARD_COUNTS,
    churn_matrix,
    full_matrix,
    service_matrix,
    sharded_matrix,
    smoke_matrix,
)

__all__ = ["build_report", "main"]

_SCHEMA = 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description=(
            "Benchmark the simulator hot path across the canonical "
            "workload matrix (see docs/performance.md)."
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the small CI matrix instead of the full one",
    )
    parser.add_argument(
        "--churn",
        action="store_true",
        help="run the churn workload matrix instead of the simulator "
             "one (separate BENCH_churn.json trajectory)",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="run the serving-tier workload matrix (query latency over "
             "an in-process server; separate BENCH_service.json "
             "trajectory)",
    )
    parser.add_argument(
        "--sharded",
        action="store_true",
        help="run the sharded-engine scaling matrix (ShardedNetwork at "
             "each shard count; cells join BENCH_simulator.json). "
             "Forces --jobs 1: shard workers are child processes the "
             "daemonic bench pool cannot spawn",
    )
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="shard counts for --sharded "
             f"(default: {' '.join(map(str, SHARD_COUNTS))})",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSON report here ('-' for stdout)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=f"worker processes (default: cpu count = {default_jobs()}); "
             "1 runs the cells in this process, and their rows carry no "
             "peak RSS",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=2,
        metavar="N",
        help="repetitions per cell; best wall time is kept (default 2)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="compare against this BENCH_*.json; exit 1 on regression",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        metavar="F",
        help="relative wall-time regression threshold (default 0.2)",
    )
    parser.add_argument(
        "--min-wall",
        type=float,
        default=0.05,
        metavar="S",
        help="absolute seconds a cell must regress by (default 0.05)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_cells",
        help="print the matrix cell ids and exit",
    )
    return parser


def _cpu_model() -> str:
    """The CPU model name from ``/proc/cpuinfo``, else the platform's."""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build_report(
    results: List[CellResult],
    matrix: str,
    reps: int,
    kind: str = "BENCH_simulator",
) -> Dict[str, Any]:
    """Assemble the serializable report around measured cells.

    The header records the hardware that produced the wall times:
    ``cpus`` is the CPU budget the default ``--jobs`` uses (the
    scheduling affinity count), ``cpu_model`` the processor.
    """
    return {
        "schema": _SCHEMA,
        "kind": kind,
        "matrix": matrix,
        "reps": reps,
        "cpus": default_jobs(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "cells": results,
    }


def _render_cells(results: List[CellResult]) -> str:
    lines = [
        f"{'cell':40s} {'wall(s)':>8s} {'rounds/s':>9s} "
        f"{'msgs/s':>10s} {'rss(MB)':>8s}"
    ]
    for cell in results:
        # --jobs 1 rows carry no peak of their own (see run_matrix).
        peak = cell.get("peak_rss_kb")
        rss = "-" if peak is None else f"{peak / 1024:.1f}"
        lines.append(
            f"{cell['cell_id']:40s} {cell['wall_s']:8.3f} "
            f"{cell['rounds_per_s']:9.0f} {cell['messages_per_s']:10.0f} "
            f"{rss:>8s}"
        )
    total = sum(cell["wall_s"] for cell in results)
    lines.append(f"{len(results)} cells, total wall {total:.3f}s")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if sum((args.churn, args.service, args.sharded)) > 1:
        parser.error(
            "--churn, --service and --sharded are mutually exclusive"
        )
    if args.shards is not None and not args.sharded:
        parser.error("--shards requires --sharded")
    cells: List[Any]
    if args.churn:
        cells = churn_matrix(("smoke",) if args.smoke else ("smoke", "e1"))
    elif args.service:
        cells = service_matrix(("smoke",) if args.smoke else ("smoke", "e1"))
    elif args.sharded:
        shard_counts = tuple(args.shards) if args.shards else SHARD_COUNTS
        if any(count < 1 for count in shard_counts):
            parser.error("--shards values must be >= 1")
        cells = sharded_matrix(
            ("smoke",) if args.smoke else ("smoke", "e2"),
            shards=shard_counts,
        )
        if args.jobs is not None and args.jobs != 1:
            print(
                "--sharded forces --jobs 1 (shard workers are child "
                "processes the daemonic bench pool cannot spawn)",
                file=sys.stderr,
            )
        args.jobs = 1
    else:
        cells = smoke_matrix() if args.smoke else full_matrix()
    if args.list_cells:
        for cell in cells:
            print(cell.cell_id)
        return 0

    # Read the baseline up front: --out may point at the same file.
    baseline: Optional[Dict[str, Any]] = None
    if args.baseline is not None:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)

    results = run_matrix(cells, jobs=args.jobs, reps=args.reps)
    if args.churn:
        kind = "BENCH_churn"
    elif args.service:
        kind = "BENCH_service"
    else:
        # Sharded cells share the simulator trajectory: counts are
        # engine-invariant, so they gate against the same baseline file.
        kind = "BENCH_simulator"
    matrix = "smoke" if args.smoke else "full"
    if args.sharded:
        matrix = f"sharded-{matrix}"
    report = build_report(
        results,
        matrix=matrix,
        reps=args.reps,
        kind=kind,
    )
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        print(_render_cells(results))
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload)
            print(f"report -> {args.out}")

    if baseline is None:
        return 0
    comparison = compare_reports(
        baseline, report, threshold=args.threshold, min_wall=args.min_wall
    )
    print()
    print(f"baseline: {args.baseline}")
    print(comparison.render())
    return 0 if comparison.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
