"""Benchmark harness for the distributed simulator (``repro bench``).

Measures wall-clock performance of the simulator hot path across a
canonical workload matrix (protocol x host family x scale x seed),
fans the cells across a process pool, and emits a ``BENCH_*.json``
report that later runs compare against (``--baseline``), so the
repository carries a performance *trajectory* alongside its
correctness record.  See ``docs/performance.md``.
"""

from __future__ import annotations

from repro.perf.bench import CellResult, run_cell, run_service_cell
from repro.perf.compare import ComparisonResult, compare_reports
from repro.perf.runner import run_matrix
from repro.perf.workloads import (
    BENCH_PROTOCOLS,
    ReliableCell,
    SCALES,
    SEEDS,
    SERVICE_MIXES,
    ServiceCell,
    WorkloadCell,
    full_matrix,
    service_matrix,
    smoke_matrix,
)

__all__ = [
    "BENCH_PROTOCOLS",
    "CellResult",
    "ComparisonResult",
    "ReliableCell",
    "SCALES",
    "SEEDS",
    "SERVICE_MIXES",
    "ServiceCell",
    "WorkloadCell",
    "compare_reports",
    "full_matrix",
    "run_cell",
    "run_matrix",
    "run_service_cell",
    "service_matrix",
    "smoke_matrix",
]
