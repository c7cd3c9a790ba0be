"""Fanning the workload matrix across a process pool.

Cells are independent deterministic computations, so they parallelize
embarrassingly.  Two choices matter for measurement quality:

* ``maxtasksperchild=1`` — each cell runs in a *fresh* worker process,
  so its ``peak_rss_kb`` reflects that cell alone rather than the
  high-water mark of whichever cells the worker saw earlier;
* results are returned in matrix order (``Pool.map`` preserves input
  order) regardless of completion order, so reports are stable.

``jobs=1`` bypasses ``multiprocessing`` entirely and runs in-process —
used by the unit tests (no fork needed) and available for debugging
(``--jobs 1`` keeps tracebacks readable).  Cells run in one process
cannot each have a peak of their own (``VmHWM`` only rises), so those
rows carry no ``peak_rss_kb``; a sharded row keeps its own, measured
in the child process its cell runs in.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Optional, Sequence, Tuple, Union

from repro.perf.bench import (
    CellResult,
    run_cell,
    run_churn_cell,
    run_service_cell,
    run_sharded_cell,
)
from repro.perf.workloads import (
    ChurnCell,
    ServiceCell,
    ShardedCell,
    WorkloadCell,
)

__all__ = ["default_jobs", "run_matrix"]

_AnyCell = Union[WorkloadCell, ChurnCell, ServiceCell, ShardedCell]


def default_jobs() -> int:
    """Worker count default: the CPUs actually *available* (min 1).

    ``os.cpu_count()`` reports installed CPUs, which oversubscribes the
    pool under cgroup/taskset limits (CI runners, containers) and skews
    wall-clock numbers; the scheduling affinity mask is the real budget
    where the platform exposes it.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # non-Linux platforms
        return max(1, os.cpu_count() or 1)


def _bench_worker(task: Tuple[_AnyCell, int]) -> CellResult:
    """Module-level worker so it pickles under the spawn start method."""
    cell, reps = task
    if isinstance(cell, ChurnCell):
        return run_churn_cell(cell, reps=reps)
    if isinstance(cell, ServiceCell):
        return run_service_cell(cell, reps=reps)
    if isinstance(cell, ShardedCell):
        # Only reachable at jobs=1 (pool workers are daemonic and a
        # sharded cell spawns its own child, which spawns the shard
        # workers; the CLI forces --sharded runs to --jobs 1).
        return run_sharded_cell(cell, reps=reps)
    return run_cell(cell, reps=reps)


def _inline_worker(task: Tuple[_AnyCell, int]) -> CellResult:
    """One cell run in this process: its row drops the peak, which
    would be this process's running ``VmHWM`` (the caller's and every
    earlier cell's included), not the cell's."""
    row = _bench_worker(task)
    if not isinstance(task[0], ShardedCell):
        del row["peak_rss_kb"]
    return row


def run_matrix(
    cells: Sequence[_AnyCell],
    jobs: Optional[int] = None,
    reps: int = 2,
) -> List[CellResult]:
    """Benchmark every cell; returns results in ``cells`` order."""
    if jobs is None:
        jobs = default_jobs()
    tasks = [(cell, reps) for cell in cells]
    if jobs <= 1 or not tasks:
        return [_inline_worker(task) for task in tasks]
    # The spawn start method (not fork): a forked child starts with the
    # CLI process's pages mapped, so its VmHWM would count them; a fresh
    # interpreter's VmHWM counts only what its cell touched.  (Its
    # ru_maxrss still starts at the parent's high-water mark, which is
    # why bench rows read VmHWM.)  chunksize=1, or map() batches
    # several cells per worker and maxtasksperchild counts the batch as
    # one task — each cell must see a fresh interpreter for its
    # peak-RSS number to be its own.
    context = multiprocessing.get_context("spawn")
    with context.Pool(
        processes=min(jobs, len(cells)), maxtasksperchild=1
    ) as pool:
        return pool.map(_bench_worker, tasks, chunksize=1)
