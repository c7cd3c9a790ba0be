"""Measuring one workload cell.

:func:`run_cell` builds the cell's host graph, runs the protocol
unobserved (``obs=None``; on the clean engine, or over the reliable
layer under the cell's fault plan) ``reps`` times, and keeps the *best*
wall time — the standard noise-rejection choice for
microbenchmarks: the minimum over repetitions estimates the true cost,
while means absorb scheduler jitter.

Counts (rounds / messages / words) are recorded alongside the timing
and must be identical across reps and across engines: a baseline
comparison treats any count drift as a correctness failure, not a
performance regression (see :mod:`repro.perf.compare`).
"""

from __future__ import annotations

import multiprocessing
import resource
import sys
import traceback
from time import perf_counter
from typing import Any, Dict, Optional, Tuple, Union

from repro.obs.runners import run_traced
from repro.perf.workloads import (
    ChurnCell,
    ServiceCell,
    ShardedCell,
    WorkloadCell,
)

__all__ = [
    "CellResult",
    "run_cell",
    "run_churn_cell",
    "run_service_cell",
    "run_sharded_cell",
]

#: one measured cell, as serialized into ``BENCH_*.json``.
CellResult = Dict[str, Any]


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB.

    Its own ``VmHWM``: a spawned process's ``ru_maxrss`` starts at its
    parent's high-water mark (exec keeps it), so a bench cell measured
    in a spawned child would report its parent's peak.  Only where
    ``/proc`` is absent does it fall back to ``ru_maxrss`` (kilobytes
    on Linux, bytes on macOS; normalized to KiB).
    """
    own = _hwm_kb("self")
    if own:
        return own
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak // 1024
    return peak


def _hwm_kb(pid: Union[int, str]) -> int:
    """Peak resident set size (``VmHWM``) of one live process, in KiB
    (0 where ``/proc`` is absent)."""
    try:
        with open(
            f"/proc/{pid}/status", encoding="utf-8", errors="replace"
        ) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_cell(cell: WorkloadCell, reps: int = 2) -> CellResult:
    """Benchmark ``cell``: best-of-``reps`` wall time plus counts.

    The graph is built once (outside the timed region — generator cost
    is not simulator cost) and every rep runs the identical
    deterministic computation, so counts are asserted equal across
    reps.  A cell with a fault plan runs over the reliable layer, and
    its row adds ``retransmissions`` and ``dropped``.  ``peak_rss_kb``
    is this process's ``VmHWM``, the cell's own only in a fresh process
    (as in :func:`~repro.perf.runner.run_matrix`'s pool).
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    graph = cell.build_graph()
    plan = cell.fault_plan()
    faults: Dict[str, Any] = (
        {} if plan is None else {"reliable": True, "fault_plan": plan}
    )
    best_wall = float("inf")
    counts: Optional[Tuple[int, ...]] = None
    for _ in range(reps):
        start = perf_counter()
        _, stats = run_traced(
            cell.protocol, graph, seed=cell.seed, obs=None, **faults
        )
        wall = perf_counter() - start
        rep_counts = (
            stats.rounds,
            stats.messages,
            stats.total_words,
            stats.retransmissions,
            stats.dropped,
        )
        if counts is None:
            counts = rep_counts
        elif counts != rep_counts:
            raise AssertionError(
                f"nondeterministic cell {cell.cell_id}: "
                f"{counts} != {rep_counts}"
            )
        if wall < best_wall:
            best_wall = wall
    assert counts is not None
    rounds, messages, words, retransmissions, dropped = counts
    row: CellResult = {
        "cell_id": cell.cell_id,
        "protocol": cell.protocol,
        "graph_kind": cell.graph_kind,
        "scale": cell.scale,
        "seed": cell.seed,
        "n": graph.n,
        "m": graph.m,
        "rounds": rounds,
        "messages": messages,
        "words": words,
        "wall_s": round(best_wall, 6),
        "rounds_per_s": round(rounds / best_wall, 1) if best_wall > 0 else 0.0,
        "messages_per_s": (
            round(messages / best_wall, 1) if best_wall > 0 else 0.0
        ),
        "peak_rss_kb": _peak_rss_kb(),
    }
    if plan is not None:
        row["retransmissions"] = retransmissions
        row["dropped"] = dropped
    return row


def run_sharded_cell(cell: ShardedCell, reps: int = 2) -> CellResult:
    """Benchmark one sharded-engine cell: best-of-``reps`` plus counts.

    Mirrors :func:`run_cell` with the run dispatched to the sharded
    engine at the cell's shard count.  The cell runs in a fresh
    spawn-context child process, which starts its own worker pool (so
    the child is not daemonic) and is joined on every path.
    ``peak_rss_kb`` is that child's own peak (``VmHWM``) plus every
    worker's, so a row belongs to its cell alone, whatever the caller
    held before.  The first rep absorbs the spawn cost and the
    best-of-reps wall measures steady-state round throughput.  Counts
    are engine-invariant (pinned by
    ``tests/test_sharded_equivalence.py``), so drift against a
    single-process baseline row is a correctness failure here too.

    Must run in a process that may spawn children — the one-cell-per-
    process bench pool's workers are daemonic, so the CLI forces
    ``jobs=1`` for sharded matrices.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    context = multiprocessing.get_context("spawn")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(
        target=_sharded_cell_child, args=(cell, reps, writer)
    )
    child.start()
    writer.close()
    try:
        reply = reader.recv()
    except EOFError:
        reply = None
    except BaseException:
        child.terminate()
        raise
    finally:
        reader.close()
        child.join()
    if reply is None:
        raise RuntimeError(
            f"{cell.cell_id}: bench child died "
            f"(exitcode {child.exitcode})"
        )
    status, value = reply
    if status != "ok":
        raise RuntimeError(f"{cell.cell_id} failed:\n{value}")
    return value


def _sharded_cell_child(cell: ShardedCell, reps: int, conn: Any) -> None:
    """Spawned per sharded cell: replies ``("ok", row)`` or
    ``("err", traceback_text)``, with the shard pool already shut down."""
    from repro.distributed.sharded import shutdown_workers

    try:
        reply = ("ok", _measure_sharded_cell(cell, reps))
    except Exception:  # noqa: BLE001 - shipped to the caller
        reply = ("err", traceback.format_exc())
    finally:
        shutdown_workers()
    conn.send(reply)
    conn.close()


def _measure_sharded_cell(cell: ShardedCell, reps: int) -> CellResult:
    """The body of :func:`run_sharded_cell`, in its child process."""
    graph = cell.build_graph()
    best_wall = float("inf")
    counts: Optional[Tuple[int, int, int]] = None
    for _ in range(reps):
        start = perf_counter()
        _, stats = run_traced(
            cell.protocol, graph, seed=cell.seed, obs=None,
            shards=cell.shards,
        )
        wall = perf_counter() - start
        rep_counts = (stats.rounds, stats.messages, stats.total_words)
        if counts is None:
            counts = rep_counts
        elif counts != rep_counts:
            raise AssertionError(
                f"nondeterministic cell {cell.cell_id}: "
                f"{counts} != {rep_counts}"
            )
        if wall < best_wall:
            best_wall = wall
    assert counts is not None
    rounds, messages, words = counts
    return {
        "cell_id": cell.cell_id,
        "protocol": cell.protocol,
        "graph_kind": cell.graph_kind,
        "scale": cell.scale,
        "seed": cell.seed,
        "shards": cell.shards,
        "n": graph.n,
        "m": graph.m,
        "rounds": rounds,
        "messages": messages,
        "words": words,
        "wall_s": round(best_wall, 6),
        "rounds_per_s": round(rounds / best_wall, 1) if best_wall > 0 else 0.0,
        "messages_per_s": (
            round(messages / best_wall, 1) if best_wall > 0 else 0.0
        ),
        "peak_rss_kb": _peak_rss_kb() + sum(
            _hwm_kb(worker.pid) for worker in multiprocessing.active_children()
        ),
    }


def run_service_cell(cell: ServiceCell, reps: int = 2) -> CellResult:
    """Benchmark one serving cell: end-to-end query latency + counts.

    The artifact bundle is built once (outside the timed region — the
    batch side is not serving cost); each rep starts a *fresh*
    in-process server with fresh caches and drives the cell's seeded
    query stream through real localhost sockets on a single pipelined
    connection, so arrival order — and therefore every LRU/landmark
    hit — replays identically.  Counts are mapped onto the common
    report schema as ``rounds`` = requests issued, ``messages`` =
    responses received, ``words`` = cache hits (LRU + landmark) and
    asserted identical across reps; the baseline gate treats any
    drift as a correctness failure, same as simulator counts.  The
    best-latency rep also contributes service-specific extras
    (``qps``, ``p50_ms``, ``p99_ms``, ``hit_rate``) that ride along
    in the report but are not count-gated.
    """
    from repro.serving.artifact import build_bundle
    from repro.serving.loadgen import LoadgenSummary, run_service_benchmark

    if reps < 1:
        raise ValueError("reps must be >= 1")
    bundle = build_bundle(cell.graph_kind, cell.scale, cell.seed, k=cell.k)
    best: Optional[LoadgenSummary] = None
    counts: Optional[Tuple[int, int, int]] = None
    for _ in range(reps):
        summary = run_service_benchmark(
            bundle,
            requests=cell.requests,
            mix=cell.mix,
            seed=cell.seed,
        )
        rep_counts = (summary.requests, summary.answered, summary.cache_hits)
        if counts is None:
            counts = rep_counts
        elif counts != rep_counts:
            raise AssertionError(
                f"nondeterministic cell {cell.cell_id}: "
                f"{counts} != {rep_counts}"
            )
        if best is None or summary.wall_s < best.wall_s:
            best = summary
    assert counts is not None and best is not None
    rounds, messages, words = counts
    best_wall = best.wall_s
    return {
        "cell_id": cell.cell_id,
        "protocol": "service",
        "graph_kind": cell.graph_kind,
        "scale": cell.scale,
        "seed": cell.seed,
        "mix": cell.mix,
        "n": bundle.graph.n,
        "m": bundle.graph.m,
        "rounds": rounds,
        "messages": messages,
        "words": words,
        "wall_s": round(best_wall, 6),
        "rounds_per_s": round(rounds / best_wall, 1) if best_wall > 0 else 0.0,
        "messages_per_s": (
            round(messages / best_wall, 1) if best_wall > 0 else 0.0
        ),
        "peak_rss_kb": _peak_rss_kb(),
        "qps": best.qps,
        "p50_ms": best.p50_ms,
        "p99_ms": best.p99_ms,
        "hit_rate": best.hit_rate,
    }


def run_churn_cell(cell: ChurnCell, reps: int = 2) -> CellResult:
    """Benchmark one churn cell: full engine run, repair-work counts.

    The stream is drawn once (outside the timed region, like the host
    graph) and every rep replays the identical scenario.  Counts are
    the summed per-batch repair work — rounds spent repairing, host
    adjacency entries examined, girth-rule offers — asserted identical
    across reps exactly like the simulator counts.  Grading samples a
    fixed small source set and the distributed amnesia handshake is
    skipped: the bench measures the repair engine, not the verifier or
    the reliable-layer flood (which the churn CI smoke exercises at
    small scale).
    """
    from repro.churn.engine import run_churn
    from repro.churn.events import churn_stream
    from repro.churn.policy import RepairPolicy

    if reps < 1:
        raise ValueError("reps must be >= 1")
    graph = cell.build_graph()
    batches, batch_size = cell.stream_params
    stream = churn_stream(
        graph,
        batches=batches,
        batch_size=batch_size,
        seed=cell.seed,
        crash_fraction=0.15,
        amnesia_fraction=0.5,
    )
    best_wall = float("inf")
    counts: Optional[Tuple[int, int, int]] = None
    for _ in range(reps):
        start = perf_counter()
        result = run_churn(
            graph,
            cell.k,
            stream,
            policy=RepairPolicy(),
            handshakes=False,
            grade_num_sources=4,
        )
        wall = perf_counter() - start
        rep_counts = (
            sum(b.work.get("repair_rounds", 0) for b in result.batches),
            sum(b.work.get("edges_examined", 0) for b in result.batches),
            sum(b.work.get("offers", 0) for b in result.batches),
        )
        if counts is None:
            counts = rep_counts
        elif counts != rep_counts:
            raise AssertionError(
                f"nondeterministic cell {cell.cell_id}: "
                f"{counts} != {rep_counts}"
            )
        if wall < best_wall:
            best_wall = wall
    assert counts is not None
    rounds, messages, words = counts
    return {
        "cell_id": cell.cell_id,
        "protocol": "churn",
        "graph_kind": cell.graph_kind,
        "scale": cell.scale,
        "seed": cell.seed,
        "n": graph.n,
        "m": graph.m,
        "rounds": rounds,
        "messages": messages,
        "words": words,
        "wall_s": round(best_wall, 6),
        "rounds_per_s": round(rounds / best_wall, 1) if best_wall > 0 else 0.0,
        "messages_per_s": (
            round(messages / best_wall, 1) if best_wall > 0 else 0.0
        ),
        "peak_rss_kb": _peak_rss_kb(),
    }
