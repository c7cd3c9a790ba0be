"""The sharded-engine equivalence oracle: N shards == one process.

:class:`repro.distributed.sharded.ShardedNetwork` is an
equivalence-preserving optimization: for every protocol and every shard
count the sharded run must produce byte-identical protocol outputs, an
identical :class:`~repro.distributed.simulator.NetworkStats`, and — with
a tracer attached — byte-identical ``repro trace`` JSONL versus the
single-process engine.  These tests pin that contract for shard counts
{1, 2, 4} across all five protocols, plus the engine's restriction
surface (no fault plans / reliable layer / strict mode), the worker
pool's stale-generation guard, dead-worker reporting and quiet shutdown,
and multi-phase ``run`` resumability across all three engines.
"""

from __future__ import annotations

import multiprocessing
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

from repro.core.protocols import PROTOCOLS
from repro.distributed import (
    FaultPlan,
    baswana_sen_protocol,
    skeleton_protocol,
)
from repro.distributed.reliable import build_network
from repro.distributed.sharded import (
    ShardedNetwork,
    _WorkerPool,
    boundary_edges,
    shard_ranges,
    shutdown_workers,
)
from repro.distributed.simulator import Api, Network, NodeProgram
from repro.graphs import erdos_renyi_gnp
from repro.graphs.generators import path
from repro.graphs.graph import Graph
from repro.graphs.zoo import build_host
from repro.obs import Obs, TraceRecorder, run_traced

SHARD_COUNTS = (1, 2, 4)

SRC = Path(__file__).resolve().parent.parent / "src"


def _host() -> Any:
    return erdos_renyi_gnp(60, 0.1, seed=7)


def _normalize(protocol: str, result: Any) -> Any:
    """Map a protocol result to a comparable value."""
    if protocol == "survey":
        return result  # the `known` edge map: plain comparable dict
    return sorted(result.edges)


def _traced(protocol: str, shards: Any = None) -> Tuple[Any, Any, str]:
    """One traced run; returns (normalized result, stats, trace JSONL)."""
    recorder = TraceRecorder()
    kwargs = {} if shards is None else {"shards": shards}
    result, stats = run_traced(
        protocol, _host(), seed=11, obs=Obs(recorder=recorder), **kwargs
    )
    return _normalize(protocol, result), stats, recorder.dumps()


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_clean_run_matches_single_process(self, protocol, shards):
        """obs=None: sharded outputs and stats == single-process."""
        base_result, base_stats = run_traced(
            protocol, _host(), seed=11, obs=None
        )
        shard_result, shard_stats = run_traced(
            protocol, _host(), seed=11, obs=None, shards=shards
        )
        assert shard_stats == base_stats
        assert _normalize(protocol, shard_result) == _normalize(
            protocol, base_result
        )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_trace_is_byte_identical(self, protocol, shards):
        """With a tracer attached, the JSONL itself must not move."""
        base_result, base_stats, base_trace = _traced(protocol)
        shard_result, shard_stats, shard_trace = _traced(
            protocol, shards=shards
        )
        assert shard_trace == base_trace
        assert shard_stats == base_stats
        assert shard_result == base_result


class TestRestrictions:
    def test_shards_reject_fault_plan(self):
        with pytest.raises(ValueError, match="shards"):
            build_network(
                _host(), _GossipMax, shards=2, fault_plan=FaultPlan(seed=1)
            )

    def test_shards_reject_reliable_layer(self):
        with pytest.raises(ValueError, match="shards"):
            build_network(_host(), _GossipMax, shards=2, reliable=True)

    def test_shards_reject_strict(self):
        with pytest.raises(ValueError, match="shards"):
            build_network(_host(), _GossipMax, shards=2, strict=True)

    def test_shard_count_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            ShardedNetwork(path(4), _GossipMax, shards=0)

    def test_missing_programs_rejected(self):
        """A programs dict that leaves a vertex out is refused (the
        factory-built engines cover every vertex by construction)."""
        with pytest.raises(ValueError, match="no program"):
            Network(path(4), programs={0: _GossipMax(0)})

    def test_stale_network_refuses_to_run(self):
        """A newer load retires older networks on the same pool loudly."""
        graph = path(6)
        first = ShardedNetwork(graph, _GossipMax, shards=2)
        second = ShardedNetwork(graph, _GossipMax, shards=2)
        with pytest.raises(RuntimeError, match="stale"):
            first.run(1)
        second.run(2)  # the resident network still works


class TestWorkerPool:
    def test_shutdown_prints_nothing(self):
        """Workers exit quietly when the coordinator closes their pipes."""
        script = (
            "from repro.distributed.baswana_sen_protocol import "
            "distributed_baswana_sen\n"
            "from repro.distributed.sharded import shutdown_workers\n"
            "from repro.graphs import erdos_renyi_gnp\n"
            "distributed_baswana_sen(\n"
            "    erdos_renyi_gnp(60, 0.1, seed=7), 3, seed=1, shards=2\n"
            ")\n"
            "shutdown_workers()\n"
        )
        # -B: the stripped env drops PYTHONDONTWRITEBYTECODE; spawned
        # shard workers inherit the flag, so no .pyc lands in src/.
        result = subprocess.run(
            [sys.executable, "-B", "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""

    def test_dead_worker_names_shard_and_exit_code(self):
        shutdown_workers()
        pool = _WorkerPool.get(2)
        victim = pool._procs[1]
        victim.kill()
        victim.join(timeout=10)
        with pytest.raises(
            RuntimeError,
            match=rf"shard 1 worker died \(exitcode {-signal.SIGKILL}\)",
        ):
            pool.load(path(4), _GossipMax, None, False)
        assert multiprocessing.active_children() == []

    def test_unpicklable_factory_is_named_and_leaves_the_pool_in_step(self):
        """A factory that cannot be pickled fails before any worker is
        sent its load: the error names it, and the next network on the
        same pool runs exactly as one process does."""
        graph = path(8)
        pool = _WorkerPool.get(2)
        with pytest.raises(TypeError, match="lambda"):
            ShardedNetwork(graph, lambda v: _GossipMax(v), shards=2)
        sharded = _phased_run(ShardedNetwork(graph, _GossipMax, shards=2))
        assert _WorkerPool.get(2) is pool
        assert sharded == _phased_run(
            Network(graph, program_factory=_GossipMax)
        )

    def test_failure_after_a_send_retires_the_pool(self, monkeypatch):
        """Once one worker has its message, any failure leaves the
        barrier out of step: the pool is retired, not reused."""
        graph = path(8)
        network = ShardedNetwork(graph, _GossipMax, shards=2)
        pool = network._pool

        def interrupted(frame: bytes) -> None:
            raise _Interrupted

        monkeypatch.setattr(pool._conns[1], "send_bytes", interrupted)
        with pytest.raises(_Interrupted):
            network.run(1)
        assert _WorkerPool._pools.get(2) is not pool
        assert not pool.alive()
        sharded = _phased_run(ShardedNetwork(graph, _GossipMax, shards=2))
        assert sharded == _phased_run(
            Network(graph, program_factory=_GossipMax)
        )


class _Interrupted(Exception):
    """Raised by a patched pipe in the middle of an exchange."""


def _collector_state(programs: Dict[int, Any]) -> Tuple[bool, int]:
    """Picklable probe: a worker's collector flag and what a full
    collection finds there."""
    import gc

    return gc.isenabled(), gc.collect()


class TestWorkerCollector:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_workers_run_without_the_collector_and_leave_no_cycles(
        self, protocol
    ):
        """A shard worker runs with automatic collection off, and a
        whole protocol run leaves it nothing to collect: loading the
        probe's network frees the run's last engine and host by
        reference counting alone."""

        def probe() -> List[Any]:
            network = ShardedNetwork(path(6), _GossipMax, shards=2)
            return network.apply_programs(_collector_state)

        # The first probe imports this module in the workers (imports
        # leave cycles of their own) and collects what that left.
        probe()
        run_traced(
            protocol, build_host("er", "smoke", 1001), seed=11, obs=None,
            shards=2,
        )
        assert probe() == [(False, 0)] * 2


class TestShardGeometry:
    def test_ranges_partition_and_clamp(self):
        order = list(range(10))
        for shards in (1, 2, 3, 4, 10, 25):
            ranges = shard_ranges(order, shards)
            assert len(ranges) == min(shards, 10)
            assert ranges[0][0] == 0 and ranges[-1][1] == 10
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo  # contiguous, no gaps or overlap
            assert all(hi > lo for lo, hi in ranges)  # no empty shard

    def test_boundary_edges_on_a_path(self):
        # A path's cut at k contiguous shards is exactly k - 1 edges.
        graph = path(12)
        assert boundary_edges(graph, 1) == 0
        assert boundary_edges(graph, 2) == 1
        assert boundary_edges(graph, 4) == 3

    def test_boundary_edges_bounded_by_m(self):
        graph = _host()
        for shards in SHARD_COUNTS:
            assert 0 <= boundary_edges(graph, shards) <= graph.m


def _program_span(programs: Dict[int, Any]) -> Tuple[int, int, int]:
    """Picklable probe: a shard's lowest and highest vertex and size."""
    return min(programs), max(programs), len(programs)


class TestProgramsLiveInWorkers:
    def test_each_worker_builds_its_own_range(self):
        """Every worker holds exactly its ``shard_ranges`` slice of the
        sorted vertices, on a host whose ids are not 0..n-1."""
        order = [3 * i + 5 for i in range(11)]
        graph = Graph(vertices=order, edges=zip(order, order[1:]))
        for shards in (1, 2, 3, 4):
            network = ShardedNetwork(graph, _GossipMax, shards=shards)
            assert network.apply_programs(_program_span) == [
                (order[lo], order[hi - 1], hi - lo)
                for lo, hi in shard_ranges(order, shards)
            ]

    @pytest.mark.parametrize(
        "module, program, driver, params",
        [
            (
                baswana_sen_protocol,
                "_BaswanaSenProgram",
                "distributed_baswana_sen",
                {"k": 3},
            ),
            (skeleton_protocol, "_SkeletonProgram", "distributed_skeleton", {}),
        ],
        ids=["baswana_sen", "skeleton"],
    )
    def test_coordinator_builds_no_program(
        self, monkeypatch, module, program, driver, params
    ):
        """A sharded driver run constructs no node program in the
        coordinator; the single-process run constructs one per vertex."""
        cls = getattr(module, program)
        run = getattr(module, driver)
        built: List[int] = []
        original = cls.__init__

        def counting(self: Any, node_id: int, *args: Any, **kw: Any) -> None:
            built.append(node_id)
            original(self, node_id, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counting)
        graph = _host()
        single = run(graph, seed=1, **params)
        assert sorted(built) == sorted(graph.vertices())
        built.clear()
        sharded = run(graph, seed=1, shards=2, **params)
        assert built == []
        assert sharded.edges == single.edges


# ----------------------------------------------------------------------
# Multi-phase resumability: run() called twice, state carried across —
# identical behavior unobserved, observed and on the sharded engine.  The program must be module-level so the
# spawn-context shard workers can unpickle it.
# ----------------------------------------------------------------------
class _GossipMax(NodeProgram):
    """Flood the maximum vertex id; rebroadcast only on improvement."""

    def __init__(self, vertex: int) -> None:
        self.value = vertex
        self.rounds_seen = 0

    def setup(self, api: Api) -> None:
        api.broadcast(("val", self.value))

    def on_round(
        self, api: Api, round_index: int, inbox: List[Tuple[int, Any]]
    ) -> None:
        self.rounds_seen += 1
        best = self.value
        for _, payload in inbox:
            if payload[1] > best:
                best = payload[1]
        if best > self.value:
            self.value = best
            api.broadcast(("val", self.value))


def _values(programs: Dict[int, _GossipMax]) -> Dict[int, int]:
    """Picklable probe shipped to the workers via ``apply_programs``."""
    return {v: program.value for v, program in programs.items()}


def _phased_run(network: Any) -> Tuple[Any, Dict[int, int]]:
    """Two ``run`` calls with state carried across the seam."""
    network.run(2)
    assert network.in_flight  # the flood must still be converging
    network.run(100, stop_when_idle=True)
    values: Dict[int, int] = {}
    for chunk in network.apply_programs(_values):
        values.update(chunk)
    return network.stats, values


class TestMultiPhaseResumability:
    def test_resumed_runs_agree_across_engines(self):
        graph = path(24)
        expected = {v: 23 for v in graph.vertices()}

        def fresh() -> Dict[int, _GossipMax]:
            return {v: _GossipMax(v) for v in graph.vertices()}

        clean_stats, clean_values = _phased_run(Network(graph, fresh()))
        general_stats, general_values = _phased_run(
            Network(graph, fresh(), obs=Obs(recorder=TraceRecorder()))
        )
        sharded_stats, sharded_values = _phased_run(
            ShardedNetwork(graph, _GossipMax, shards=3)
        )
        assert clean_values == expected
        assert general_values == expected
        assert sharded_values == expected
        assert general_stats == clean_stats
        assert sharded_stats == clean_stats
        # The flood needs a full sweep: phase 1 alone cannot finish.
        assert clean_stats.rounds > 2
