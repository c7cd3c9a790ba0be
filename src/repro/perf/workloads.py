"""The canonical benchmark workload matrix.

A :class:`WorkloadCell` pins everything a measurement depends on —
protocol, host family, scale, and seed — so two runs of the same cell
on the same interpreter execute the *identical* computation (identical
graph, identical coin flips, identical message schedule) and any
wall-clock difference is attributable to the engine, not the workload.

Two scales:

* ``smoke`` — small hosts for the CI gate (seconds in total);
* ``e1`` — the EXPERIMENTS.md E1 operating point (Erdős–Rényi
  ``G(600, 0.02)``) plus comparable grid/hypercube hosts, for the
  committed baseline and speedup claims.

At each scale, :class:`ReliableCell` rows (ids ending ``/reliable``) run
Baswana–Sen over the reliable-delivery layer under a seeded lossy fault
plan, so the fault path has rows of its own.

The full matrix is a superset of the smoke matrix, so a smoke run can
always be compared against a committed full-matrix baseline on the
intersection of cell ids.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.distributed.faults import FaultPlan
from repro.graphs.graph import Graph
from repro.graphs.zoo import GRAPH_KINDS, HOST_SCALES, build_host

__all__ = [
    "BENCH_PROTOCOLS",
    "ChurnCell",
    "ReliableCell",
    "SCALES",
    "SEEDS",
    "SERVICE_MIXES",
    "SHARD_COUNTS",
    "ServiceCell",
    "ShardedCell",
    "WorkloadCell",
    "churn_matrix",
    "full_matrix",
    "service_matrix",
    "sharded_matrix",
    "smoke_matrix",
]

#: protocols benchmarked: the paper's two constructions, the
#: Baswana–Sen comparison point, and the deterministic skeleton (the
#: Fig. 1 randomized-vs-deterministic head-to-head; the survey/additive
#: baselines are sequential-dominated and say little about the
#: simulator hot path).
BENCH_PROTOCOLS: Tuple[str, ...] = (
    "skeleton",
    "fibonacci",
    "baswana_sen",
    "deterministic",
)

#: protocol seeds per cell; the graph seed is derived (1000 + seed) so
#: graph randomness and protocol randomness never share a stream.
SEEDS: Tuple[int, ...] = (1, 2, 3)

#: host parameters live in the shared graph zoo (repro.graphs.zoo);
#: the bench matrix, churn cells and the serving tier all build the
#: identical hosts through repro.graphs.build_host.  The single-process
#: matrices stop at ``e1`` — the zoo's ``e2`` (10^5-node) scale exists
#: for the sharded matrix only.
SCALES: Tuple[str, ...] = ("smoke", "e1")

assert set(SCALES) <= set(HOST_SCALES)

_GRAPH_KINDS: Tuple[str, ...] = GRAPH_KINDS


@dataclass(frozen=True)
class WorkloadCell:
    """One benchmark point: a (protocol, host, scale, seed) tuple."""

    protocol: str
    graph_kind: str
    scale: str
    seed: int

    @property
    def cell_id(self) -> str:
        """Stable identifier used for baseline comparison joins."""
        return f"{self.protocol}/{self.graph_kind}/{self.scale}/s{self.seed}"

    @property
    def graph_seed(self) -> int:
        return 1000 + self.seed

    def build_graph(self) -> Graph:
        """Construct this cell's host graph (deterministic per cell)."""
        return build_host(self.graph_kind, self.scale, self.graph_seed)

    def fault_plan(self) -> Optional[FaultPlan]:
        """The fault plan the cell runs under: none (the clean engine)."""
        return None


@dataclass(frozen=True)
class ReliableCell(WorkloadCell):
    """A workload cell run over the reliable-delivery layer under a
    seeded fault plan: per delivery 5% drop, 2% duplicate and 2% delay
    (``max_delay=2``), the ``reliable`` workload's mix in
    ``BENCHMARK.json``.

    Its id ends in ``/reliable``, so a faulty row never joins a clean
    row or pin of the same workload.  The rounds, messages and words
    are those of the real (faulty) network; the row also records
    ``retransmissions`` and ``dropped``, and the count-drift gate
    covers all five.
    """

    @property
    def cell_id(self) -> str:
        return super().cell_id + "/reliable"

    def fault_plan(self) -> Optional[FaultPlan]:
        """A fresh plan, seeded from the cell id."""
        return FaultPlan(
            seed=zlib.crc32(self.cell_id.encode()),
            drop_rate=0.05,
            duplicate_rate=0.02,
            delay_rate=0.02,
            max_delay=2,
        )


#: shard counts of the sharded-engine scaling curve (EXPERIMENTS.md
#: E24); 1 is included so every curve carries its own single-worker
#: reference point on the identical workload.
SHARD_COUNTS: Tuple[int, ...] = (1, 2, 4)


@dataclass(frozen=True)
class ShardedCell:
    """One sharded-engine point: a workload cell plus a shard count.

    Counts (rounds/messages/words) are engine-invariant — the sharded
    engine is pinned byte-identical to the single-process engine by
    ``tests/test_sharded_equivalence.py`` — so the count-drift gate can
    compare a sharded cell against *any* baseline row for the same
    workload, and the wall-clock column is the only thing the shard
    count may move.
    """

    protocol: str
    graph_kind: str
    scale: str
    seed: int
    shards: int

    @property
    def cell_id(self) -> str:
        return (
            f"{self.protocol}/{self.graph_kind}/{self.scale}/"
            f"s{self.seed}/shards{self.shards}"
        )

    @property
    def graph_seed(self) -> int:
        return 1000 + self.seed

    def build_graph(self) -> Graph:
        return build_host(self.graph_kind, self.scale, self.graph_seed)


def sharded_matrix(
    scales: Tuple[str, ...] = ("smoke", "e2"),
    shards: Tuple[int, ...] = SHARD_COUNTS,
) -> List[ShardedCell]:
    """The sharded scaling matrix (smoke subset = ``("smoke",)``).

    Small scales sweep every bench protocol and host family; the ``e2``
    (10^5-node) scale runs Baswana–Sen on every host family — 2k rounds
    of unit messages is the workload whose per-round node iteration the
    sharding targets, while the skeleton's Expand machinery at that n
    is sequential-schedule-dominated and would swamp the curve.  The
    three families span the cost model's boundary cut (ER ~50%,
    hypercube 7%, grid 0.2% at two shards).
    """
    cells: List[ShardedCell] = []
    for scale in scales:
        if scale == "e2":
            combos = [("baswana_sen", kind) for kind in _GRAPH_KINDS]
        else:
            combos = [
                (protocol, kind)
                for protocol in BENCH_PROTOCOLS
                for kind in _GRAPH_KINDS
            ]
        for protocol, kind in combos:
            for count in shards:
                cells.append(ShardedCell(protocol, kind, scale, 1, count))
    return cells


#: (batches, batch_size) of the churn update stream per scale.
_CHURN_PARAMS: Dict[str, Tuple[int, int]] = {
    "smoke": (4, 8),
    "e1": (12, 16),
}


@dataclass(frozen=True)
class ChurnCell:
    """One churn-workload point: host + seeded update stream + k.

    Counts map onto the report schema as repair work: ``rounds`` =
    repair rounds spent, ``messages`` = adjacency entries examined,
    ``words`` = girth-rule offers — so the count-drift gate pins the
    repair algorithm exactly as it pins the simulator hot path.
    Benchmarked into a separate ``BENCH_churn.json`` (cell ids never
    collide with the simulator matrix).
    """

    graph_kind: str
    scale: str
    seed: int
    k: int = 2

    @property
    def cell_id(self) -> str:
        return f"churn-k{self.k}/{self.graph_kind}/{self.scale}/s{self.seed}"

    @property
    def graph_seed(self) -> int:
        return 1000 + self.seed

    @property
    def stream_params(self) -> Tuple[int, int]:
        """``(batches, batch_size)`` for this cell's scale."""
        return _CHURN_PARAMS[self.scale]

    def build_graph(self) -> Graph:
        return build_host(self.graph_kind, self.scale, self.graph_seed)


#: query mixes exercised by the service bench (see repro.serving.loadgen).
SERVICE_MIXES: Tuple[str, ...] = ("uniform", "zipf")

#: loadgen request count per scale: enough uniform/smoke traffic to
#: populate the cache, enough e1 traffic for stable percentiles.
_SERVICE_REQUESTS: Dict[str, int] = {"smoke": 400, "e1": 1500}


@dataclass(frozen=True)
class ServiceCell:
    """One serving-tier workload point: host + query mix + seed + k.

    Counts map onto the report schema as query work: ``rounds`` =
    requests issued, ``messages`` = responses answered, ``words`` =
    cache hits (LRU + landmark tiers) — all deterministic because the
    bench loadgen runs a single pipelined connection, so the server
    processes the seeded query stream in arrival order.  Benchmarked
    into a separate ``BENCH_service.json`` trajectory.
    """

    graph_kind: str
    scale: str
    seed: int
    mix: str = "uniform"
    k: int = 2

    @property
    def cell_id(self) -> str:
        return (
            f"service-k{self.k}/{self.graph_kind}/{self.scale}/"
            f"{self.mix}/s{self.seed}"
        )

    @property
    def graph_seed(self) -> int:
        return 1000 + self.seed

    @property
    def requests(self) -> int:
        """Loadgen request count for this cell's scale."""
        return _SERVICE_REQUESTS[self.scale]

    def build_graph(self) -> Graph:
        return build_host(self.graph_kind, self.scale, self.graph_seed)


def service_matrix(scales: Tuple[str, ...] = SCALES) -> List[ServiceCell]:
    """The serving workload matrix (smoke subset = ``("smoke",)``)."""
    return [
        ServiceCell(kind, scale, seed, mix)
        for scale in scales
        for mix in SERVICE_MIXES
        for kind in _GRAPH_KINDS
        for seed in (1,)
    ]


def churn_matrix(scales: Tuple[str, ...] = SCALES) -> List[ChurnCell]:
    """The churn workload matrix (smoke subset = ``("smoke",)``)."""
    return [
        ChurnCell(kind, scale, seed, k)
        for scale in scales
        for k in (2, 3)
        for kind in _GRAPH_KINDS
        for seed in SEEDS
    ]


def _matrix(scales: Tuple[str, ...]) -> List[WorkloadCell]:
    cells: List[WorkloadCell] = []
    for scale in scales:
        cells += [
            WorkloadCell(protocol, kind, scale, seed)
            for protocol in BENCH_PROTOCOLS
            for kind in _GRAPH_KINDS
            for seed in SEEDS
        ]
        # Baswana–Sen only, as in the ``reliable`` benchmark workload:
        # other protocols' reliable runs take 10-100x their clean rounds.
        cells += [
            ReliableCell("baswana_sen", kind, scale, seed)
            for kind in _GRAPH_KINDS
            for seed in SEEDS
        ]
    return cells


def smoke_matrix() -> List[WorkloadCell]:
    """The CI-gate matrix: every cell at ``smoke`` scale (36 clean and
    9 ``/reliable`` cells)."""
    return _matrix(("smoke",))


def full_matrix() -> List[WorkloadCell]:
    """The baseline matrix: smoke cells plus the ``e1`` operating point
    (72 clean and 18 ``/reliable`` cells).

    Strictly contains :func:`smoke_matrix`, so smoke runs always find
    their cells in a committed full baseline.
    """
    return _matrix(SCALES)
