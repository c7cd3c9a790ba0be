"""Protocol cells: one (protocol, host, seed) run plus its checks.

Shared by the ``simulate``, ``reliable`` and ``sharded`` workloads and by
``make_pins.py``, so the pinned counts and the benchmark's checks come
from the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import edge_digest

# Imported up front so the first timed cell pays no import.
from repro.core import theory
from repro.distributed import (  # noqa: F401 - preloaded protocol modules
    baswana_sen_protocol,
    deterministic_protocol,
    fibonacci_protocol,
    skeleton_protocol,
)
from repro.distributed.faults import FaultPlan
from repro.graphs import zoo
from repro.graphs.graph import Graph
from repro.obs.runners import run_traced
from repro.perf.workloads import BENCH_PROTOCOLS as PROTOCOLS
from repro.spanner import verification

#: each protocol's parameters, passed to ``run_traced`` and to the size
#: and stretch budgets alike.  ``run_traced`` fixes Fibonacci's order at
#: 2, the budgets' default order, so it cannot be passed here.
PARAMS: Dict[str, Dict[str, float]] = {
    "skeleton": {"D": 4, "eps": 0.5},
    "fibonacci": {"eps": 0.5},
    "baswana_sen": {"k": 3},
    "deterministic": {"D": 4},
}

#: BFS sources sampled for the stretch check of each cell.
STRETCH_SOURCES = 8

COUNT_KEYS: Tuple[str, ...] = ("rounds", "messages", "words", "edges", "digest")


@dataclass(frozen=True)
class Cell:
    """One protocol run on one zoo host; the id matches ``BENCH_*.json``."""

    protocol: str
    kind: str
    scale: str
    seed: int
    #: graph seed of the host; ``None`` means the bench convention 1000 + seed.
    host_seed: Optional[int] = None

    @property
    def graph_seed(self) -> int:
        return 1000 + self.seed if self.host_seed is None else self.host_seed

    @property
    def cell_id(self) -> str:
        base = f"{self.protocol}/{self.kind}/{self.scale}/s{self.seed}"
        if self.graph_seed != 1000 + self.seed:
            base += f"/g{self.graph_seed}"
        return base

    @property
    def host_key(self) -> Tuple[str, str, int]:
        """Hosts that ignore the seed share one key (and one build)."""
        seed = self.graph_seed if self.kind == "er" else 0
        return (self.kind, self.scale, seed)


def build_hosts(cells: List[Cell]) -> Dict[Tuple[str, str, int], Graph]:
    """Every distinct host the cells need, built once."""
    hosts: Dict[Tuple[str, str, int], Graph] = {}
    for cell in cells:
        if cell.host_key not in hosts:
            hosts[cell.host_key] = zoo.build_host(
                cell.kind, cell.scale, cell.graph_seed
            )
    return hosts


def run_cell(
    cell: Cell,
    graph: Graph,
    shards: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> Tuple[Any, Any]:
    """Run the cell's protocol; returns ``(spanner, NetworkStats)``.

    A fault plan runs the protocol over the reliable-delivery layer;
    otherwise it takes the clean engine (``obs=None``, so ``_run_clean``)
    or, with ``shards``, the sharded engine.
    """
    kwargs: Dict[str, Any] = dict(PARAMS[cell.protocol])
    if shards is not None:
        kwargs["shards"] = shards
    if fault_plan is not None:
        kwargs["reliable"] = True
        kwargs["fault_plan"] = fault_plan
    return run_traced(cell.protocol, graph, seed=cell.seed, obs=None, **kwargs)


def counts_of(spanner: Any, stats: Any) -> Dict[str, Any]:
    return {
        "rounds": stats.rounds,
        "messages": stats.messages,
        "words": stats.total_words,
        "edges": spanner.size,
        "digest": edge_digest(spanner.edges),
    }


def verify_cell(cell: Cell, graph: Graph, spanner: Any) -> List[str]:
    """Subgraph, connectivity, and the ``core.theory`` size/stretch budgets."""
    problems: List[str] = []
    edges = sorted(spanner.edges)
    if not verification.verify_subgraph(graph, edges):
        return ["spanner edge not in host"]
    sub = graph.edge_subgraph(edges)
    if not verification.verify_connectivity(graph, sub):
        problems.append("spanner loses host connectivity")
    params = PARAMS[cell.protocol]
    budget = theory.protocol_size_budget(cell.protocol, graph.n, **params)
    if len(edges) > math.ceil(budget):
        problems.append(f"size {len(edges)} over budget {budget:.1f}")
    alpha, beta = theory.protocol_stretch_budget(
        cell.protocol, graph.n, **params
    )
    ok, worst = verification.verify_spanner_guarantee(
        graph, sub, alpha, beta, num_sources=STRETCH_SOURCES, seed=cell.seed
    )
    if not ok:
        problems.append(f"stretch ({alpha:.1f}, {beta:.1f}) violated at {worst}")
    return problems
