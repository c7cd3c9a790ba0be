"""Neighborhood-survey protocol — the cost of the girth-based approach.

Section 2's motivation for avoiding girth arguments: "any algorithm
taking this approach seems to require that vertices survey their whole
Theta(log n)-neighborhood, which can require messages linear in the size
of the graph."  This protocol *measures* that: every vertex collects the
full topology (edge list) of its radius-r neighborhood by flooding newly
learned edges for r rounds.  The recorded maximum message width is the
quantity the paper contrasts with the skeleton's O(log^eps n) words.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.distributed.faults import FaultPlan
from repro.distributed.reliable import ReliableConfig, build_network
from repro.distributed.simulator import Api, NetworkStats, NodeProgram
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.obs.trace import Obs, phase_scope


class _SurveyProgram(NodeProgram):
    """Flood-and-collect: learn every edge within ``radius`` hops."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.known_edges: Set[Edge] = set()
        self._fresh: List[Edge] = []

    def setup(self, api: Api) -> None:
        # Round 0 knowledge: the incident edges.
        for u in api.neighbors:
            self.known_edges.add(canonical_edge(self.node_id, u))
        batch = tuple(sorted(self.known_edges))
        for u in api.neighbors:
            # Unbounded payload is this protocol's *point*: it measures
            # the linear-size messages Section 2 warns girth-based
            # surveys need, as the contrast with the skeleton's bound.
            api.send(u, batch)  # repro-lint: disable=REP012

    def on_round(
        self, api: Api, round_index: int, inbox: List[Tuple[int, Any]]
    ) -> None:
        fresh: List[Edge] = []
        for _, edges in inbox:
            for u, v in edges:
                e = canonical_edge(u, v)
                if e not in self.known_edges:
                    self.known_edges.add(e)
                    fresh.append(e)
        if fresh:
            # Deliberately unbounded flood (see setup): the recorded
            # max message width is the measured quantity.
            api.broadcast(tuple(sorted(fresh)))  # repro-lint: disable=REP012


def _known_maps(
    programs: Dict[int, _SurveyProgram],
) -> Dict[int, Set[Edge]]:
    """Engine-agnostic result gather (picklable for sharded workers)."""
    return {v: p.known_edges for v, p in programs.items()}


def neighborhood_survey(
    graph: Graph,
    radius: int,
    fault_plan: Optional[FaultPlan] = None,
    reliable: bool = False,
    reliable_config: Optional[ReliableConfig] = None,
    obs: Optional[Obs] = None,
    shards: Optional[int] = None,
) -> Tuple[Dict[int, Set[Edge]], NetworkStats]:
    """Every vertex collects all edges within ``radius`` hops.

    Returns ``(known, stats)``; ``stats.max_message_words`` is the width
    the approach demands (2 words per edge) and ``known[v]`` slightly
    over-approximates the r-neighborhood (edges propagate along shortest
    edge-to-vertex chains, the standard LOCAL-model simulation).
    ``fault_plan``/``reliable`` plug in fault injection and the
    reliable-delivery adapter.
    """
    if obs is not None and not obs.protocol:
        obs.protocol = "survey"
    with phase_scope(obs, "survey"):
        network = build_network(
            graph,
            _SurveyProgram,
            fault_plan=fault_plan,
            reliable=reliable,
            reliable_config=reliable_config,
            obs=obs,
            shards=shards,
        )
        stats = network.run(max_rounds=radius, stop_when_idle=True)
    known: Dict[int, Set[Edge]] = {}
    for shard_known in network.apply_programs(_known_maps):
        known.update(shard_known)
    return known, stats
