"""Distributed Baswana–Sen (2k-1)-spanner.

The clustering algorithm of [10] is naturally distributed (Fig. 1 credits
it with O(k^2) rounds and length-1 messages).  Our implementation uses
shared randomness — every node evaluates the same PRF on (phase, center)
to learn any cluster's sampling fate locally — so each phase needs just
two unit-message rounds:

  round A: every active node announces its cluster center to neighbors;
  round B: nodes of unsampled clusters either join an adjacent sampled
           cluster (adding the connecting edge) or dump one edge per
           adjacent cluster and go inactive.

Phase k (vertex-cluster joining) reuses round A and adds one edge per
adjacent cluster at every surviving node.  Total: 2k rounds, 1-word
messages — matching the model row in Fig. 1 up to constants.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.distributed.faults import FaultPlan
from repro.distributed.reliable import ReliableConfig, build_network
from repro.distributed.simulator import Api, NodeProgram
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.graphs.weighted import WeightedGraph
from repro.obs.trace import Obs, phase_scope
from repro.spanner.spanner import Spanner
from repro.util.rng import SeedLike, make_prf


def _program_edges(programs: Dict[int, NodeProgram]) -> Set[Edge]:
    """Engine-agnostic final edge gather (picklable for the sharded
    engine's workers; see ``Network.apply_programs``)."""
    edges: Set[Edge] = set()
    for program in programs.values():
        edges |= program.edges  # type: ignore[attr-defined]
    return edges


def _run_phased(network, k: int, obs: Optional[Obs]) -> None:
    """Drive the 2k-round clustering as k two-round phases.

    Phase ``i`` is rounds ``2i+1`` (announce) and ``2i+2`` (join/dump);
    the phase markers give traces and metrics the per-phase resolution
    the O(k^2)-rounds claim is stated at.  Identical round-for-round to
    one ``run(max_rounds=2k)`` call — the network keeps state across
    ``run`` calls and nodes halt themselves in the final phase.
    """
    for i in range(k):
        with phase_scope(obs, f"phase[{i}]"):
            network.run(max_rounds=2)


class _BaswanaSenProgram(NodeProgram):
    """Per-node Baswana–Sen logic (phase counter derived from round)."""

    def __init__(self, node_id: int, k: int, sample_p: float, prf) -> None:
        self.node_id = node_id
        self.k = k
        self.sample_p = sample_p
        self.prf = prf
        self.center = node_id
        self.active = True
        self.edges: Set[Edge] = set()

    def _sampled(self, center: int, phase: int) -> bool:
        return self.prf(phase, center) < self.sample_p

    def on_round(
        self, api: Api, round_index: int, inbox: List[Tuple[int, Any]]
    ) -> None:
        if not self.active:
            api.halt()
            return
        phase, step = divmod(round_index - 1, 2)
        if phase >= self.k:
            api.halt()
            return
        if step == 0:
            # Round A: announce the current cluster center.
            api.broadcast(self.center)
            return
        # Round B: inbox holds neighbor centers (silent nbrs = inactive).
        candidate: Dict[int, int] = {}
        for src, center in inbox:
            if center == self.center:
                continue
            if center not in candidate or src < candidate[center]:
                candidate[center] = src
        final_phase = phase == self.k - 1
        if final_phase:
            # Vertex-cluster joining: one edge to every adjacent cluster.
            for center in sorted(candidate):
                self.edges.add(
                    canonical_edge(self.node_id, candidate[center])
                )
            api.halt()
            return
        if self._sampled(self.center, phase):
            return  # own cluster survives; nothing to do this phase.
        sampled_adjacent = sorted(
            c for c in candidate if self._sampled(c, phase)
        )
        if sampled_adjacent:
            target = sampled_adjacent[0]
            self.edges.add(canonical_edge(self.node_id, candidate[target]))
            self.center = target
        else:
            for center in sorted(candidate):
                self.edges.add(
                    canonical_edge(self.node_id, candidate[center])
                )
            self.active = False


class _WeightedBaswanaSenProgram(NodeProgram):
    """Weighted variant: per-cluster choices take the least-weight edge.

    Identical round structure; round-A announcements are unchanged
    (1 word) because each node already knows its incident edge weights —
    the weighted algorithm's extra information is purely local.
    """

    def __init__(self, node_id: int, k: int, sample_p: float, prf,
                 weighted_graph: WeightedGraph) -> None:
        self.node_id = node_id
        self.k = k
        self.sample_p = sample_p
        self.prf = prf
        self.weights = weighted_graph.neighbors(node_id)  # nbr -> weight
        self.center = node_id
        self.active = True
        self.edges: Set[Edge] = set()

    def _sampled(self, center: int, phase: int) -> bool:
        return self.prf(phase, center) < self.sample_p

    def on_round(
        self, api: Api, round_index: int, inbox: List[Tuple[int, Any]]
    ) -> None:
        if not self.active:
            api.halt()
            return
        phase, step = divmod(round_index - 1, 2)
        if phase >= self.k:
            api.halt()
            return
        if step == 0:
            api.broadcast(self.center)
            return
        # Best (lightest) edge per adjacent cluster.
        best: Dict[int, Tuple[float, int]] = {}
        for src, center in inbox:
            if center == self.center:
                continue
            cand = (self.weights[src], src)
            if center not in best or cand < best[center]:
                best[center] = cand
        final_phase = phase == self.k - 1
        if final_phase:
            for center in sorted(best):
                self.edges.add(
                    canonical_edge(self.node_id, best[center][1])
                )
            api.halt()
            return
        if self._sampled(self.center, phase):
            return
        sampled_options = [
            (w, u, c) for c, (w, u) in best.items()
            if self._sampled(c, phase)
        ]
        if sampled_options:
            w_star, u_star, c_star = min(sampled_options)
            self.edges.add(canonical_edge(self.node_id, u_star))
            self.center = c_star
            # Keep every strictly lighter edge to other clusters (the
            # weighted filtering rule of [10]).
            for c, (w, u) in best.items():
                if c != c_star and (w, u) < (w_star, u_star):
                    self.edges.add(canonical_edge(self.node_id, u))
        else:
            for c, (w, u) in sorted(best.items()):
                self.edges.add(canonical_edge(self.node_id, u))
            self.active = False


def distributed_baswana_sen_weighted(
    weighted_graph,
    k: int,
    seed: SeedLike = None,
    max_message_words: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    reliable: bool = False,
    reliable_config: Optional[ReliableConfig] = None,
    obs: Optional[Obs] = None,
    shards: Optional[int] = None,
):
    """Run the weighted (2k-1)-spanner protocol (Fig. 1's first row).

    ``weighted_graph`` is a :class:`repro.graphs.weighted.WeightedGraph`;
    returns the spanner's edge set plus the :class:`NetworkStats` —
    2k rounds, 1-word messages, like the unweighted protocol.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    graph = weighted_graph.unweighted()
    if k == 1:
        return set(graph.edges()), None
    if obs is not None and not obs.protocol:
        obs.protocol = "baswana_sen_weighted"
    prf = make_prf(seed)
    sample_p = graph.n ** (-1.0 / k) if graph.n else 0.0
    network = build_network(
        graph,
        partial(
            _WeightedBaswanaSenProgram,
            k=k,
            sample_p=sample_p,
            prf=prf,
            weighted_graph=weighted_graph,
        ),
        max_message_words=max_message_words,
        fault_plan=fault_plan,
        reliable=reliable,
        reliable_config=reliable_config,
        obs=obs,
        shards=shards,
    )
    _run_phased(network, k, obs)
    stats = network.stats
    edges: Set[Edge] = set()
    for shard_edges in network.apply_programs(_program_edges):
        edges |= shard_edges
    return edges, stats


def distributed_baswana_sen(
    graph: Graph,
    k: int,
    seed: SeedLike = None,
    max_message_words: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    reliable: bool = False,
    reliable_config: Optional[ReliableConfig] = None,
    obs: Optional[Obs] = None,
    shards: Optional[int] = None,
) -> Spanner:
    """Run the distributed (2k-1)-spanner protocol; 2k rounds, unit messages.

    Metadata carries the :class:`NetworkStats` under ``"network_stats"``.
    ``fault_plan``/``reliable`` plug in fault injection and the
    reliable-delivery adapter (see :mod:`repro.distributed.reliable`).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return Spanner(
            graph, graph.edges(), {"algorithm": "baswana-sen-distributed",
                                   "k": 1}
        )
    if obs is not None and not obs.protocol:
        obs.protocol = "baswana_sen"
    prf = make_prf(seed)
    sample_p = graph.n ** (-1.0 / k) if graph.n else 0.0
    network = build_network(
        graph,
        partial(_BaswanaSenProgram, k=k, sample_p=sample_p, prf=prf),
        max_message_words=max_message_words,
        fault_plan=fault_plan,
        reliable=reliable,
        reliable_config=reliable_config,
        obs=obs,
        shards=shards,
    )
    _run_phased(network, k, obs)
    stats = network.stats
    edges: Set[Edge] = set()
    for shard_edges in network.apply_programs(_program_edges):
        edges |= shard_edges
    return Spanner(
        graph,
        edges,
        {
            "algorithm": "baswana-sen-distributed",
            "k": k,
            "sample_p": sample_p,
            "reliable": reliable,
            "network_stats": stats,
        },
    )
