"""Distributed additive-2 spanner — the Theorem 5 counterpart protocol.

Theorem 5 proves any distributed additive-beta spanner algorithm of
near-linear size needs Omega(sqrt(n^{1-delta} / beta)) rounds.  This
module implements the natural distributed version of the Aingworth et
al. construction so the *upper* side of that trade can be measured:

1. one exchange round: every vertex learns its neighbors' degrees and
   dominator flags (dominators self-select with the shared-randomness
   PRF; an undominated heavy vertex drafts its min-id neighbor);
2. light-edge selection is purely local;
3. BFS trees from *all* Theta~(sqrt n) dominators run simultaneously via
   the pipelined broadcast primitive: with message width W words the
   tree phase needs ~ diameter + |D|/W rounds.

The measured rounds x width product is Theta~(sqrt n) — squarely in the
regime Theorem 5 says cannot be avoided (beta = 2, delta ~ 1/2 gives an
Omega(n^{1/4}) round floor at polylog width).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Dict, FrozenSet, Optional, Set

from repro.distributed.faults import FaultPlan
from repro.distributed.primitives import pipelined_broadcast_protocol
from repro.distributed.reliable import ReliableConfig, build_network
from repro.distributed.simulator import Api, NodeProgram
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.obs.trace import Obs, phase_scope
from repro.spanner.spanner import Spanner
from repro.util.rng import SeedLike, make_prf


class _ExchangeProgram(NodeProgram):
    """Round 1: announce (degree, dominator flag); round 2: drafting."""

    def __init__(self, node_id: int, dominators: FrozenSet[int],
                 threshold: int):
        self.node_id = node_id
        self.is_dominator = node_id in dominators
        self.threshold = threshold
        self.nbr_degree: Dict[int, int] = {}
        self.nbr_dominator: Set[int] = set()
        self.drafted = False

    def on_round(self, api: Api, round_index: int, inbox) -> None:
        if round_index == 1:
            api.broadcast(("I", len(api.neighbors), self.is_dominator))
        elif round_index == 2:
            for src, msg in inbox:
                if msg[0] == "I":
                    self.nbr_degree[src] = msg[1]
                    if msg[2]:
                        self.nbr_dominator.add(src)
            # A heavy vertex with no dominator in sight drafts its
            # min-id neighbor (mirrors the sequential patch).
            if (
                len(api.neighbors) >= self.threshold
                and not self.is_dominator
                and not self.nbr_dominator
                and self.nbr_degree
            ):
                api.send(min(self.nbr_degree), ("D",))
        elif round_index == 3:
            for _, msg in inbox:
                if msg[0] == "D":
                    self.drafted = True
            api.halt()


def _drafted_vertices(programs: Dict[int, _ExchangeProgram]) -> Set[int]:
    """Engine-agnostic drafted-dominator gather (picklable for the
    sharded engine's workers; see ``Network.apply_programs``)."""
    return {v for v, prog in programs.items() if prog.drafted}


def distributed_additive2(
    graph: Graph,
    threshold: Optional[int] = None,
    seed: SeedLike = None,
    max_message_words: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    reliable: bool = False,
    reliable_config: Optional[ReliableConfig] = None,
    obs: Optional[Obs] = None,
    shards: Optional[int] = None,
) -> Spanner:
    """Build an additive 2-spanner by message passing.

    Metadata records the per-phase :class:`NetworkStats` — the tree phase
    is where the Theorem 5 width/time floor shows up — plus the dominator
    count.  ``max_message_words`` caps the tree-phase width (the exchange
    phase uses 3-word messages).  ``fault_plan``/``reliable`` apply fault
    injection and the reliable-delivery adapter to both phases.
    """
    n = graph.n
    if n == 0:
        return Spanner(graph, set(),
                       {"algorithm": "additive-2-distributed"})
    if obs is not None and not obs.protocol:
        obs.protocol = "additive"
    if threshold is None:
        threshold = max(1, math.ceil(math.sqrt(n * max(1.0, math.log(n)))))
    prf = make_prf(seed)
    p = min(1.0, 2 * math.log(max(2, n)) / threshold)
    dominators = {
        v for v in graph.vertices() if prf("dom", v) < p
    }

    # Phase 1: exchange + drafting (3 rounds, <= 3-word messages).
    with phase_scope(obs, "exchange"):
        network = build_network(
            graph,
            partial(
                _ExchangeProgram,
                dominators=frozenset(dominators),
                threshold=threshold,
            ),
            max_message_words=max_message_words,
            fault_plan=fault_plan,
            reliable=reliable,
            reliable_config=reliable_config,
            obs=obs,
            shards=shards,
        )
        exchange_stats = network.run(max_rounds=4)
    for drafted in network.apply_programs(_drafted_vertices):
        dominators |= drafted

    edges: Set[Edge] = set()
    heavy = {v for v in graph.vertices() if graph.degree(v) >= threshold}
    for u, v in graph.edges():
        if u not in heavy or v not in heavy:
            edges.add((u, v))
    for v in sorted(heavy - dominators):
        dominated_by = [
            u for u in graph.neighbors(v) if u in dominators
        ]
        if dominated_by:
            edges.add(canonical_edge(v, min(dominated_by)))

    # Phase 2: simultaneous BFS trees from every dominator (pipelined).
    known, tree_stats = pipelined_broadcast_protocol(
        graph,
        dominators,
        max_rounds=4 * n + 4 * len(dominators),
        max_message_words=max_message_words,
        fault_plan=fault_plan,
        reliable=reliable,
        reliable_config=reliable_config,
        obs=obs,
        phase="trees",
        shards=shards,
    )
    for v, sources in known.items():
        for s, (_, parent) in sources.items():
            if parent is not None:
                edges.add(canonical_edge(v, parent))

    total = exchange_stats.merged_with(tree_stats)
    total.cap = max_message_words
    return Spanner(
        graph,
        edges,
        {
            "algorithm": "additive-2-distributed",
            "threshold": threshold,
            "reliable": reliable,
            "dominators": len(dominators),
            "network_stats": total,
            "tree_phase_rounds": tree_stats.rounds,
            "tree_phase_max_words": tree_stats.max_message_words,
        },
    )
