"""Reusable distributed primitives: bounded BFS and ball broadcast.

These are the two communication patterns of Section 4.4:

* :func:`bounded_bfs_protocol` — every vertex learns the identity of (and
  its tree parent toward) the nearest source, with minimum-identifier
  tie-breaking, within a hop budget.  Unit-length messages.  This realizes
  "after ell^{i-1} steps each v knows the first edge on the path
  P(v, p_i(v)) or knows that delta(v, V_i) >= ell^{i-1}".

* :func:`ball_broadcast_protocol` — every source broadcasts its identity
  to the ball of a given radius; nodes relay newly learned sources each
  round, *ceasing participation* the moment a single relay message would
  exceed the word cap (the paper's congestion-control rule).  Returns who
  knows whom, parent pointers toward each known source, and who ceased
  at which round — everything the Monte-Carlo/Las-Vegas failure analysis
  of Sect. 4.4 talks about.

* :func:`path_retrace_protocol` — route "add this shortest path" requests
  backward along the parent pointers produced by a ball broadcast, adding
  one spanner edge per hop (how P(v, u) paths enter the spanner without
  any vertex knowing the whole path).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.distributed.faults import FaultPlan
from repro.distributed.reliable import ReliableConfig, build_network
from repro.distributed.simulator import Api, NetworkStats, NodeProgram
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.obs.trace import Obs, phase_scope


class _BfsProgram(NodeProgram):
    """Min-id nearest-source BFS node logic."""

    def __init__(self, node_id: int, sources: FrozenSet[int]) -> None:
        self.node_id = node_id
        self.is_source = node_id in sources
        self.dist: Optional[int] = 0 if self.is_source else None
        self.root: Optional[int] = node_id if self.is_source else None
        self.parent: Optional[int] = None

    def setup(self, api: Api) -> None:
        if self.is_source:
            api.broadcast(self.root)

    def on_round(
        self, api: Api, round_index: int, inbox: List[Tuple[int, Any]]
    ) -> None:
        if self.dist is not None or not inbox:
            return
        # First messages arrive exactly at round = distance; the minimum
        # root among them is the min-id nearest source (synchronous BFS).
        best_root, best_src = min((root, src) for src, root in inbox)
        self.dist = round_index
        self.root = best_root
        self.parent = best_src
        for u in api.neighbors:
            if u != best_src:
                api.send(u, best_root)


def _bfs_outcomes(
    programs: Dict[int, _BfsProgram],
) -> Tuple[Dict[int, int], Dict[int, int], Dict[int, Optional[int]]]:
    """Engine-agnostic result gather (picklable for sharded workers)."""
    dist: Dict[int, int] = {}
    root: Dict[int, int] = {}
    parent: Dict[int, Optional[int]] = {}
    for v, p in programs.items():
        if p.dist is None or p.root is None:
            continue  # never heard a source within the budget
        dist[v] = p.dist
        root[v] = p.root
        parent[v] = p.parent
    return dist, root, parent


def bounded_bfs_protocol(
    graph: Graph,
    sources: Iterable[int],
    radius: int,
    max_message_words: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    reliable: bool = False,
    reliable_config: Optional[ReliableConfig] = None,
    obs: Optional[Obs] = None,
    phase: str = "bfs",
    shards: Optional[int] = None,
) -> Tuple[Dict[int, int], Dict[int, int], Dict[int, Optional[int]], NetworkStats]:
    """Distributed multi-source BFS truncated at ``radius`` hops.

    Returns ``(dist, root, parent, stats)`` over the vertices that heard a
    source within the budget.  Unit-length messages (1 word each).
    ``obs``/``phase`` attach observability (the run is traced under the
    given phase label); ``shards`` selects the sharded engine.
    """
    with phase_scope(obs, phase):
        network = build_network(
            graph,
            partial(_BfsProgram, sources=frozenset(sources)),
            max_message_words=max_message_words,
            fault_plan=fault_plan,
            reliable=reliable,
            reliable_config=reliable_config,
            obs=obs,
            shards=shards,
        )
        stats = network.run(max_rounds=radius)
    dist: Dict[int, int] = {}
    root: Dict[int, int] = {}
    parent: Dict[int, Optional[int]] = {}
    for shard_dist, shard_root, shard_parent in network.apply_programs(
        _bfs_outcomes
    ):
        dist.update(shard_dist)
        root.update(shard_root)
        parent.update(shard_parent)
    return dist, root, parent, stats


class _BallProgram(NodeProgram):
    """Ball-broadcast node logic with cessation on cap overflow."""

    def __init__(
        self, node_id: int, sources: FrozenSet[int], cap: Optional[int]
    ) -> None:
        self.node_id = node_id
        self.is_source = node_id in sources
        self.cap = cap
        #: source -> (distance, parent toward it).
        self.known: Dict[int, Tuple[int, Optional[int]]] = {}
        self.fresh: List[int] = []
        self.ceased_at: Optional[int] = None
        #: ids already relayed to (or received from) each neighbor.
        self._shared: Dict[int, Set[int]] = {}

    def setup(self, api: Api) -> None:
        self._shared = {u: set() for u in api.neighbors}
        if self.is_source:
            self.known[self.node_id] = (0, None)
            for u in api.neighbors:
                api.send(u, (self.node_id,))
                self._shared[u].add(self.node_id)

    def on_round(
        self, api: Api, round_index: int, inbox: List[Tuple[int, Any]]
    ) -> None:
        if self.ceased_at is not None:
            return
        fresh: List[int] = []
        for src, id_list in inbox:
            for source_id in id_list:
                self._shared[src].add(source_id)
                if source_id not in self.known:
                    self.known[source_id] = (round_index, src)
                    fresh.append(source_id)
        if not fresh:
            return
        # Relay the newly learned sources, skipping per-neighbor what that
        # neighbor demonstrably already knows.  If any single relay would
        # exceed the cap, cease participation (Sect. 4.4).
        outgoing = {}
        for u in api.neighbors:
            to_send = tuple(
                s for s in fresh if s not in self._shared[u]
            )
            if not to_send:
                continue
            if self.cap is not None and len(to_send) > self.cap:
                self.ceased_at = round_index
                return
            outgoing[u] = to_send
        for u, to_send in outgoing.items():
            api.send(u, to_send)
            self._shared[u].update(to_send)


def _ball_outcomes(
    programs: Dict[int, _BallProgram],
) -> Tuple[
    Dict[int, Dict[int, Tuple[int, Optional[int]]]], Dict[int, int]
]:
    """Engine-agnostic result gather (picklable for sharded workers)."""
    known = {v: dict(p.known) for v, p in programs.items()}
    ceased = {
        v: p.ceased_at
        for v, p in programs.items()
        if p.ceased_at is not None
    }
    return known, ceased


def ball_broadcast_protocol(
    graph: Graph,
    sources: Iterable[int],
    radius: int,
    max_message_words: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    reliable: bool = False,
    reliable_config: Optional[ReliableConfig] = None,
    obs: Optional[Obs] = None,
    phase: str = "ball",
    shards: Optional[int] = None,
) -> Tuple[
    Dict[int, Dict[int, Tuple[int, Optional[int]]]],
    Dict[int, int],
    NetworkStats,
]:
    """Broadcast each source's identity through its radius-``radius`` ball.

    Returns ``(known, ceased, stats)``: ``known[v]`` maps each source v
    heard to ``(distance, parent-toward-it)``; ``ceased[v]`` is the round
    at which v stopped relaying because of the word cap (absent if never).
    """
    with phase_scope(obs, phase):
        network = build_network(
            graph,
            partial(
                _BallProgram,
                sources=frozenset(sources),
                cap=max_message_words,
            ),
            max_message_words=max_message_words,
            fault_plan=fault_plan,
            reliable=reliable,
            reliable_config=reliable_config,
            obs=obs,
            shards=shards,
        )
        stats = network.run(max_rounds=radius)
    known: Dict[int, Dict[int, Tuple[int, Optional[int]]]] = {}
    ceased: Dict[int, int] = {}
    for shard_known, shard_ceased in network.apply_programs(_ball_outcomes):
        known.update(shard_known)
        ceased.update(shard_ceased)
    return known, ceased, stats


class _PipelinedBroadcastProgram(NodeProgram):
    """Capped-width broadcast with queueing (not cessation) + distances.

    Where the Sect. 4.4 ball protocol *ceases* on overflow (it can afford
    to: blocked sources are provably irrelevant whp), global broadcasts —
    e.g. the BFS trees of an additive-2 spanner — must deliver everything
    *exactly*.  Entries carry (source, distance) pairs; a node adopts any
    strictly improving distance and re-queues it, so at quiescence every
    node holds the exact distance and a shortest-path parent per source
    even when queueing delayed some announcements.  Per neighbor per
    round at most ``cap`` words (cap // 2 entries) are sent; rounds ~
    depth + (#sources)/cap — the width/time product Theorem 5 constrains.
    """

    def __init__(
        self, node_id: int, sources: FrozenSet[int], cap: Optional[int]
    ) -> None:
        self.node_id = node_id
        self.is_source = node_id in sources
        self.cap = cap
        #: source -> (distance, parent toward it); exact at quiescence.
        self.known: Dict[int, Tuple[int, Optional[int]]] = {}
        #: per-neighbor queue of (source, distance) entries to relay.
        self._queue: Dict[int, List[Tuple[int, int]]] = {}

    def setup(self, api: Api) -> None:
        self._queue = {u: [] for u in api.neighbors}
        if self.is_source:
            self.known[self.node_id] = (0, None)
            for u in api.neighbors:
                self._queue[u].append((self.node_id, 1))
        self._flush(api)

    def _flush(self, api: Api) -> None:
        entries_cap = None if self.cap is None else max(1, self.cap // 2)
        for u, queue in self._queue.items():
            if not queue:
                continue
            take = len(queue) if entries_cap is None else min(
                entries_cap, len(queue)
            )
            batch = tuple(queue[:take])
            del queue[:take]
            api.send(u, batch)

    def on_round(
        self, api: Api, round_index: int, inbox: List[Tuple[int, Any]]
    ) -> None:
        for src, entries in inbox:
            for source_id, dist in entries:
                current = self.known.get(source_id)
                if current is None or dist < current[0]:
                    self.known[source_id] = (dist, src)
                    for u in api.neighbors:
                        if u != src:
                            self._queue[u].append((source_id, dist + 1))
        self._flush(api)


def _pipelined_outcomes(
    programs: Dict[int, _PipelinedBroadcastProgram],
) -> Dict[int, Dict[int, Tuple[int, Optional[int]]]]:
    """Engine-agnostic result gather (picklable for sharded workers)."""
    return {v: dict(p.known) for v, p in programs.items()}


def pipelined_broadcast_protocol(
    graph: Graph,
    sources: Iterable[int],
    max_rounds: int,
    max_message_words: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    reliable: bool = False,
    reliable_config: Optional[ReliableConfig] = None,
    obs: Optional[Obs] = None,
    phase: str = "pipelined",
    shards: Optional[int] = None,
) -> Tuple[
    Dict[int, Dict[int, Tuple[int, Optional[int]]]],
    NetworkStats,
]:
    """Deliver every source's identity (with exact distance) everywhere.

    Returns ``(known, stats)`` where ``known[v][s] = (dist, parent)``;
    parents form shortest-path trees per source once the run quiesces,
    regardless of the width cap (queueing only delays convergence).
    """
    with phase_scope(obs, phase):
        network = build_network(
            graph,
            partial(
                _PipelinedBroadcastProgram,
                sources=frozenset(sources),
                cap=max_message_words,
            ),
            max_message_words=max_message_words,
            fault_plan=fault_plan,
            reliable=reliable,
            reliable_config=reliable_config,
            obs=obs,
            shards=shards,
        )
        stats = network.run(max_rounds=max_rounds, stop_when_idle=True)
    known: Dict[int, Dict[int, Tuple[int, Optional[int]]]] = {}
    for shard_known in network.apply_programs(_pipelined_outcomes):
        known.update(shard_known)
    return known, stats


class _RetraceProgram(NodeProgram):
    """Route add-path requests backward along parent pointers."""

    def __init__(
        self,
        node_id: int,
        parent_maps: Dict[int, Dict[int, Optional[int]]],
        requests: Dict[int, List[int]],
    ) -> None:
        self.node_id = node_id
        self.parents = parent_maps.get(node_id, {})
        self.initial_requests = list(requests.get(node_id, ()))
        self.edges_added: Set[Edge] = set()

    def _relay(self, api: Api, targets: Iterable[int]) -> None:
        per_parent: Dict[int, List[int]] = {}
        for target in targets:
            if target == self.node_id:
                continue  # the trace has arrived
            parent = self.parents.get(target)
            if parent is None:
                continue  # no route (outside the ball) — drop
            self.edges_added.add(canonical_edge(self.node_id, parent))
            per_parent.setdefault(parent, []).append(target)
        for parent, batch in per_parent.items():
            api.send(parent, tuple(batch))

    def setup(self, api: Api) -> None:
        self._relay(api, self.initial_requests)

    def on_round(
        self, api: Api, round_index: int, inbox: List[Tuple[int, Any]]
    ) -> None:
        incoming: List[int] = []
        for _, batch in inbox:
            incoming.extend(batch)
        self._relay(api, incoming)


def _retrace_outcomes(programs: Dict[int, _RetraceProgram]) -> Set[Edge]:
    """Engine-agnostic result gather (picklable for sharded workers)."""
    edges: Set[Edge] = set()
    for p in programs.values():
        edges |= p.edges_added
    return edges


def path_retrace_protocol(
    graph: Graph,
    parent_maps: Dict[int, Dict[int, Optional[int]]],
    requests: Dict[int, List[int]],
    radius: int,
    max_message_words: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    reliable: bool = False,
    reliable_config: Optional[ReliableConfig] = None,
    obs: Optional[Obs] = None,
    phase: str = "retrace",
    shards: Optional[int] = None,
) -> Tuple[Set[Edge], NetworkStats]:
    """Add shortest paths P(x, u) for every request ``u in requests[x]``.

    ``parent_maps[v][u]`` must point one hop from ``v`` toward ``u`` (as
    produced by :func:`ball_broadcast_protocol`); the added edge set is the
    union of the traced paths.
    """
    with phase_scope(obs, phase):
        network = build_network(
            graph,
            partial(
                _RetraceProgram, parent_maps=parent_maps, requests=requests
            ),
            max_message_words=max_message_words,
            fault_plan=fault_plan,
            reliable=reliable,
            reliable_config=reliable_config,
            obs=obs,
            shards=shards,
        )
        stats = network.run(max_rounds=radius)
    edges: Set[Edge] = set()
    for shard_edges in network.apply_programs(_retrace_outcomes):
        edges |= shard_edges
    return edges, stats
