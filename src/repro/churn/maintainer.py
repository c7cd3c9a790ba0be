"""Incrementally maintained (2k-1)-spanner with region-limited repair.

:class:`IncrementalSpanner` is the fully dynamic form of the girth
rule behind :class:`repro.baselines.streaming.StreamingSpanner`, and the
churn engine's workhorse.  The maintained invariant is the streaming rule's,
restricted to the **live** graph (host edges whose endpoints are both
up): for every live host edge ``(u, v)`` the spanner contains a path of
length at most ``2k - 1`` between ``u`` and ``v``.  That invariant
implies the spanner is a (2k-1)-spanner of the live graph with girth
> 2k, hence at most ``n^(1+1/k) + n`` edges — which is what
:func:`repro.spanner.verification.classify_outcome` grades after every
batch.

Updates are applied immediately to the host/liveness state but their
*repair* is deferred to the end of the batch, so the policy engine can
weigh the whole batch's repair cost against a from-scratch rebuild:

* inserting a live edge only ever *adds* coverage — it is offered to
  the girth rule on the spot;
* deleting or crashing away a spanner edge seeds a **repair region**:
  any live edge whose covering path broke ran through the damage, so
  both of its endpoints lie within ``2k - 1`` live-graph hops of a
  damage seed.  Repair re-offers, in canonical order, every uncovered
  live edge inside the multi-source BFS ball of radius ``2k - 1``
  around the seeds — after which the invariant provably holds again,
  with no global re-scan;
* a recovering node's incident live edges rejoin via re-offers.
  Fail-pause recovery offers the node's **remembered** pre-crash
  spanner edges first (its volatile state survived); amnesia recovery
  has no memory to prefer, so every incident live edge is re-validated
  in canonical order — the sequential mirror of the distributed repair
  handshake in :mod:`repro.churn.repair_protocol`.

All iteration is over sorted snapshots and the only randomness is the
caller's (there is none here), so a maintenance run is byte-identical
under replay.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.churn.events import CRASH, DELETE, INSERT, RECOVER, UpdateEvent
from repro.graphs.graph import Edge, Graph, canonical_edge

__all__ = ["IncrementalSpanner", "RepairStats"]


@dataclass
class RepairStats:
    """Per-batch repair work accounting (the obs metrics payload)."""

    #: girth-rule offers issued (candidate edges re-examined).
    offers: int = 0
    #: offers that added their edge to the spanner.
    kept: int = 0
    #: adjacency entries scanned across all BFS work (region discovery
    #: and per-offer bounded searches) — "edges touched".
    edges_examined: int = 0
    #: vertices inside the repair region(s) of this batch.
    region_vertices: int = 0
    #: synchronous rounds a distributed execution of this repair would
    #: spend: region discovery (BFS radius) plus the deepest re-offer
    #: path check.
    repair_rounds: int = 0
    #: offers attributable to recovering nodes re-joining.
    recover_offers: int = 0
    #: full from-scratch rebuilds (0 or 1 per batch).
    rebuilds: int = 0
    #: events that were no-ops against current state (duplicate insert,
    #: delete of an absent edge, crash of a down node, ...).
    ignored: int = 0
    applied: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "offers": self.offers,
            "kept": self.kept,
            "edges_examined": self.edges_examined,
            "region_vertices": self.region_vertices,
            "repair_rounds": self.repair_rounds,
            "recover_offers": self.recover_offers,
            "rebuilds": self.rebuilds,
            "ignored": self.ignored,
            "applied": self.applied,
        }


@dataclass
class _Pending:
    """Damage accumulated during a batch, awaiting repair/rebuild."""

    seeds: Set[int] = field(default_factory=set)
    recovered: List[int] = field(default_factory=list)


class IncrementalSpanner:
    """A (2k-1)-spanner of an evolving, crash-prone host graph."""

    def __init__(self, k: int, host: Optional[Graph] = None) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.threshold = 2 * k - 1
        self.host = Graph() if host is None else host.copy()
        #: nodes currently crashed (their incident edges are not live).
        self.down: Set[int] = set()
        self.spanner: Set[Edge] = set()
        self._adj: Dict[int, Set[int]] = {}
        #: node -> incident spanner edges at crash time.  For fail-pause
        #: this is the node's own surviving volatile state; for amnesia
        #: it models what the *neighbors* still remember about shared
        #: edges (each endpoint of a spanner edge stores it), which is
        #: exactly what the repair handshake reconstructs.
        self.memory: Dict[int, Tuple[Edge, ...]] = {}
        #: nodes whose pending recovery is amnesiac (no memory priority).
        self.amnesiac: Set[int] = set()
        self.full_rebuilds = 0
        self.stats = RepairStats()
        self._pending = _Pending()
        if host is not None:
            self._initial_build()

    # ------------------------------------------------------------------
    # Live-graph views
    # ------------------------------------------------------------------
    def is_live(self, v: int) -> bool:
        return v not in self.down

    def live_edge(self, u: int, v: int) -> bool:
        return (
            self.host.has_edge(u, v)
            and u not in self.down
            and v not in self.down
        )

    def live_graph(self) -> Graph:
        """The host minus edges incident to down nodes (vertices kept)."""
        g = Graph(vertices=sorted(self.host.vertices()))
        for u, v in sorted(self.host.edges()):
            if u not in self.down and v not in self.down:
                g.add_edge(u, v)
        return g

    @property
    def live_m(self) -> int:
        count = 0
        for u, v in self.host.edges():
            if u not in self.down and v not in self.down:
                count += 1
        return count

    @property
    def size(self) -> int:
        return len(self.spanner)

    def spanner_edges(self) -> List[Edge]:
        return sorted(self.spanner)

    def incident_spanner_edges(self, v: int) -> List[Edge]:
        return sorted(
            canonical_edge(v, u) for u in self._adj.get(v, frozenset())
        )

    def remembered_edges(self, v: int) -> Tuple[Edge, ...]:
        """Pre-crash incident spanner edges of a (recovering) node."""
        return self.memory.get(v, ())

    # ------------------------------------------------------------------
    # Girth rule
    # ------------------------------------------------------------------
    def _bounded_distance(self, u: int, v: int) -> Optional[int]:
        """Spanner distance u->v if <= 2k-1, else None (cost-counted)."""
        adj = self._adj
        if u not in adj or v not in adj:
            return None
        stats = self.stats
        dist = {u: 0}
        queue = deque([u])
        threshold = self.threshold
        max_depth = 0
        found: Optional[int] = None
        while queue:
            x = queue.popleft()
            d = dist[x] + 1
            if d > threshold:
                continue
            # Sorted scan: the early break below makes the examined-edge
            # counter order-sensitive, and per-batch counters are part
            # of the byte-identical replay contract.
            for y in sorted(adj[x]):
                stats.edges_examined += 1
                if y == v:
                    found = d
                    queue.clear()
                    break
                if y not in dist:
                    dist[y] = d
                    queue.append(y)
            if found is not None:
                break
            if dist[x] > max_depth:
                max_depth = dist[x]
        depth = found if found is not None else max_depth + 1
        if depth > stats.repair_rounds:
            stats.repair_rounds = depth
        return found

    def _offer(self, u: int, v: int) -> bool:
        """Streaming rule: keep the live edge iff not yet spanned."""
        stats = self.stats
        stats.offers += 1
        edge = canonical_edge(u, v)
        if edge in self.spanner:
            return False
        if self._bounded_distance(u, v) is not None:
            return False
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)
        self.spanner.add(edge)
        stats.kept += 1
        return True

    def _drop_spanner_edge(self, u: int, v: int) -> None:
        edge = canonical_edge(u, v)
        if edge not in self.spanner:
            return
        self.spanner.discard(edge)
        self._adj[u].discard(v)
        self._adj[v].discard(u)

    def _initial_build(self) -> None:
        for u, v in sorted(self.host.edges()):
            if u not in self.down and v not in self.down:
                self._offer(u, v)
        self.stats = RepairStats()  # construction is not batch work

    # ------------------------------------------------------------------
    # Batch lifecycle
    # ------------------------------------------------------------------
    def begin_batch(self) -> None:
        """Reset per-batch accounting and pending damage."""
        self.stats = RepairStats()
        self._pending = _Pending()

    def apply(self, event: UpdateEvent) -> bool:
        """Apply one update to host/liveness state; defer its repair.

        Returns whether the event changed anything (no-ops are counted
        in ``stats.ignored`` and tolerated, so shrunk event streams
        never have to re-balance crash/recover pairs).
        """
        if event.kind == INSERT:
            changed = self._apply_insert(*event.edge)
        elif event.kind == DELETE:
            changed = self._apply_delete(*event.edge)
        elif event.kind == CRASH:
            changed = self._apply_crash(event.u, event.amnesia)
        elif event.kind == RECOVER:
            changed = self._apply_recover(event.u)
        else:  # pragma: no cover - UpdateEvent validates kinds
            raise ValueError(f"unknown update kind {event.kind!r}")
        if changed:
            self.stats.applied += 1
        else:
            self.stats.ignored += 1
        return changed

    def _apply_insert(self, u: int, v: int) -> bool:
        if not self.host.add_edge(u, v):
            return False
        if u not in self.down and v not in self.down:
            # Inserting can only add coverage: offer immediately.
            self._offer(u, v)
        return True

    def _apply_delete(self, u: int, v: int) -> bool:
        if not self.host.remove_edge(u, v):
            return False
        edge = canonical_edge(u, v)
        if edge in self.spanner:
            self._drop_spanner_edge(u, v)
            # Live edges that routed through (u, v) lost their path.
            self._pending.seeds.update(
                x for x in (u, v) if x not in self.down
            )
        return True

    def _apply_crash(self, node: int, amnesia: bool) -> bool:
        if node in self.down or not self.host.has_vertex(node):
            return False
        self.down.add(node)
        incident = self.incident_spanner_edges(node)
        self.memory[node] = tuple(incident)
        if amnesia:
            self.amnesiac.add(node)
        else:
            self.amnesiac.discard(node)
        for a, b in incident:
            self._drop_spanner_edge(a, b)
        # Paths through the crashed node broke; its live neighbors seed
        # the repair region (the node itself is down, not a seed).
        self._pending.seeds.update(
            x for x in self.host.neighbors(node) if x not in self.down
        )
        return True

    def _apply_recover(self, node: int) -> bool:
        if node not in self.down:
            return False
        self.down.discard(node)
        self._pending.recovered.append(node)
        # Its own presence seeds the region: newly live incident edges
        # (and only those — recovery adds edges, never removes paths)
        # need coverage.
        self._pending.seeds.add(node)
        return True

    # ------------------------------------------------------------------
    # Repair / rebuild
    # ------------------------------------------------------------------
    def _repair_region(self) -> Set[int]:
        """Live-graph BFS ball of radius 2k-1 around the damage seeds.

        Every live edge whose covering path broke has both endpoints in
        here: the old path had length <= 2k-1 and passed through a
        damaged element whose live endpoint is a seed, and the path's
        surviving prefix connects each endpoint to such a seed within
        the live graph.
        """
        stats = self.stats
        seeds = sorted(
            s
            for s in self._pending.seeds
            if s not in self.down and self.host.has_vertex(s)
        )
        dist: Dict[int, int] = {s: 0 for s in seeds}
        queue = deque(seeds)
        radius = 0
        while queue:
            x = queue.popleft()
            d = dist[x] + 1
            if d > self.threshold:
                continue
            for y in self.host.neighbors(x):
                stats.edges_examined += 1
                if y in self.down or y in dist:
                    continue
                dist[y] = d
                if d > radius:
                    radius = d
                queue.append(y)
        stats.region_vertices = len(dist)
        stats.repair_rounds = max(stats.repair_rounds, radius)
        return set(dist)

    def repair_candidates(self) -> List[Edge]:
        """The ordered offer list a repair of the pending damage runs.

        Fail-pause recoveries lead with their remembered pre-crash
        spanner edges (still-live ones), then every uncovered live edge
        inside the repair region follows in canonical order.  Also used
        *unexecuted* by the policy engine as the repair cost estimate.
        """
        ordered: List[Edge] = []
        seen: Set[Edge] = set()
        for node in sorted(set(self._pending.recovered)):
            if node in self.down or node in self.amnesiac:
                continue
            for a, b in self.remembered_edges(node):
                edge = canonical_edge(a, b)
                if edge in seen or edge in self.spanner:
                    continue
                if self.live_edge(a, b):
                    ordered.append(edge)
                    seen.add(edge)
        region = self._repair_region()
        for u in sorted(region):
            for v in sorted(self.host.neighbors(u)):
                if v <= u or v not in region or v in self.down:
                    continue
                edge = (u, v)
                if edge in seen or edge in self.spanner:
                    continue
                ordered.append(edge)
                seen.add(edge)
        return ordered

    def execute_repair(self, candidates: Optional[List[Edge]] = None) -> int:
        """Re-offer the candidate list; returns edges added.

        Restores the live-graph girth invariant without a global scan
        (see :meth:`_repair_region` for the locality argument; the
        post-repair invariant is additionally asserted batch-by-batch by
        the churn fuzz oracle).  Pass the list from a prior
        :meth:`repair_candidates` call to avoid re-running (and
        re-counting) the region survey — the policy engine already paid
        for it when estimating the repair cost.
        """
        recovered = set(self._pending.recovered)
        if candidates is None:
            candidates = self.repair_candidates()
        added = 0
        for u, v in candidates:
            counts_as_recover = u in recovered or v in recovered
            if self._offer(u, v):
                added += 1
            if counts_as_recover:
                self.stats.recover_offers += 1
        self._finish_batch()
        return added

    def rebuild(self) -> None:
        """From-scratch girth-rule rebuild over the live graph."""
        self.full_rebuilds += 1
        self.stats.rebuilds += 1
        self.spanner = set()
        self._adj = {}
        for u, v in sorted(self.host.edges()):
            if u not in self.down and v not in self.down:
                self._offer(u, v)
        self._finish_batch()

    def _finish_batch(self) -> None:
        for node in sorted(set(self._pending.recovered)):
            if node in self.down:
                # Recovered and crashed again within the same batch: the
                # later crash's memory is current, keep it.
                continue
            self.memory.pop(node, None)
            self.amnesiac.discard(node)
        self._pending = _Pending()

    # ------------------------------------------------------------------
    # Invariant (test/oracle hook)
    # ------------------------------------------------------------------
    def check_invariant(self) -> bool:
        """Every live host edge is spanned within 2k-1 hops."""
        for u, v in sorted(self.host.edges()):
            if u in self.down or v in self.down:
                continue
            if canonical_edge(u, v) in self.spanner:
                continue
            if self._bounded_distance(u, v) is None:
                return False
        return True

    def uncovered_edges(self, limit: int = 8) -> List[Edge]:
        """Live edges violating the invariant (diagnostics)."""
        bad: List[Edge] = []
        for u, v in sorted(self.host.edges()):
            if u in self.down or v in self.down:
                continue
            if canonical_edge(u, v) in self.spanner:
                continue
            if self._bounded_distance(u, v) is None:
                bad.append((u, v))
                if len(bad) >= limit:
                    break
        return bad
