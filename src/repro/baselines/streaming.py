"""Streaming (2k-1)-spanners (related work, Sect. 1.4).

The paper surveys Elkin [21] and Baswana [5] for streaming spanners
("edges arrive one at a time and the algorithm can only keep O(n^{1+1/k})
edges in memory") and Baswana–Sarkar / Elkin [8, 20, 21] for fully
dynamic maintenance.  This module provides the classical baseline both
lines refine:

* :class:`StreamingSpanner` — one pass over the edge stream; an edge is
  kept iff the spanner built so far has no path of length <= 2k - 1
  between its endpoints.  The output has girth > 2k, hence
  O(n^{1+1/k}) edges, and is a (2k - 1)-spanner of the streamed graph.

Fully dynamic maintenance under the same girth rule is
:class:`repro.churn.maintainer.IncrementalSpanner`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Optional, Set

from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.spanner.spanner import Spanner


class StreamingSpanner:
    """One-pass (2k-1)-spanner over an edge stream.

    Memory: only the kept edges (plus the vertex set); the host graph is
    never stored — exactly the streaming model of [5, 21].
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.threshold = 2 * k - 1
        self._adj: Dict[int, Set[int]] = {}
        self.kept: Set[Edge] = set()
        self.edges_seen = 0

    def _bounded_distance(self, u: int, v: int) -> Optional[int]:
        if u not in self._adj or v not in self._adj:
            return None
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            d = dist[x] + 1
            if d > self.threshold:
                continue
            for y in self._adj[x]:
                if y == v:
                    return d
                if y not in dist:
                    dist[y] = d
                    queue.append(y)
        return None

    def offer(self, u: int, v: int) -> bool:
        """Process one stream edge; returns whether it was kept."""
        self.edges_seen += 1
        if u == v:
            return False
        edge = canonical_edge(u, v)
        if edge in self.kept:
            return False
        if self._bounded_distance(u, v) is not None:
            return False
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)
        self.kept.add(edge)
        return True

    def consume(self, edges: Iterable[Edge]) -> "StreamingSpanner":
        for u, v in edges:
            self.offer(u, v)
        return self

    @property
    def size(self) -> int:
        return len(self.kept)

    def to_spanner(self, host: Graph) -> Spanner:
        """Package the kept edges against the (fully streamed) host."""
        return Spanner(
            host,
            self.kept,
            {
                "algorithm": "streaming-spanner",
                "k": self.k,
                "edges_seen": self.edges_seen,
            },
        )

