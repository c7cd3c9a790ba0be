"""The Spanner result object shared by all construction algorithms."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set

from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.util.rng import SeedLike


class Spanner:
    """A spanner of a host graph: an edge subset plus provenance metadata.

    Every algorithm in :mod:`repro.core` and :mod:`repro.baselines` returns
    one of these.  ``metadata`` records the algorithm, its parameters and —
    for distributed constructions — round counts and message statistics, so
    the benchmark harness can print paper-style rows without re-deriving
    anything.
    """

    def __init__(
        self,
        host: Graph,
        edges: Iterable[Edge],
        metadata: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.host = host
        self.edges: Set[Edge] = {canonical_edge(u, v) for u, v in edges}
        has_edge = host.has_edge
        missing = {edge for edge in self.edges if not has_edge(*edge)}
        if missing:
            raise ValueError(
                f"spanner edge {min(missing)} not in host graph"
            )
        self.metadata: Dict[str, Any] = dict(metadata or {})
        self._subgraph: Optional[Graph] = None

    @property
    def size(self) -> int:
        """Number of spanner edges."""
        return len(self.edges)

    @property
    def density(self) -> float:
        """Edges per vertex — the sparseness axis of Fig. 1."""
        return self.size / max(1, self.host.n)

    def subgraph(self) -> Graph:
        """The spanner as a graph on all host vertices (cached)."""
        if self._subgraph is None:
            self._subgraph = self.host.edge_subgraph(self.edges)
        return self._subgraph

    def stretch(
        self,
        num_sources: Optional[int] = None,
        seed: SeedLike = None,
    ):
        """Measured stretch statistics (see :func:`stretch_statistics`)."""
        from repro.spanner.stretch import stretch_statistics

        return stretch_statistics(
            self.host, self.subgraph(), num_sources=num_sources, seed=seed
        )

    def verify(
        self,
        alpha: float,
        beta: float = 0.0,
        num_sources: Optional[int] = None,
        seed: SeedLike = None,
    ) -> bool:
        """Check the (alpha, beta) guarantee on (sampled) vertex pairs."""
        from repro.spanner.verification import verify_spanner_guarantee

        ok, _ = verify_spanner_guarantee(
            self.host,
            self.subgraph(),
            alpha,
            beta,
            num_sources=num_sources,
            seed=seed,
        )
        return ok

    def __repr__(self) -> str:
        algo = self.metadata.get("algorithm", "?")
        return (
            f"Spanner(algorithm={algo!r}, size={self.size}, "
            f"host_n={self.host.n}, host_m={self.host.m})"
        )
