"""Deterministic case sampling and the reproducer format.

A :class:`FuzzCase` pins everything one differential-fuzzing run depends
on: the host graph (a generator recipe *or* an explicit edge list), the
protocol and its parameters, the protocol seed, and an optional fault
specification run under the reliable-delivery adapter.  Case streams are
drawn from a single seeded RNG (:func:`repro.util.rng.ensure_rng`), so
``case_stream(seed, count)`` is a pure function of its arguments: the
same seed yields a byte-identical JSON dump of the stream on every run
(asserted by ``tests/test_fuzz.py``).

Shrunk reproducers always carry an explicit ``edges`` list (the shrinker
cannot express "this generator minus those vertices" as a recipe), which
is also the committed corpus format — see :mod:`repro.fuzz.corpus`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.protocols import PROTOCOLS, protocol_spec
from repro.graphs.generators import (
    balanced_tree,
    cycle,
    erdos_renyi_gnp,
    grid_2d,
    hypercube,
    path,
)
from repro.graphs.graph import Graph
from repro.util.rng import ensure_rng

__all__ = [
    "FUZZ_PROTOCOLS",
    "GRAPH_KINDS",
    "FuzzCase",
    "build_case_graph",
    "case_stream",
    "dumps_cases",
    "materialize",
]

#: the registered protocols the fuzzer exercises, plus the churn
#: scenario (update streams against the incremental spanner, checked by
#: the rebuild-equivalence battery).
FUZZ_PROTOCOLS: Tuple[str, ...] = PROTOCOLS + ("churn",)

#: host-graph recipes; weights bias toward the random families, where
#: the interesting coin-flip interactions live.
GRAPH_KINDS: Tuple[str, ...] = (
    "er",
    "er",
    "er",
    "grid",
    "cycle",
    "path",
    "tree",
    "hypercube",
)


@dataclass(frozen=True)
class FuzzCase:
    """One differential-fuzzing input, JSON-serializable end to end."""

    case_id: int
    protocol: str
    graph_kind: str
    n: int
    density: float
    graph_seed: int
    protocol_seed: int
    params: Dict[str, Any] = field(default_factory=dict)
    #: FaultPlan kwargs (rates + ``seed``); ``None`` = clean case.  Fault
    #: cases run under ``reliable=True`` and must match the clean output.
    fault: Optional[Dict[str, float]] = None
    #: explicit host graph (shrunk reproducers / corpus entries).
    vertices: Optional[Tuple[int, ...]] = None
    edges: Optional[Tuple[Tuple[int, int], ...]] = None
    #: churn cases only: the update-stream recipe (``batches``,
    #: ``batch_size``, ``stream_seed``, fractions), plus — once
    #: materialized — the frozen ``events`` (batched JSON event lists,
    #: :func:`repro.churn.events.events_to_json` format) the shrinker
    #: ddmins over.
    churn: Optional[Dict[str, Any]] = None
    note: str = ""

    @property
    def label(self) -> str:
        host = (
            f"edges[{len(self.edges)}]" if self.edges is not None
            else f"{self.graph_kind}(n={self.n}, d={self.density:g})"
        )
        fault = " +faults" if self.fault is not None else ""
        churn = ""
        if self.churn is not None:
            events = self.churn.get("events")
            count = (
                sum(len(b) for b in events)
                if events is not None
                else f"{self.churn.get('batches', '?')}x"
                     f"{self.churn.get('batch_size', '?')}"
            )
            churn = f" +churn[{count}]"
        return (
            f"{self.protocol} on {host} seed={self.protocol_seed}"
            f"{fault}{churn}"
        )

    def to_json(self) -> Dict[str, Any]:
        """Canonical dict form (stable key order via sort_keys dumps)."""
        data: Dict[str, Any] = {
            "case_id": self.case_id,
            "protocol": self.protocol,
            "graph_kind": self.graph_kind,
            "n": self.n,
            "density": self.density,
            "graph_seed": self.graph_seed,
            "protocol_seed": self.protocol_seed,
            "params": dict(self.params),
            "fault": dict(self.fault) if self.fault is not None else None,
            "vertices": (
                list(self.vertices) if self.vertices is not None else None
            ),
            "edges": (
                [list(e) for e in self.edges]
                if self.edges is not None
                else None
            ),
            "churn": dict(self.churn) if self.churn is not None else None,
            "note": self.note,
        }
        return data

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FuzzCase":
        return cls(
            case_id=int(data.get("case_id", 0)),
            protocol=str(data["protocol"]),
            graph_kind=str(data.get("graph_kind", "explicit")),
            n=int(data.get("n", 0)),
            density=float(data.get("density", 0.0)),
            graph_seed=int(data.get("graph_seed", 0)),
            protocol_seed=int(data.get("protocol_seed", 0)),
            params=dict(data.get("params") or {}),
            fault=(
                {str(k): float(v) for k, v in data["fault"].items()}
                if data.get("fault") is not None
                else None
            ),
            vertices=(
                tuple(int(v) for v in data["vertices"])
                if data.get("vertices") is not None
                else None
            ),
            edges=(
                tuple((int(u), int(v)) for u, v in data["edges"])
                if data.get("edges") is not None
                else None
            ),
            churn=(
                dict(data["churn"])
                if data.get("churn") is not None
                else None
            ),
            note=str(data.get("note", "")),
        )


def build_case_graph(case: FuzzCase) -> Graph:
    """The case's host graph — explicit edge list or generator recipe."""
    if case.edges is not None:
        return Graph(vertices=case.vertices or (), edges=case.edges)
    n = case.n
    if case.graph_kind == "er":
        return erdos_renyi_gnp(n, case.density, seed=case.graph_seed)
    if case.graph_kind == "grid":
        cols = max(2, int(n**0.5))
        return grid_2d(max(2, n // cols), cols)
    if case.graph_kind == "cycle":
        return cycle(max(3, n))
    if case.graph_kind == "path":
        return path(max(2, n))
    if case.graph_kind == "tree":
        # branching 2 or 3 keyed off the graph seed, height to reach ~n.
        branching = 2 + case.graph_seed % 2
        height, total = 1, 1 + branching
        while total < n:
            height += 1
            total += branching ** (height)
        return balanced_tree(branching, height)
    if case.graph_kind == "hypercube":
        dim = max(2, n.bit_length() - 1)
        return hypercube(dim)
    raise ValueError(f"unknown graph kind {case.graph_kind!r}")


def materialize(case: FuzzCase, graph: Optional[Graph] = None) -> FuzzCase:
    """Freeze the case's host graph into an explicit edge list.

    The result runs the identical computation (same vertices, same
    edges, same protocol seed) but no longer depends on the generator —
    the starting point for shrinking and the corpus format.  Churn
    cases additionally freeze their update stream: the seeded recipe is
    expanded once against the frozen host and stored as explicit JSON
    event batches under ``churn["events"]``.
    """
    if case.edges is not None and case.vertices is None:
        endpoints = tuple(sorted({v for e in case.edges for v in e}))
        case = replace(case, vertices=endpoints)
    if case.edges is None:
        g = graph if graph is not None else build_case_graph(case)
        case = replace(
            case,
            vertices=tuple(sorted(g.vertices())),
            edges=tuple(sorted(g.edges())),
        )
        graph = g
    if case.churn is not None and "events" not in case.churn:
        from repro.churn.events import churn_stream, events_to_json

        g = graph if graph is not None else build_case_graph(case)
        recipe = case.churn
        stream = churn_stream(
            g,
            batches=int(recipe.get("batches", 3)),
            batch_size=int(recipe.get("batch_size", 4)),
            seed=int(recipe.get("stream_seed", 0)),
            delete_fraction=float(recipe.get("delete_fraction", 0.45)),
            crash_fraction=float(recipe.get("crash_fraction", 0.2)),
            amnesia_fraction=float(recipe.get("amnesia_fraction", 0.5)),
        )
        case = replace(
            case, churn={**recipe, "events": events_to_json(stream)}
        )
    return case


def case_stream(
    seed: int,
    count: int,
    protocols: Optional[Sequence[str]] = None,
    fault_fraction: float = 0.3,
) -> List[FuzzCase]:
    """Draw ``count`` cases deterministically from ``seed``.

    Protocols rotate round-robin (every protocol gets coverage even in
    short runs); graph family, size, density, seeds, per-protocol knobs
    and the optional fault specification are all drawn from one seeded
    RNG, so the stream — including its JSON serialization — is a pure
    function of ``(seed, count, protocols, fault_fraction)``.
    """
    chosen = tuple(protocols) if protocols else FUZZ_PROTOCOLS
    for p in chosen:
        if p not in FUZZ_PROTOCOLS:
            raise ValueError(
                f"unknown protocol {p!r}; choose from {FUZZ_PROTOCOLS}"
            )
    rng = ensure_rng(seed)
    cases: List[FuzzCase] = []
    for i in range(count):
        protocol = chosen[i % len(chosen)]
        kind = rng.choice(GRAPH_KINDS)
        n = rng.randrange(8, 73)
        density = round(rng.uniform(0.05, 0.35), 3)
        fault: Optional[Dict[str, float]] = None
        if protocol != "churn" and rng.random() < fault_fraction:
            fault = {
                "seed": float(rng.randrange(1, 10_000)),
                "drop_rate": round(rng.uniform(0.0, 0.15), 3),
                "duplicate_rate": round(rng.uniform(0.0, 0.1), 3),
                "delay_rate": round(rng.uniform(0.0, 0.1), 3),
                "reorder_rate": round(rng.uniform(0.0, 0.2), 3),
            }
        churn: Optional[Dict[str, Any]] = None
        if protocol == "churn":
            # Faults are the stream's own crash/recover events here, so
            # the message-layer fault spec stays off.
            churn = {
                "batches": int(rng.randrange(2, 6)),
                "batch_size": int(rng.randrange(3, 8)),
                "stream_seed": int(rng.randrange(2**31)),
                "delete_fraction": 0.45,
                "crash_fraction": round(rng.uniform(0.0, 0.3), 3),
                "amnesia_fraction": 0.5,
            }
        cases.append(
            FuzzCase(
                case_id=i,
                protocol=protocol,
                graph_kind=kind,
                n=n,
                density=density,
                graph_seed=rng.randrange(2**31),
                protocol_seed=rng.randrange(2**31),
                params=(
                    {"k": int(rng.choice((2, 3)))}
                    if churn is not None
                    else protocol_spec(protocol).sample(rng)
                ),
                fault=fault,
                churn=churn,
            )
        )
    return cases


def dumps_cases(cases: Sequence[FuzzCase]) -> str:
    """Canonical JSONL dump of a case stream (sorted keys, no spaces) —
    byte-identical for identical streams, the replayability contract."""
    return "".join(
        json.dumps(c.to_json(), sort_keys=True, separators=(",", ":"))
        + "\n"
        for c in cases
    )
