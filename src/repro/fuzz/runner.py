"""Case execution: distributed runs, re-runs, fault runs, references.

A :class:`CaseExecution` owns one :class:`~repro.fuzz.cases.FuzzCase`'s
host graph and lazily materializes the four executions the oracle
battery (:mod:`repro.fuzz.oracles`) compares:

* ``clean()``    — the traced distributed run;
* ``second()``   — an independent re-run with the same seed (replay
  determinism: traces must be byte-identical);
* ``faulty()``   — the same run under the case's :class:`~repro.
  distributed.faults.FaultPlan` with ``reliable=True`` (the adapter
  must reproduce the fault-free output exactly);
* ``reference()`` — the sequential mirror named by the protocol's
  registry row (:mod:`repro.core.protocols`), under shared randomness.

Each execution is cached, so an oracle battery runs every protocol at
most four times per case regardless of how many oracles consult it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.core.protocols import protocol_spec
from repro.distributed.faults import FaultPlan
from repro.fuzz.cases import FuzzCase, build_case_graph
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.obs.trace import Obs, TraceRecorder
from repro.spanner.spanner import Spanner

__all__ = ["CaseExecution", "RunResult", "build_fault_plan"]


@dataclass(frozen=True)
class RunResult:
    """One execution's output, normalized across the six protocols.

    Spanner protocols fill ``edges``; the survey protocol fills
    ``known`` (per-vertex canonical edge sets).  ``trace`` is the
    canonical JSONL dump of the run's event stream.
    """

    edges: Optional[FrozenSet[Edge]]
    known: Optional[Dict[int, FrozenSet[Edge]]]
    metadata: Dict[str, Any]
    trace: str

    @property
    def size(self) -> int:
        return len(self.edges) if self.edges is not None else 0


def build_fault_plan(case: FuzzCase) -> Optional[FaultPlan]:
    """The case's :class:`FaultPlan` (``None`` for clean cases)."""
    if case.fault is None:
        return None
    spec = dict(case.fault)
    return FaultPlan(
        seed=int(spec.get("seed", 1)),
        drop_rate=spec.get("drop_rate", 0.0),
        duplicate_rate=spec.get("duplicate_rate", 0.0),
        delay_rate=spec.get("delay_rate", 0.0),
        reorder_rate=spec.get("reorder_rate", 0.0),
    )


def _run_distributed(
    case: FuzzCase,
    graph: Graph,
    fault_plan: Optional[FaultPlan],
    reliable: bool,
) -> RunResult:
    recorder = TraceRecorder()
    spec = protocol_spec(case.protocol)
    result = spec.run(
        graph,
        seed=case.protocol_seed,
        obs=Obs(recorder=recorder),
        fault_plan=fault_plan,
        reliable=reliable,
        **case.params,
    )
    if spec.spanner:
        return RunResult(
            edges=frozenset(result.edges),
            known=None,
            metadata=dict(result.metadata),
            trace=recorder.dumps(),
        )
    raw, _stats = result
    known = {
        v: frozenset(canonical_edge(a, b) for a, b in raw[v])
        for v in sorted(raw)
    }
    return RunResult(
        edges=None, known=known, metadata={}, trace=recorder.dumps()
    )


@dataclass
class CaseExecution:
    """Lazy, cached executions of one fuzz case."""

    case: FuzzCase
    graph: Graph = field(init=False)
    _clean: Optional[RunResult] = field(default=None, repr=False)
    _second: Optional[RunResult] = field(default=None, repr=False)
    _faulty: Optional[RunResult] = field(default=None, repr=False)
    _reference: Optional[Spanner] = field(default=None, repr=False)
    _reference_done: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        self.graph = build_case_graph(self.case)

    def clean(self) -> RunResult:
        if self._clean is None:
            self._clean = _run_distributed(
                self.case, self.graph, fault_plan=None, reliable=False
            )
        return self._clean

    def second(self) -> RunResult:
        if self._second is None:
            self._second = _run_distributed(
                self.case, self.graph, fault_plan=None, reliable=False
            )
        return self._second

    def faulty(self) -> Optional[RunResult]:
        if self.case.fault is None:
            return None
        if self._faulty is None:
            self._faulty = _run_distributed(
                self.case,
                self.graph,
                fault_plan=build_fault_plan(self.case),
                reliable=True,
            )
        return self._faulty

    def reference(self) -> Optional[Spanner]:
        if not self._reference_done:
            self._reference = protocol_spec(self.case.protocol).run_mirror(
                self.graph, seed=self.case.protocol_seed, **self.case.params
            )
            self._reference_done = True
        return self._reference

    def spanner_subgraph(self) -> Graph:
        """The clean run's spanner as a graph on all host vertices."""
        edges: Tuple[Edge, ...] = tuple(sorted(self.clean().edges or ()))
        return self.graph.edge_subgraph(edges)
