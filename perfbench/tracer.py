"""In-memory span tracer that times calls into the package's public layers.

The tracer never edits program code: :meth:`Tracer.install` replaces
public functions and methods with timing wrappers (on their classes, and
on every ``repro`` module that imported the function by name) and
:meth:`Tracer.uninstall` puts the originals back.

Two kinds of boundary:

* a *span* is recorded individually: name, start, end, parent span,
  operation id (the cell or query being run) and self time;
* an *aggregate* boundary is hit per node step or per query
  (``on_round``, ``handle_request``), so it only adds to a per-parent
  ``[calls, total_s, self_s]`` record keyed by its enclosing span.

Self time is a call's duration minus the time of the wrapped calls made
directly inside it.  Calls nest strictly (one thread), so the self times
of all boundaries under a root span plus the root's own self time sum to
the root's duration exactly.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: boundary name -> layer.  Boundaries not listed are benchmark code.
LAYER_OF: Dict[str, str] = {
    "graphs.build_host": "graphs",
    "driver.skeleton": "node",
    "driver.fibonacci": "node",
    "driver.baswana_sen": "node",
    "driver.deterministic": "node",
    "node.setup": "node",
    "node.on_round": "node",
    "simulator.init": "simulator",
    "simulator.run": "simulator",
    "reliable.run": "reliable",
    "reliable.setup": "reliable",
    "reliable.on_round": "reliable",
    "sharded.init": "sharded",
    "sharded.run": "sharded",
    "spanner.verify_subgraph": "spanner",
    "spanner.verify_connectivity": "spanner",
    "spanner.verify_spanner_guarantee": "spanner",
    "artifact.build": "artifact",
    "artifact.save": "artifact",
    "artifact.load": "artifact",
    "service.init": "service",
    "service.handle": "service",
    "apps.oracle": "apps",
    "apps.route": "apps",
    "apps.label": "apps",
}

LAYERS: Tuple[str, ...] = tuple(sorted(set(LAYER_OF.values())))


class Tracer:
    """Spans and per-parent aggregates, kept in memory until the run ends."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, op id, self_s]
        self.spans: List[List[Any]] = []
        #: (parent span index, name) -> [calls, total_s, self_s]
        self.aggregates: Dict[Tuple[int, str], List[float]] = {}
        #: open frames: [start, child_s]
        self._frames: List[List[float]] = []
        #: indices of open spans (innermost last)
        self._open: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[None]:
        """Record one span around a block of benchmark code."""
        index = self._open_span(name, op)
        try:
            yield
        finally:
            self._close_span(index)

    def _open_span(self, name: str, op: Optional[str]) -> int:
        """Open a span; without an ``op`` it shares its parent's."""
        parent = self._open[-1] if self._open else -1
        if op is None and parent >= 0:
            op = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, op, 0.0])
        self._open.append(index)
        self._frames.append([perf_counter(), 0.0])
        return index

    def _close_span(self, index: int) -> None:
        end = perf_counter()
        start, child = self._frames.pop()
        self._open.pop()
        record = self.spans[index]
        record[1], record[2], record[5] = start, end, end - start - child
        if self._frames:
            self._frames[-1][1] += end - start

    def _span_wrapper(self, name: str, fn: Callable[..., Any]) -> Any:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = self._open_span(name, None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close_span(index)

        return wrapper

    def _aggregate_wrapper(self, name: str, fn: Callable[..., Any]) -> Any:
        frames = self._frames
        open_spans = self._open
        aggregates = self.aggregates

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [perf_counter(), 0.0]
            frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                total = end - frame[0]
                if frames:
                    frames[-1][1] += total
                key = (open_spans[-1] if open_spans else -1, name)
                record = aggregates.get(key)
                if record is None:
                    aggregates[key] = [1, total, total - frame[1]]
                else:
                    record[0] += 1
                    record[1] += total
                    record[2] += total - frame[1]

        return wrapper

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def patch_method(
        self, cls: type, attr: str, name: str, aggregate: bool
    ) -> None:
        """Wrap ``cls.attr`` if ``cls`` itself defines it."""
        original = cls.__dict__.get(attr)
        if original is None:
            return
        make = self._aggregate_wrapper if aggregate else self._span_wrapper
        setattr(cls, attr, make(name, original))
        self._patches.append((cls, attr, original))

    def patch_function(
        self, original: Callable[..., Any], name: str, aggregate: bool
    ) -> None:
        """Wrap a module function wherever a ``repro`` module binds it."""
        make = self._aggregate_wrapper if aggregate else self._span_wrapper
        wrapper = make(name, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def install(self) -> None:
        """Wrap every public entry point the per-layer metrics time."""
        from repro.applications.compact_routing import CompactRouter
        from repro.applications.distance_oracle import DistanceOracle
        from repro.applications.labeling import DistanceLabeling
        from repro.distributed import (
            baswana_sen_protocol,
            deterministic_protocol,
            fibonacci_protocol,
            primitives,  # noqa: F401 - registers its NodePrograms
            skeleton_protocol,
        )
        from repro.distributed.reliable import ReliableNetwork, ReliableProgram
        from repro.distributed.sharded import ShardedNetwork
        from repro.distributed.simulator import Network, NodeProgram
        from repro.graphs import zoo
        from repro.serving import artifact
        from repro.serving.server import QueryService
        from repro.spanner import verification

        if self._patches:
            raise RuntimeError("tracer already installed")
        functions = [
            (zoo.build_host, "graphs.build_host"),
            (skeleton_protocol.distributed_skeleton, "driver.skeleton"),
            (
                fibonacci_protocol.distributed_fibonacci_spanner,
                "driver.fibonacci",
            ),
            (
                baswana_sen_protocol.distributed_baswana_sen,
                "driver.baswana_sen",
            ),
            (
                deterministic_protocol.distributed_deterministic,
                "driver.deterministic",
            ),
            (verification.verify_subgraph, "spanner.verify_subgraph"),
            (verification.verify_connectivity, "spanner.verify_connectivity"),
            (
                verification.verify_spanner_guarantee,
                "spanner.verify_spanner_guarantee",
            ),
            (artifact.build_bundle, "artifact.build"),
            (artifact.save_bundle, "artifact.save"),
            (artifact.load_bundle, "artifact.load"),
        ]
        for fn, name in functions:
            self.patch_function(fn, name, aggregate=False)
        methods = [
            (Network, "__init__", "simulator.init"),
            (Network, "run", "simulator.run"),
            (ReliableNetwork, "run", "reliable.run"),
            (ReliableProgram, "setup", "reliable.setup"),
            (ReliableProgram, "on_round", "reliable.on_round"),
            (ShardedNetwork, "__init__", "sharded.init"),
            (ShardedNetwork, "run", "sharded.run"),
            (QueryService, "handle_request", "service.handle"),
            (DistanceOracle, "query", "apps.oracle"),
            (CompactRouter, "route", "apps.route"),
            (DistanceLabeling, "label", "apps.label"),
        ]
        for cls, attr, name in methods:
            self.patch_method(cls, attr, name, aggregate=True)
        self.patch_method(QueryService, "__init__", "service.init", False)
        for cls in _node_program_classes(NodeProgram):
            if cls is ReliableProgram:
                continue
            self.patch_method(cls, "setup", "node.setup", aggregate=True)
            self.patch_method(cls, "on_round", "node.on_round", aggregate=True)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # Reading the trace
    # ------------------------------------------------------------------
    def boundaries(self) -> List[Tuple[str, int, float, float, int]]:
        """``(name, calls, total_s, self_s, root index)`` per span/aggregate."""
        root_of: List[int] = []
        for index, record in enumerate(self.spans):
            parent = record[3]
            root_of.append(index if parent < 0 else root_of[parent])
        rows: List[Tuple[str, int, float, float, int]] = []
        for index, record in enumerate(self.spans):
            rows.append(
                (record[0], 1, record[2] - record[1], record[5],
                 root_of[index])
            )
        for (parent, name), (calls, total, self_s) in self.aggregates.items():
            root = root_of[parent] if parent >= 0 else -1
            rows.append((name, int(calls), total, self_s, root))
        return rows

    def roots(self) -> Dict[str, int]:
        """Root span name -> index."""
        return {
            record[0]: index
            for index, record in enumerate(self.spans)
            if record[3] < 0
        }

    def layer_self_times(self, root: Optional[str] = None) -> Dict[str, float]:
        """Self seconds per layer, plus ``unattributed`` benchmark code."""
        roots = self.roots()
        wanted = None if root is None else roots[root]
        out = {layer: 0.0 for layer in LAYERS}
        out["unattributed"] = 0.0
        for name, _, _, self_s, root_index in self.boundaries():
            if wanted is not None and root_index != wanted:
                continue
            out[LAYER_OF.get(name, "unattributed")] += self_s
        return out

    def totals(
        self, name: str, root: Optional[str] = None
    ) -> Tuple[int, float, float]:
        """``(calls, total_s, self_s)`` of one boundary, over one root or all."""
        wanted = None if root is None else self.roots()[root]
        calls, total, self_s = 0, 0.0, 0.0
        for row_name, row_calls, row_total, row_self, root_index in (
            self.boundaries()
        ):
            if row_name != name:
                continue
            if wanted is not None and root_index != wanted:
                continue
            calls += row_calls
            total += row_total
            self_s += row_self
        return calls, total, self_s

    def root_seconds(self, root: str) -> float:
        record = self.spans[self.roots()[root]]
        return float(record[2] - record[1])

    def dump(self) -> Dict[str, Any]:
        """Plain data: spans (times relative to the first span) and aggregates."""
        base = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                {
                    "name": name,
                    "start": round(start - base, 9),
                    "end": round(end - base, 9),
                    "parent": parent,
                    "op": op,
                    "self_s": round(self_s, 9),
                }
                for name, start, end, parent, op, self_s in self.spans
            ],
            "aggregates": [
                {
                    "parent": parent,
                    "name": name,
                    "calls": int(calls),
                    "total_s": round(total, 9),
                    "self_s": round(self_s, 9),
                }
                for (parent, name), (calls, total, self_s) in sorted(
                    self.aggregates.items()
                )
            ],
        }


def _node_program_classes(base: type) -> List[type]:
    seen: List[type] = []
    stack = list(base.__subclasses__())
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.append(cls)
        stack.extend(cls.__subclasses__())
    return sorted(seen, key=lambda c: (c.__module__, c.__qualname__))
