"""Metric names and units, and the per-layer metrics read from a trace.

``BENCHMARK.json`` lists the same names; ``tests/test_perfbench.py``
keeps the two in step.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from perfbench.common import metric
from perfbench.tracer import Tracer

#: end-to-end metric -> unit (every workload reports all of them).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "msgs_per_s": "1/s",
    "qps": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit (every workload reports all of them; a layer
#: a workload does not reach reads 0).
PER_LAYER: Dict[str, str] = {
    "graphs.build_s": "s",
    "node.step_s": "s",
    "node.steps": "count",
    "driver.skeleton_s": "s",
    "driver.fibonacci_s": "s",
    "driver.baswana_sen_s": "s",
    "driver.deterministic_s": "s",
    "simulator.self_s": "s",
    "simulator.networks": "count",
    "simulator.run_calls": "count",
    "simulator.rounds": "count",
    "simulator.messages": "count",
    "simulator.words": "count",
    "reliable.self_s": "s",
    "reliable.retransmissions": "count",
    "reliable.dropped": "count",
    "reliable.goodput_frac": "ratio",
    "reliable.round_inflation": "ratio",
    "sharded.run_s": "s",
    "sharded.worker_cpu_s": "s",
    "sharded.busy_frac": "ratio",
    "sharded.cut_edges": "count",
    "sharded.worker_rss_mb": "MB",
    "spanner.verify_s": "s",
    "artifact.build_s": "s",
    "artifact.save_s": "s",
    "artifact.load_s": "s",
    "artifact.bytes": "bytes",
    "service.init_s": "s",
    "service.handle_s": "s",
    "service.hit_frac": "ratio",
    "service.misses": "count",
    "server.batch_mean": "count",
    "server.io_s": "s",
    "apps.oracle_s": "s",
    "apps.route_s": "s",
    "apps.label_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.covered_frac": "ratio",
}

#: per-layer values a workload supplies itself (counts, /proc readings);
#: anything it leaves out reads 0.
SUPPLIED = (
    "simulator.rounds",
    "simulator.messages",
    "simulator.words",
    "reliable.retransmissions",
    "reliable.dropped",
    "reliable.goodput_frac",
    "reliable.round_inflation",
    "sharded.worker_cpu_s",
    "sharded.busy_frac",
    "sharded.cut_edges",
    "sharded.worker_rss_mb",
    "artifact.bytes",
    "service.hit_frac",
    "service.misses",
    "server.batch_mean",
    "server.io_s",
)


def per_layer(
    tracer: Tracer,
    supplied: Mapping[str, float],
    untraced_wall_s: float,
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, from the trace plus the supplied values.

    Times sum over the whole traced run (set-up and timed replay) except
    ``service.handle_s`` and ``apps.*``, which cover the replay only, so
    the landmark answers ``QueryService`` precomputes at start count in
    ``service.init_s`` and not as query work.
    """
    unknown = set(supplied) - set(SUPPLIED)
    if unknown:
        raise ValueError(f"not workload-supplied metrics: {sorted(unknown)}")

    def self_s(*names: str, root: Any = None) -> float:
        return sum(tracer.totals(name, root)[2] for name in names)

    def total_s(name: str, root: Any = None) -> float:
        return tracer.totals(name, root)[1]

    def calls(*names: str) -> int:
        return sum(tracer.totals(name)[0] for name in names)

    run_s = tracer.root_seconds("run")
    layer_self = tracer.layer_self_times()
    roots_s = sum(
        tracer.root_seconds(name) for name in tracer.roots()
    )
    values: Dict[str, float] = {
        "graphs.build_s": self_s("graphs.build_host"),
        "node.step_s": self_s("node.setup", "node.on_round"),
        "node.steps": calls("node.setup", "node.on_round"),
        "simulator.self_s": self_s("simulator.init", "simulator.run"),
        "simulator.networks": calls("simulator.init"),
        "simulator.run_calls": calls("simulator.run"),
        "reliable.self_s": self_s(
            "reliable.run", "reliable.setup", "reliable.on_round"
        ),
        "sharded.run_s": total_s("sharded.init") + total_s("sharded.run"),
        "spanner.verify_s": self_s(
            "spanner.verify_subgraph",
            "spanner.verify_connectivity",
            "spanner.verify_spanner_guarantee",
        ),
        "artifact.build_s": self_s("artifact.build"),
        "artifact.save_s": self_s("artifact.save"),
        "artifact.load_s": self_s("artifact.load"),
        "service.init_s": total_s("service.init"),
        "service.handle_s": total_s("service.handle", root="run"),
        "apps.oracle_s": self_s("apps.oracle", root="run"),
        "apps.route_s": self_s("apps.route", root="run"),
        "apps.label_s": self_s("apps.label", root="run"),
        "trace.overhead_frac": run_s / untraced_wall_s - 1.0,
        "trace.covered_frac": (
            1.0 - layer_self["unattributed"] / roots_s if roots_s else 0.0
        ),
    }
    for protocol in ("skeleton", "fibonacci", "baswana_sen", "deterministic"):
        values[f"driver.{protocol}_s"] = total_s(f"driver.{protocol}")
    for name in SUPPLIED:
        values[name] = float(supplied.get(name, 0.0))
    return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}
