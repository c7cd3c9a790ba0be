"""Run one benchmark workload; the last stdout line is its JSON result.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload untraced for part of ``--seconds``, then
replays exactly the same operations with the layer tracer installed,
and prints the per-layer metrics; the spans go to
``perfbench/out/trace-<workload>-s<seed>.json``.  Run from the root of a
source checkout: the package is imported from its ``src/`` directory.

``setup_s`` is the median over several fresh processes (this script with
``--setup-only``), each timed from its own start, before the package is
imported, to the end of the workload's set-up.
"""

from time import perf_counter

#: the clock ``setup_s`` starts from: before the package is imported.
T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("simulate", "reliable", "serve", "sharded")

#: share of ``--seconds`` a traced run spends untraced before its replay.
TRACE_SHARE = 0.4

#: longest a ``--setup-only`` process may take.
PROBE_TIMEOUT_S = 120


def import_workload(name: str) -> Any:
    """Import the workload's class from this checkout; raises ImportError."""
    for path in (ROOT, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro resolved outside {SRC}: {repro.__file__}")
    if name == "serve":
        from perfbench.serve import Serve

        return Serve
    from perfbench.workloads import PROTOCOL_WORKLOADS

    return PROTOCOL_WORKLOADS[name]


def _result(
    checks: List[Any], metrics: Dict[str, Any], extra_failures: List[str]
) -> Dict[str, Any]:
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks) + len(extra_failures)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def time_setup(workload: Any, started: float) -> Dict[str, float]:
    """Set the workload up; ``wall_s`` runs from ``started`` to ready.

    ``factor`` converts it to reference seconds with kernel timings
    taken right after set-up (1.0 for an uncalibrated workload).
    """
    from perfbench.calibrate import HostClock

    workload.setup()
    wall_s = perf_counter() - started
    factor = HostClock().spot_factor() if workload.calibrated else 1.0
    return {"wall_s": wall_s, "factor": factor}


def probe_setup(workload: Any) -> Dict[str, float]:
    """Time one set-up in a fresh process (``--setup-only``)."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload",
        workload.name, "--seed", str(workload.seed), "--setup-only",
    ]
    if workload.small:
        command.append("--small")
    # stderr is dropped: a shard pool's shutdown prints tracebacks there.
    proc = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up probe exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    probe: Dict[str, float] = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe


def run_end_to_end(
    workload: Any, seconds: float
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Time ``setup_reps`` set-ups in fresh processes, then measure once.

    A calibrated workload reports times in reference seconds (see
    ``calibrate.py``); the raw wall figures go into the details.
    """
    from perfbench.calibrate import HostClock
    from perfbench.common import metric, nearest_rank
    from perfbench.metrics import END_TO_END

    probes = [probe_setup(workload) for _ in range(workload.setup_reps)]
    clock = HostClock() if workload.calibrated else None
    try:
        began = perf_counter()
        workload.setup()
        main_setup_s = perf_counter() - began
        if clock is not None:
            clock.sample()
        measured = workload.measure(seconds, clock=clock)
        rss = workload.peak_rss_mb()
    finally:
        workload.teardown()
    workload.finish(measured)

    def timings(factors: List[float], setup_s: float) -> Dict[str, float]:
        """Time metrics, each window's wall seconds scaled by its factor."""
        wall, latencies, first = 0.0, [], 0
        for (window_s, operations, _), factor in zip(measured.windows, factors):
            wall += window_s * factor
            latencies.extend(
                x * factor for x in measured.latencies_s[first:first + operations]
            )
            first += operations
        latencies.sort()
        return {
            "setup_s": setup_s,
            "msgs_per_s": measured.messages / wall,
            "qps": measured.cells / wall,
            "p50_ms": nearest_rank(latencies, 50) * 1000.0,
            "p99_ms": nearest_rank(latencies, 99) * 1000.0,
        }

    unscaled = [1.0] * len(measured.windows)
    factors = unscaled if clock is None else [
        clock.factor_at(middle) for _, _, middle in measured.windows
    ]
    values = timings(
        factors, statistics.median(p["wall_s"] * p["factor"] for p in probes)
    )
    raw = timings(unscaled, statistics.median(p["wall_s"] for p in probes))
    # The slowest operations do not slow with the kernel on this host: in
    # 40 runs per workload the wall p99 spread less than the priced one
    # (see README.md), so p99_ms stays in wall time.
    values["p99_ms"] = raw["p99_ms"]
    values["ok_frac"] = measured.checks.ok_frac
    values["peak_rss_mb"] = rss
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    details = {
        "setup_probes": probes,
        "main_setup_s": main_setup_s,
        "wall_s": measured.wall_s,
        "operations": measured.cells,
        "windows": len(measured.windows),
        "latency_samples": len(measured.latencies_s),
        "kernel_s": clock.samples if clock is not None else [],
        "raw_wall_metrics": raw,
        "failures": measured.checks.failures,
    }
    details.update(measured.detail_values())
    return _result([measured.checks], metrics, []), details


def run_traced(
    workload: Any, seconds: float
) -> Tuple[Dict[str, Any], Dict[str, Any], Any]:
    """Untraced run, then a traced replay of the same operations."""
    from perfbench.metrics import per_layer
    from perfbench.tracer import Tracer

    try:
        workload.setup()
        untraced = workload.measure(seconds * TRACE_SHARE)
    finally:
        workload.teardown()
    workload.finish(untraced)
    tracer = Tracer()
    try:
        with tracer.installed():
            with tracer.span("setup"):
                workload.setup()
            with tracer.span("run"):
                traced = workload.measure(
                    None, replay=untraced.plan, tracer=tracer
                )
        supplied = workload.layer_values(traced, tracer)
    finally:
        tracer.uninstall()
        workload.teardown()
    workload.finish(traced)
    mismatches = []
    if traced.outputs != untraced.outputs:
        mismatches.append("traced replay changed the counts or outputs")
    metrics = per_layer(tracer, supplied, untraced.wall_s)
    details = {
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": tracer.root_seconds("run"),
        "operations": traced.cells,
        "layer_self_s": tracer.layer_self_times(),
        "failures": untraced.checks.failures + traced.checks.failures
        + mismatches,
    }
    result = _result([untraced.checks, traced.checks], metrics, mismatches)
    return result, details, tracer


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    small: bool = False,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One run; returns ``(result line, details)`` and writes the trace."""
    from perfbench.common import provenance, write_out

    workload = import_workload(name)(seed, small=small)
    if trace:
        result, details, tracer = run_traced(workload, seconds)
        details["trace_file"] = write_out(
            f"trace-{name}-s{seed}.json",
            {"workload": name, "seed": seed, "trace": tracer.dump(),
             "layer_self_s": details["layer_self_s"]},
        )
    else:
        result, details = run_end_to_end(workload, seconds)
    details.update(
        {"workload": name, "seed": seed, "seconds": seconds,
         "trace": trace, "provenance": provenance()}
    )
    return result, details


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, tear down and print the set-up time (a setup_s probe)",
    )
    parser.add_argument(
        "--small", action="store_true", help="smoke-size instance (tests)"
    )
    args = parser.parse_args(argv)
    try:
        workload_class = import_workload(args.workload)
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        workload = workload_class(args.seed, small=args.small)
        try:
            probe = time_setup(workload, T0)
        finally:
            workload.teardown()
        print(json.dumps(probe, sort_keys=True))
        return 0
    try:
        result, details = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            small=args.small,
        )
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        return 1
    for failure in details["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    details["failures"] = details["failures"][:200]
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
