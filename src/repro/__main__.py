"""CLI: `python -m repro` — Fig. 1 comparison, trace tooling, linting.

Legacy report (unchanged interface)::

    python -m repro [n] [p] [seed]

builds an Erdős–Rényi host with the given parameters (defaults n=400,
p=0.08, seed=2008) and prints the measured Fig. 1 comparison table.

Trace tooling (see ``docs/observability.md``)::

    python -m repro trace record OUT [--protocol P] [--n N] [--p P]
                                     [--seed S] [--reliable]
                                     [--drop-rate R] [--fault-seed S]
    python -m repro trace summary FILE
    python -m repro trace diff A B
    python -m repro trace filter FILE [--kind K] [--round R]
                                      [--node V] [--src V] [--dst V]

Static analysis (see ``docs/static_analysis.md``)::

    python -m repro lint [paths] [--select CODES] [--format {text,json}]
                         [--list-rules] [--report-unused-suppressions]

Benchmarks (see ``docs/performance.md``)::

    python -m repro bench [--smoke] [--out PATH] [--jobs N] [--reps N]
                          [--baseline PATH] [--threshold F]
                          [--min-wall S] [--list]

Differential fuzzing (see ``docs/fuzzing.md``)::

    python -m repro fuzz [--cases N] [--seed S] [--protocols P ...]
                         [--corpus DIR] [--replay] [--no-shrink]

Churn scenario (see ``docs/robustness.md``)::

    python -m repro churn [--n N] [--k K] [--batches B] [--batch-size E]
                          [--crash-fraction F] [--amnesia-fraction F]
                          [--policy MODE] [--oracle] [--json PATH]

Serving tier (see ``docs/serving.md``)::

    python -m repro build-artifact OUT [--graph K] [--scale S] [--seed N]
    python -m repro serve BUNDLE [--port P | --unix PATH]
    python -m repro loadgen --bundle BUNDLE [--connect HOST:PORT]
                            [--requests N] [--mix M] [--shutdown]

Subcommand dispatch goes through the :data:`SUBCOMMANDS` registry;
``tests/test_cli_usage.py`` asserts every registered name is
documented in the usage string.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from typing import Callable, Dict, List, Optional

from repro.core.protocols import PROTOCOLS
from repro.obs import (
    MetricsRegistry,
    Obs,
    PhaseProfiler,
    TraceRecorder,
    dumps_events,
    filter_events,
    first_divergence,
    load_events,
    run_traced,
    summarize,
)


def _fig1(argv: List[str]) -> int:
    """The original `python -m repro [n] [p] [seed]` report."""
    from repro.analysis.report import fig1_report, render_fig1
    from repro.graphs import erdos_renyi_gnp

    n = int(argv[0]) if len(argv) > 0 else 400
    p = float(argv[1]) if len(argv) > 1 else 0.08
    seed = int(argv[2]) if len(argv) > 2 else 2008

    graph = erdos_renyi_gnp(n, p, seed=seed)
    print(f"host: Erdos-Renyi G(n={n}, p={p}) -> m={graph.m}\n")
    rows = fig1_report(graph, seed=seed)
    print(render_fig1(rows, title="Fig. 1, measured on this host"))
    print(
        "\nSee EXPERIMENTS.md for the full reproduction record and\n"
        "`pytest benchmarks/ --benchmark-only` for every paper artifact."
    )
    return 0


def _trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Record, summarize, diff and filter simulator traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="run one protocol traced and write a JSONL trace"
    )
    record.add_argument("out", help="output JSONL path ('-' for stdout)")
    record.add_argument(
        "--protocol", choices=PROTOCOLS, default="skeleton"
    )
    record.add_argument("--n", type=int, default=120,
                        help="Erdős–Rényi host size (default 120)")
    record.add_argument("--p", type=float, default=0.08,
                        help="Erdős–Rényi edge probability (default 0.08)")
    record.add_argument("--seed", type=int, default=2008,
                        help="graph + protocol seed (default 2008)")
    record.add_argument("--reliable", action="store_true",
                        help="run under the reliable-delivery adapter")
    record.add_argument("--drop-rate", type=float, default=0.0,
                        help="FaultPlan drop rate (enables fault injection)")
    record.add_argument("--fault-seed", type=int, default=1,
                        help="FaultPlan seed (default 1)")
    record.add_argument("--metrics", action="store_true",
                        help="print the metrics registry after the run")
    record.add_argument("--profile", action="store_true",
                        help="print per-phase wall-clock attribution")

    summary = sub.add_parser("summary", help="print totals and the "
                             "per-phase breakdown of a trace")
    summary.add_argument("file", help="JSONL trace ('-' for stdin)")

    diff = sub.add_parser("diff", help="report the first divergent "
                          "(round, edge, event) of two traces")
    diff.add_argument("a", help="first JSONL trace")
    diff.add_argument("b", help="second JSONL trace")

    filt = sub.add_parser("filter", help="select events by type, round "
                          "or participating node")
    filt.add_argument("file", help="JSONL trace ('-' for stdin)")
    filt.add_argument("--kind", help="event type (send, fault, ...)")
    filt.add_argument("--round", type=int, dest="round_no")
    filt.add_argument("--node", type=int,
                      help="matches src, dst or node fields")
    filt.add_argument("--src", type=int)
    filt.add_argument("--dst", type=int)
    return parser


def _load(path: str):
    return load_events(sys.stdin if path == "-" else path)


def _trace_record(args: argparse.Namespace) -> int:
    from repro.distributed import FaultPlan
    from repro.graphs import erdos_renyi_gnp

    graph = erdos_renyi_gnp(args.n, args.p, seed=args.seed)
    recorder = TraceRecorder()
    obs = Obs(
        recorder=recorder,
        metrics=MetricsRegistry() if args.metrics else None,
        profiler=PhaseProfiler() if args.profile else None,
    )
    fault_plan = (
        FaultPlan(seed=args.fault_seed, drop_rate=args.drop_rate)
        if args.drop_rate > 0
        else None
    )
    run_traced(
        args.protocol,
        graph,
        seed=args.seed,
        obs=obs,
        reliable=args.reliable,
        fault_plan=fault_plan,
    )
    if args.out == "-":
        sys.stdout.write(recorder.dumps())
    else:
        recorder.dump(args.out)
        print(
            f"{args.protocol} on G(n={args.n}, p={args.p}) seed={args.seed}:"
            f" {len(recorder)} events -> {args.out}"
        )
    if obs.metrics is not None:
        print()
        print(obs.metrics.render())
    if obs.profiler is not None:
        print()
        print(obs.profiler.render())
    return 0


def _trace_main(argv: List[str]) -> int:
    args = _trace_parser().parse_args(argv)
    if args.command == "record":
        return _trace_record(args)
    if args.command == "summary":
        print(summarize(_load(args.file)).render())
        return 0
    if args.command == "diff":
        divergence = first_divergence(_load(args.a), _load(args.b))
        if divergence is None:
            print("traces are identical")
            return 0
        print(divergence.render())
        return 1
    if args.command == "filter":
        events = filter_events(
            _load(args.file),
            kind=args.kind,
            round_no=args.round_no,
            node=args.node,
            src=args.src,
            dst=args.dst,
        )
        sys.stdout.write(dumps_events(events))
        return 0
    raise AssertionError(args.command)


_USAGE = """\
usage: python -m repro [subcommand] ...

subcommands:
  lint [paths] [--select CODES] [--format {text,json}]
        run the repro-lint whole-program static analyzer (protocol
        invariants REP001-REP005, cross-module rules REP010-REP013;
        exit 1 on findings) -- docs/static_analysis.md
  trace {record,summary,diff,filter} ...
        record and inspect simulator traces -- docs/observability.md
  bench [--smoke] [--out PATH] [--baseline PATH] ...
        run the simulator benchmark matrix in parallel and emit/compare
        BENCH_*.json reports (exit 1 on regression) -- docs/performance.md
  fuzz [--cases N] [--seed S] [--protocols P ...] [--corpus DIR]
        differential-fuzz the distributed protocols against their
        sequential references and theorem bounds; failures shrink to
        JSON reproducers (exit 1) -- docs/fuzzing.md
  churn [--n N] [--k K] [--batches B] [--policy MODE] [--oracle]
        run the self-healing spanner under a seeded edge-churn +
        crash/recovery stream with repair-vs-rebuild policy and
        per-batch grading (exit 1 on degradation) -- docs/robustness.md
  build-artifact OUT [--graph K] [--scale S] [--seed N] [--k K] [--D D]
        build a spanner + oracle bundle and save it as a canonical,
        checksummed artifact file -- docs/serving.md
  serve BUNDLE [--port P | --unix PATH] [--cache-size N] [--landmarks N]
        answer dist/route/label queries from a bundle over
        newline-delimited JSON (TCP or unix socket) -- docs/serving.md
  loadgen --bundle BUNDLE [--connect HOST:PORT | --unix PATH] ...
        drive a deterministic seeded query stream at a server (or an
        in-process one) and report p50/p99/QPS/cache -- docs/serving.md
  [n] [p] [seed]
        (no subcommand) print the measured Fig. 1 comparison table on
        an Erdos-Renyi host G(n, p) (defaults: n=400 p=0.08 seed=2008)

Use `python -m repro <subcommand> --help` for subcommand options.
"""


def _deferred(module: str, attr: str) -> Callable[[List[str]], int]:
    """A subcommand runner that imports its implementation lazily.

    Keeps ``python -m repro --help`` and the Fig. 1 path from paying
    the import cost of every subsystem (asyncio serving stack, bench
    matrix, fuzzing corpus machinery, ...).
    """

    def run(argv: List[str]) -> int:
        handler: Callable[[List[str]], int] = getattr(
            import_module(module), attr
        )
        return handler(argv)

    return run


#: subcommand name -> runner taking the remaining argv.  The usage
#: test walks this registry, so adding an entry here without a
#: ``_USAGE`` line (or vice versa) fails the suite.
SUBCOMMANDS: Dict[str, Callable[[List[str]], int]] = {
    "trace": _trace_main,
    "lint": _deferred("repro.lint.runner", "main"),
    "bench": _deferred("repro.perf.cli", "main"),
    "fuzz": _deferred("repro.fuzz.cli", "main"),
    "churn": _deferred("repro.churn.cli", "main"),
    "build-artifact": _deferred("repro.serving.cli", "build_artifact_main"),
    "serve": _deferred("repro.serving.cli", "serve_main"),
    "loadgen": _deferred("repro.serving.cli", "loadgen_main"),
}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("-h", "--help", "help"):
        print(_USAGE, end="")
        return 0
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    return _fig1(argv)


if __name__ == "__main__":
    raise SystemExit(main())
