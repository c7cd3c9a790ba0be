"""Steadiness check: interleaved sets of benchmark runs, summarized.

    python3 perfbench/steady.py --workloads simulate serve --runs 10 --sets 2

Runs ``perfbench/run.py`` once per (run, set, workload), interleaving the
sets (A, B, A, B, ...) so a slow period of the host hits both sets alike;
run ``i`` of set ``k`` uses seed ``k * runs + i + 1``, so no two runs share
a seed.  For each workload and
end-to-end metric it prints each set's median, quartiles and spread (the
quartile distance as a share of the median) and how far set B's median
is from set A's, and writes everything to
``perfbench/out/steady-<workloads>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.common import provenance, write_out  # noqa: E402

SET_NAMES = "ABCDEFGH"

#: end-to-end timings also summarized as raw wall figures (run details).
RAW = ("setup_s", "msgs_per_s", "qps", "p50_ms", "p99_ms")


def one_run(
    command: List[str], workload: str, seed: int, seconds: int
) -> Dict[str, Any]:
    proc = subprocess.run(
        command + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result: Dict[str, Any] = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} incorrect: {result}")
    raw = json.loads(lines[-2])["details"]["raw_wall_metrics"]
    for name, value in raw.items():
        result["metrics"][f"raw.{name}"] = {"value": value}
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and spread, as ``statistics.quantiles`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workloads", nargs="+",
        default=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = SET_NAMES[: args.sets]
    values: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        w: {s: {} for s in sets} for w in args.workloads
    }
    for run in range(args.runs):
        for index, name in enumerate(sets):
            for workload in args.workloads:
                seed = index * args.runs + run + 1
                result = one_run(spec["command"], workload, seed, args.seconds)
                for metric, entry in result["metrics"].items():
                    values[workload][name].setdefault(metric, []).append(
                        entry["value"]
                    )
                print(f"run {run + 1} set {name} {workload}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                    if not k.startswith("raw.")
                ), flush=True)
    report: Dict[str, Any] = {"runs": args.runs, "seconds": args.seconds,
                              "provenance": provenance(), "workloads": {}}
    for workload in args.workloads:
        rows: Dict[str, Any] = {}
        for metric in list(bounds) + [f"raw.{m}" for m in RAW]:
            per_set = {s: summarize(values[workload][s][metric]) for s in sets}
            base = per_set[sets[0]]["median"]
            rows[metric] = {
                "bound": bounds.get(metric, 0.0),
                "sets": per_set,
                "median_shift": [
                    per_set[s]["median"] / base - 1.0 if base else 0.0
                    for s in sets[1:]
                ],
                "values": {s: values[workload][s][metric] for s in sets},
            }
            print(
                f"{workload:9s} {metric:16s} bound {rows[metric]['bound']:.2f} "
                + " ".join(
                    f"{s}: med {per_set[s]['median']:.5g} "
                    f"[{per_set[s]['q1']:.5g}, {per_set[s]['q3']:.5g}] "
                    f"spread {per_set[s]['spread']:.3f}"
                    for s in sets
                )
                + " shift "
                + " ".join(f"{x:+.3f}" for x in rows[metric]["median_shift"])
            )
        report["workloads"][workload] = rows
    print(write_out(f"steady-{'-'.join(args.workloads)}.json", report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
