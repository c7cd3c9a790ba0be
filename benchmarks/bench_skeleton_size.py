"""E2 — Theorem 2 / Lemma 6: skeleton size = D n / e + O(n log D).

Sweeps n and D, averages the measured spanner size over seeds, and
compares with Lemma 6's *explicit* expected-size expression.  Shape
checks: measured <= bound at every point; size grows linearly in n
(doubling n ~ doubles size) and increases with D.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.core.theory import skeleton_size_bound
from repro.core import build_skeleton
from repro.graphs import erdos_renyi_gnp

SEEDS = (1, 2, 3)


def _mean_size(graph, D):
    sizes = [build_skeleton(graph, D=D, seed=s).size for s in SEEDS]
    return sum(sizes) / len(sizes)


def test_skeleton_size_vs_n(benchmark, report):
    ns = (400, 800, 1600, 6400)
    D = 4

    def sweep():
        rows = []
        for n in ns:
            graph = erdos_renyi_gnp(n, 12.0 / n, seed=n)
            mean = _mean_size(graph, D)
            bound = skeleton_size_bound(n, D)
            rows.append((n, graph.m, round(mean, 1), round(mean / n, 2),
                         round(bound, 1), round(mean / bound, 2)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "E2a / skeleton size vs n (D=4)",
        format_table(
            ["n", "m", "mean size", "size/n", "Lemma 6 bound", "ratio"],
            rows,
            title="Skeleton size scales linearly in n (Lemma 6)",
        ),
    )
    for n, _, mean, _, bound, _ in rows:
        assert mean <= bound
    # Linear scaling: size/n stays within a narrow band.
    per_n = [r[3] for r in rows]
    assert max(per_n) / min(per_n) < 1.5


def test_skeleton_size_vs_d(benchmark, report):
    n = 800
    graph = erdos_renyi_gnp(n, 0.05, seed=99)

    def sweep():
        rows = []
        for D in (4, 6, 8, 12):
            mean = _mean_size(graph, D)
            bound = skeleton_size_bound(n, D)
            rows.append((D, round(mean, 1), round(bound, 1),
                         round(mean / bound, 2)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "E2b / skeleton size vs D (n=800)",
        format_table(
            ["D", "mean size", "Lemma 6 bound", "ratio"],
            rows,
            title="Density parameter D trades size for distortion",
        ),
    )
    for _, mean, bound, _ in rows:
        assert mean <= bound
    sizes = [r[1] for r in rows]
    assert sizes[-1] > sizes[0]  # larger D => denser skeleton
