"""E3 — Lemma 5 / Theorem 2: skeleton distortion O(2^{log* n} log_D n).

Measures the max and mean multiplicative stretch of the skeleton on
several graph families and compares against Theorem 2's bound.  Shape
checks: measured max <= bound everywhere; raising D lowers the bound and
the measured distortion does not explode.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.core.theory import skeleton_distortion_bound
from repro.core import build_skeleton
from repro.graphs import chain_of_cliques, erdos_renyi_gnp, grid_2d, hypercube


def _families():
    return [
        ("er-sparse", erdos_renyi_gnp(700, 6.0 / 700, seed=1)),
        ("er-dense", erdos_renyi_gnp(500, 0.1, seed=2)),
        ("grid 20x20", grid_2d(20, 20)),
        ("hypercube d=9", hypercube(9)),
        ("clique-chain", chain_of_cliques(12, 8, link_length=4)),
    ]


def test_skeleton_distortion(benchmark, report):
    def sweep():
        rows = []
        for name, graph in _families():
            sp = build_skeleton(graph, D=4, seed=3)
            stats = sp.stretch(num_sources=30, seed=4)
            bound = skeleton_distortion_bound(graph.n, 4)
            rows.append(
                (name, graph.n, stats.max_multiplicative,
                 round(stats.mean_multiplicative, 2), round(bound, 1))
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "E3 / skeleton distortion",
        format_table(
            ["family", "n", "max stretch", "mean stretch", "Thm 2 bound"],
            rows,
            title="Skeleton distortion vs the Theorem 2 bound (D=4)",
        ),
    )
    for _, _, max_mult, mean_mult, bound in rows:
        assert max_mult <= bound
        assert mean_mult <= max_mult


def test_distortion_shrinks_with_d(benchmark, report):
    graph = erdos_renyi_gnp(600, 0.08, seed=5)

    def sweep():
        rows = []
        for D in (4, 8, 16):
            mean_max = 0.0
            for s in (6, 7, 8):
                sp = build_skeleton(graph, D=D, seed=s)
                mean_max += sp.stretch(num_sources=20, seed=1).max_multiplicative
            rows.append((D, round(mean_max / 3, 2),
                         round(skeleton_distortion_bound(graph.n, D), 1)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "E3b / distortion vs D",
        format_table(
            ["D", "mean of max stretch", "Thm 2 bound"],
            rows,
            title="Larger D: denser skeleton, smaller distortion bound",
        ),
    )
    bounds = [r[2] for r in rows]
    assert bounds == sorted(bounds, reverse=True)
    # Measured distortion must not grow when D grows.
    assert rows[-1][1] <= rows[0][1] + 1.0
