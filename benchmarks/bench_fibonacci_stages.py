"""E6 — Theorem 7 / Corollary 1: the four-stage distortion curve.

The Fibonacci spanner's signature property: multiplicative distortion
*improves* with distance — logarithmic for adjacent pairs, then
log-logarithmic, then tending toward 3, then to 1 + eps.

At laptop scale the Lemma 8 probabilities sample V_1 almost empty (they
are tuned for n where log log n is meaningful), which degenerates the
spanner to the whole graph — stretch 1 everywhere and nothing to see.
The construction accepts any probability hierarchy, so we use practical
q_i (documented in DESIGN.md as a scale substitution) that make every
level non-trivial; the measured curve then exhibits exactly the staged
shape Theorem 7 proves:

* adjacent pairs suffer the worst stretch (stage 1),
* stretch decreases monotonically across the distance buckets,
* far pairs approach stretch 1 + eps' (stage 4),
* every distance respects Theorem 7's bound at (o, eps = 1).
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.core.theory import theorem7_distortion_bound
from repro.core import build_fibonacci_spanner
from repro.graphs import grid_2d
from repro.spanner import distance_profile

ORDER = 2
ELL = 5
PROBS = [0.15, 0.02]
BUCKETS = [("1-2", 1, 2), ("3-7", 3, 7), ("8-26", 8, 26),
           ("27-48", 27, 48), ("49+", 49, 10**6)]


def test_fibonacci_distortion_stages(benchmark, report):
    graph = grid_2d(40, 40)  # diameter 78

    def run():
        sp = build_fibonacci_spanner(
            graph, order=ORDER, ell=ELL, probabilities=PROBS, seed=3
        )
        profile = distance_profile(
            graph, sp.subgraph(), num_sources=40, seed=4
        )
        return sp, profile

    sp, profile = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    curve = []
    for name, lo, hi in BUCKETS:
        entries = [
            (d, mx) for d, (_, _, mx, _) in profile.items() if lo <= d <= hi
        ]
        if not entries:
            continue
        worst = max(mx for _, mx in entries)
        bound = max(
            theorem7_distortion_bound(d, ORDER, 1.0) for d, _ in entries
        )
        curve.append(worst)
        rows.append((name, len(entries), round(worst, 3), round(bound, 2)))

    report(
        "E6 / fibonacci four-stage distortion",
        format_table(
            ["distance bucket", "#distances", "measured max stretch",
             "Thm 7 bound (eps=1)"],
            rows,
            title=(
                f"Distortion improves with distance "
                f"(grid 40x40, o={ORDER}, ell={ELL}, q={PROBS}, "
                f"levels={sp.metadata['level_sizes']})"
            ),
        ),
    )

    # Every bucket under the staged bound.
    for name, _, worst, bound in rows:
        assert worst <= bound + 1e-9, name
    # The signature shape: strictly decreasing through the stages, with a
    # genuinely distorted near field and a near-isometric far field.
    assert curve[0] > 1.5
    for earlier, later in zip(curve, curve[1:]):
        assert later <= earlier + 1e-9
    assert curve[-1] <= 1.1


def test_profile_mean_also_improves(benchmark, report):
    graph = grid_2d(30, 30)

    def run():
        sp = build_fibonacci_spanner(
            graph, order=ORDER, ell=ELL, probabilities=PROBS, seed=5
        )
        return distance_profile(graph, sp.subgraph(), num_sources=30,
                                seed=6)

    profile = benchmark.pedantic(run, rounds=1, iterations=1)
    near = [mean for d, (_, _, _, mean) in profile.items() if d <= 3]
    far = [mean for d, (_, _, _, mean) in profile.items() if d >= 30]
    rows = [
        ("mean stretch, d <= 3", round(sum(near) / len(near), 4)),
        ("mean stretch, d >= 30", round(sum(far) / len(far), 4)),
    ]
    report(
        "E6b / mean stretch near vs far",
        format_table(["pairs", "mean stretch"], rows,
                     title="Average-case view of the staged distortion"),
    )
    assert sum(far) / len(far) < sum(near) / len(near)
