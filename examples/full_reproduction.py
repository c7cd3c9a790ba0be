"""One-page mini-reproduction: every headline claim, one screen.

Runs scaled-down versions of the key experiments and prints a summary —
the "did the reproduction work?" smoke check in under a minute.  The
real experiment suite (with assertions and parameter sweeps) lives in
benchmarks/; the record of paper-vs-measured is EXPERIMENTS.md.

Run:  python examples/full_reproduction.py
"""

from repro.core.theory import (
    skeleton_distortion_bound,
    skeleton_size_bound,
)
from repro.analysis.xtp import x_tp, x_tp_closed_form
from repro.core import build_fibonacci_spanner, build_skeleton
from repro.core.lower_bounds import run_locality_adversary
from repro.distributed import distributed_skeleton
from repro.graphs import erdos_renyi_gnp, grid_2d, lower_bound_graph
from repro.spanner import distance_profile, verify_connectivity
from repro.util import make_prf


def check(label: str, ok: bool, detail: str) -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {label}: {detail}")


def main() -> None:
    print("Pettie (PODC 2008) — mini-reproduction\n")

    # --- Theorem 2: linear-size skeleton -----------------------------
    print("Theorem 2 (linear-size skeleton):")
    g = erdos_renyi_gnp(500, 0.1, seed=1)
    sp = build_skeleton(g, D=4, seed=2)
    bound = skeleton_size_bound(g.n, 4)
    stats = sp.stretch(num_sources=25, seed=3)
    check("size D n/e + O(n log D)", sp.size <= bound,
          f"{sp.size} edges of m={g.m} (bound {bound:.0f})")
    check("distortion within bound",
          stats.max_multiplicative <= skeleton_distortion_bound(g.n, 4),
          f"max stretch {stats.max_multiplicative:.0f}")

    # --- Theorem 2 distributed: rounds, width, cross-validation ------
    seed = 99
    dist = distributed_skeleton(g, D=4, seed=seed)
    seq = build_skeleton(g, D=4, prf=make_prf(seed))
    st = dist.metadata["network_stats"]
    check("message cap honored", st.violations == 0,
          f"max {st.max_message_words} words (cap {st.cap})")
    check("sequential == distributed clustering",
          seq.metadata["cluster_counts"] == dist.metadata["cluster_counts"],
          f"{len(dist.metadata['cluster_counts'])} Expand calls agree")

    # --- Theorem 7: the staged distortion curve ----------------------
    print("\nTheorem 7 (Fibonacci staged distortion):")
    grid = grid_2d(40, 40)
    fib = build_fibonacci_spanner(
        grid, order=2, ell=5, probabilities=[0.15, 0.02], seed=3
    )
    profile = distance_profile(grid, fib.subgraph(), num_sources=40,
                               seed=4)
    near = max(mx for d, (_, _, mx, _) in profile.items() if d <= 3)
    far = max(mx for d, (_, _, mx, _) in profile.items() if d >= 30)
    check("distortion improves with distance", near > far,
          f"worst stretch {near:.2f} near vs {far:.2f} far")
    check("connectivity preserved",
          verify_connectivity(grid, fib.subgraph()),
          f"{fib.size} edges")

    # --- Theorems 3-5: the lower bound -------------------------------
    print("\nTheorems 3-5 (lower bound on G(tau, chi, mu)):")
    lbg = lower_bound_graph(tau=2, chi=8, mu=12)
    out = run_locality_adversary(lbg, c=2.0, trials=25, seed=6)
    check("forced additive distortion matches 2 p mu",
          0.6 <= out.distortion_ratio <= 1.4,
          f"measured {out.mean_additive_distortion:.1f} vs "
          f"predicted {out.predicted_additive_distortion:.1f}")

    # --- Lemma 6: the X^t_p correction --------------------------------
    print("\nLemma 6 (Baswana-Sen correction):")
    p, t = 0.25, 6
    check("recurrence under closed form",
          x_tp(p, t) <= x_tp_closed_form(p, t),
          f"X = {x_tp(p, t):.2f} <= {x_tp_closed_form(p, t):.2f}")

    print("\nFull record: EXPERIMENTS.md; "
          "all artifacts: pytest benchmarks/ --benchmark-only")


if __name__ == "__main__":
    main()
