"""End-to-end integration tests across the whole library.

Each test exercises a realistic pipeline: generate a workload, run
several construction algorithms, verify every one's guarantee, and
check cross-algorithm relationships (the Fig. 1 orderings).
"""

from __future__ import annotations


import pytest

from repro.core.theory import (
    skeleton_distortion_bound,
    skeleton_size_bound,
)
from repro.baselines import (
    additive2_spanner,
    baswana_sen_spanner,
    bfs_forest,
    girth_skeleton,
    greedy_spanner,
)
from repro.core import build_fibonacci_spanner, build_skeleton
from repro.core.lower_bounds import run_locality_adversary
from repro.distributed import (
    distributed_baswana_sen,
    distributed_fibonacci_spanner,
    distributed_skeleton,
)
from repro.graphs import (
    chain_of_cliques,
    erdos_renyi_gnp,
    grid_2d,
    lower_bound_graph,
    preferential_attachment,
)
from repro.spanner import (
    stretch_statistics,
    verify_connectivity,
    verify_spanner_guarantee,
    verify_subgraph,
)


WORKLOADS = [
    ("er", erdos_renyi_gnp(250, 0.06, seed=1)),
    ("grid", grid_2d(14, 14)),
    ("scale-free", preferential_attachment(250, 3, seed=2)),
    ("clique-chain", chain_of_cliques(8, 6, link_length=3)),
]


@pytest.mark.parametrize("name,graph", WORKLOADS, ids=[w[0] for w in WORKLOADS])
class TestAllAlgorithmsAllWorkloads:
    def test_every_construction_is_valid(self, name, graph):
        spanners = {
            "skeleton": build_skeleton(graph, D=4, seed=3),
            "fibonacci": build_fibonacci_spanner(graph, order=2, seed=4),
            "baswana-sen": baswana_sen_spanner(graph, 3, seed=5),
            "greedy": greedy_spanner(graph, 5),
            "girth-skeleton": girth_skeleton(graph),
            "additive-2": additive2_spanner(graph, seed=6),
            "bfs-forest": bfs_forest(graph),
        }
        for algo, sp in spanners.items():
            assert verify_subgraph(graph, sp.edges), algo
            assert verify_connectivity(graph, sp.subgraph()), algo

    def test_guarantees_hold_simultaneously(self, name, graph):
        assert baswana_sen_spanner(graph, 3, seed=7).verify(alpha=5)
        assert greedy_spanner(graph, 3).verify(alpha=3)
        sp = additive2_spanner(graph, seed=8)
        assert sp.verify(alpha=1, beta=2)
        sk = build_skeleton(graph, D=4, seed=9)
        assert sk.verify(alpha=skeleton_distortion_bound(graph.n, 4))


class TestFig1Orderings:
    """The qualitative orderings the paper's Fig. 1 encodes."""

    @pytest.fixture(scope="class")
    def dense(self):
        return erdos_renyi_gnp(400, 0.15, seed=10)

    def test_skeleton_is_linear_size_others_are_not(self, dense):
        sk = build_skeleton(dense, D=4, seed=11)
        bs = baswana_sen_spanner(dense, 3, seed=12)
        a2 = additive2_spanner(dense, seed=13)
        assert sk.size <= skeleton_size_bound(dense.n, 4)
        assert sk.size < bs.size < a2.size

    def test_distortion_ordering_inverse_to_size(self, dense):
        sk = build_skeleton(dense, D=4, seed=14)
        bs = baswana_sen_spanner(dense, 3, seed=15)
        a2 = additive2_spanner(dense, seed=16)
        s_sk = stretch_statistics(dense, sk.subgraph(), num_sources=25,
                                  seed=1)
        s_bs = stretch_statistics(dense, bs.subgraph(), num_sources=25,
                                  seed=1)
        s_a2 = stretch_statistics(dense, a2.subgraph(), num_sources=25,
                                  seed=1)
        assert s_a2.max_additive <= 2
        assert s_bs.max_multiplicative <= 5
        assert (
            s_a2.mean_multiplicative
            <= s_bs.mean_multiplicative
            <= s_sk.mean_multiplicative
        )


class TestSequentialDistributedAgreement:
    """Every distributed protocol agrees with its sequential sibling."""

    def test_skeleton_agreement(self):
        from repro.util import make_prf

        g = erdos_renyi_gnp(180, 0.07, seed=20)
        seq = build_skeleton(g, D=4, prf=make_prf(21))
        dist = distributed_skeleton(g, D=4, seed=21)
        assert seq.metadata["cluster_counts"] == dist.metadata[
            "cluster_counts"
        ]

    def test_fibonacci_agreement(self):
        from repro.core.fibonacci import FibonacciParams, sample_levels

        g = grid_2d(12, 12)
        params = FibonacciParams.resolve(g.n, order=2, ell=4)
        levels = sample_levels(g, params, seed=22)
        seq = build_fibonacci_spanner(g, order=2, ell=4, levels=levels)
        dist = distributed_fibonacci_spanner(g, order=2, ell=4,
                                             levels=levels)
        # Ball memberships coincide, so sizes are near-identical (path
        # tie-breaking may differ).
        assert abs(seq.size - dist.size) <= max(5, 0.05 * seq.size)

    def test_baswana_sen_agreement(self):
        g = erdos_renyi_gnp(220, 0.08, seed=23)
        seq = baswana_sen_spanner(g, 3, seed=24)
        dist = distributed_baswana_sen(g, 3, seed=24)
        assert 0.5 * seq.size < dist.size < 2 * seq.size
        for sp in (seq, dist):
            ok, _ = verify_spanner_guarantee(
                g, sp.subgraph(), alpha=5, num_sources=20, seed=1
            )
            assert ok


class TestUpperMeetsLower:
    """Run a *real* algorithm on the lower-bound graph: the distortion it
    suffers is consistent with (and explained by) Theorem 3."""

    def test_skeleton_on_lower_bound_graph(self):
        lbg = lower_bound_graph(tau=2, chi=6, mu=8)
        sp = build_skeleton(lbg.graph, D=4, seed=30)
        assert verify_connectivity(lbg.graph, sp.subgraph())
        # The skeleton keeps only ~O(n) edges, so it must discard most
        # block edges — it is exactly the regime of Theorem 3.
        kept_blocks = len(sp.edges & lbg.block_edges)
        assert kept_blocks < len(lbg.block_edges)

    def test_adversary_beats_additive_budget(self):
        lbg = lower_bound_graph(tau=2, chi=8, mu=12)
        out = run_locality_adversary(lbg, c=2.0, trials=25, seed=31)
        # The forced additive distortion is Theta(mu), far above any
        # constant-additive guarantee.
        assert out.mean_additive_distortion > 6
