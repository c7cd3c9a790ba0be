"""Tests for the Spanner object, stretch measurement and verification."""

from __future__ import annotations

import pytest

from repro.graphs import Graph, cycle, grid_2d, path
from repro.spanner import (
    Spanner,
    distance_profile,
    pair_stretch,
    stretch_statistics,
    verify_connectivity,
    verify_spanner_guarantee,
    verify_subgraph,
)


def tree_spanner_of_cycle(n: int):
    g = cycle(n)
    edges = [(i, i + 1) for i in range(n - 1)]  # drop the closing edge
    return g, Spanner(g, edges, {"algorithm": "test"})


class TestSpannerObject:
    def test_size_and_density(self):
        g, sp = tree_spanner_of_cycle(10)
        assert sp.size == 9
        assert sp.density == pytest.approx(0.9)

    def test_rejects_foreign_edges(self):
        g = path(4)
        with pytest.raises(ValueError):
            Spanner(g, [(0, 2)])

    def test_names_the_smallest_foreign_edge(self):
        g = path(4)
        with pytest.raises(ValueError, match=r"edge \(0, 3\) not in host"):
            Spanner(g, [(0, 1), (3, 1), (0, 3)])

    def test_edges_canonicalized(self):
        g = path(4)
        sp = Spanner(g, [(1, 0), (0, 1)])
        assert sp.edges == {(0, 1)}

    def test_subgraph_cached_and_complete(self):
        g, sp = tree_spanner_of_cycle(8)
        sub = sp.subgraph()
        assert sub is sp.subgraph()
        assert sub.n == g.n and sub.m == 7

    def test_repr_mentions_algorithm(self):
        _, sp = tree_spanner_of_cycle(5)
        assert "test" in repr(sp)

    def test_verify_shortcut(self):
        g, sp = tree_spanner_of_cycle(10)
        assert sp.verify(alpha=9)
        assert not sp.verify(alpha=1)


class TestStretchStatistics:
    def test_identity_spanner_has_unit_stretch(self):
        g = grid_2d(4, 4)
        stats = stretch_statistics(g, g)
        assert stats.max_multiplicative == 1.0
        assert stats.max_additive == 0.0
        assert stats.ok

    def test_tree_spanner_of_cycle_worst_pair(self):
        g, sp = tree_spanner_of_cycle(10)
        stats = stretch_statistics(g, sp.subgraph())
        # Pair (0, 9): distance 1 in cycle, 9 in the path.
        assert stats.max_multiplicative == 9.0
        assert stats.max_additive == 8.0

    def test_sampled_sources_subset(self):
        g = grid_2d(5, 5)
        stats = stretch_statistics(g, g, num_sources=3, seed=1)
        assert stats.num_pairs == 3 * 24

    def test_explicit_sources(self):
        g = path(6)
        stats = stretch_statistics(g, g, sources=[0])
        assert stats.num_pairs == 5

    def test_disconnection_detected(self):
        g = path(4)
        sub = g.edge_subgraph([(0, 1)])
        stats = stretch_statistics(g, sub)
        assert not stats.ok
        assert stats.disconnected_pairs > 0
        assert "DISCONNECTED" in str(stats)

    def test_mean_bounded_by_max(self):
        g, sp = tree_spanner_of_cycle(12)
        stats = stretch_statistics(g, sp.subgraph())
        assert stats.mean_multiplicative <= stats.max_multiplicative
        assert stats.mean_additive <= stats.max_additive


class TestPairStretch:
    def test_exact_values(self):
        g, sp = tree_spanner_of_cycle(10)
        mult, add = pair_stretch(g, sp.subgraph(), 0, 9)
        assert (mult, add) == (9.0, 8.0)

    def test_same_vertex(self):
        g = path(3)
        assert pair_stretch(g, g, 1, 1) == (1.0, 0.0)

    def test_disconnected_pair_is_inf(self):
        g = path(3)
        sub = g.edge_subgraph([])
        mult, add = pair_stretch(g, sub, 0, 2)
        assert mult == float("inf")

    def test_host_disconnection_rejected(self):
        g = Graph(vertices=[0, 1])
        with pytest.raises(ValueError):
            pair_stretch(g, g, 0, 1)


class TestDistanceProfile:
    def test_profile_keys_are_distances(self):
        g = path(6)
        profile = distance_profile(g, g)
        assert set(profile) == {1, 2, 3, 4, 5}
        for d, (count, disconnected, mx, mean) in profile.items():
            assert mx == mean == 1.0
            assert count > 0
            assert disconnected == 0

    def test_profile_shows_distance_dependence(self):
        # In the cycle-with-tree spanner the worst stretch happens at
        # host distance 1 (the deleted edge) and decays with distance.
        g, sp = tree_spanner_of_cycle(12)
        profile = distance_profile(g, sp.subgraph())
        assert profile[1][2] == 11.0
        assert profile[2][2] == 5.0
        assert profile[1][2] > profile[3][2] > profile[5][2]

    def test_disconnected_pairs_counted_not_poisoning(self):
        # Spanner misses the path's middle edge: pairs straddling it are
        # cut.  Their bucket means must stay finite and the cut pairs
        # must show up in the per-bucket disconnected count.
        g = path(4)
        sub = g.edge_subgraph({(0, 1), (2, 3)})
        profile = distance_profile(g, sub)
        assert profile[1] == (6, 2, 1.0, 1.0)
        assert profile[2] == (4, 4, 0.0, 0.0)
        assert profile[3] == (2, 2, 0.0, 0.0)
        for _, (_, _, mx, mean) in profile.items():
            assert mx != float("inf") and mean != float("inf")


class TestVerification:
    def test_verify_subgraph(self):
        g = path(4)
        assert verify_subgraph(g, [(0, 1), (2, 3)])
        assert not verify_subgraph(g, [(0, 2)])

    def test_verify_connectivity_exact_components(self):
        g = Graph(edges=[(0, 1), (2, 3)])
        assert verify_connectivity(g, g)
        broken = g.edge_subgraph([(0, 1)])
        assert not verify_connectivity(g, broken)

    def test_guarantee_pass_and_fail(self):
        g, sp = tree_spanner_of_cycle(10)
        ok, worst = verify_spanner_guarantee(g, sp.subgraph(), alpha=9)
        assert ok and worst is None
        ok, worst = verify_spanner_guarantee(g, sp.subgraph(), alpha=2)
        assert not ok
        u, v, dg, ds = worst
        assert ds > 2 * dg

    def test_guarantee_additive_form(self):
        g, sp = tree_spanner_of_cycle(10)
        ok, _ = verify_spanner_guarantee(
            g, sp.subgraph(), alpha=1.0, beta=8.0
        )
        assert ok
