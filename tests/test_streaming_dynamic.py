"""Tests for the streaming spanner (Sect. 1.4 baseline)."""

from __future__ import annotations

import random

import pytest

from repro.baselines.streaming import StreamingSpanner
from repro.graphs import erdos_renyi_gnp, girth, path
from repro.spanner import verify_spanner_guarantee


class TestStreamingSpanner:
    def test_guarantee_any_arrival_order(self):
        g = erdos_renyi_gnp(120, 0.08, seed=1)
        for order_seed in (2, 3):
            edges = sorted(g.edges())
            random.Random(order_seed).shuffle(edges)
            sp = StreamingSpanner(k=3).consume(edges).to_spanner(g)
            ok, worst = verify_spanner_guarantee(g, sp.subgraph(), alpha=5)
            assert ok, worst

    def test_girth_exceeds_2k(self):
        g = erdos_renyi_gnp(150, 0.1, seed=4)
        stream = StreamingSpanner(k=2).consume(sorted(g.edges()))
        assert girth(g.edge_subgraph(stream.kept)) > 4

    def test_size_bound(self):
        g = erdos_renyi_gnp(200, 0.2, seed=5)
        stream = StreamingSpanner(k=2).consume(sorted(g.edges()))
        # girth > 4 forces O(n^{3/2}) edges.
        assert stream.size <= 2 * g.n ** 1.5

    def test_duplicate_and_loop_edges_ignored(self):
        stream = StreamingSpanner(k=2)
        assert stream.offer(0, 1)
        assert not stream.offer(1, 0)
        assert not stream.offer(3, 3)
        assert stream.size == 1
        assert stream.edges_seen == 3

    def test_tree_stream_keeps_everything(self):
        g = path(20)
        stream = StreamingSpanner(k=3).consume(g.edges())
        assert stream.size == g.m

    def test_validates_k(self):
        with pytest.raises(ValueError):
            StreamingSpanner(0)

