"""Baseline spanner constructions the paper compares against (Fig. 1)."""

from repro.baselines.baswana_sen import baswana_sen_spanner
from repro.baselines.greedy import greedy_spanner
from repro.baselines.girth_skeleton import girth_skeleton
from repro.baselines.additive_spanner import additive2_spanner
from repro.baselines.bfs_tree import bfs_forest
from repro.baselines.streaming import StreamingSpanner
from repro.baselines.deterministic_skeleton import sequential_deterministic
from repro.baselines.elkin_zhang import elkin_zhang_spanner, measured_beta
from repro.baselines.baswana_sen_weighted import baswana_sen_weighted

__all__ = [
    "baswana_sen_spanner",
    "greedy_spanner",
    "girth_skeleton",
    "additive2_spanner",
    "bfs_forest",
    "StreamingSpanner",
    "elkin_zhang_spanner",
    "measured_beta",
    "baswana_sen_weighted",
    "sequential_deterministic",
]
