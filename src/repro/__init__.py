"""repro — reproduction of Seth Pettie's "Distributed algorithms for
ultrasparse spanners and linear size skeletons" (PODC 2008).

Public API highlights:

* :class:`repro.Graph` and the generators in :mod:`repro.graphs`
* :func:`repro.build_skeleton` — the Section 2 linear-size skeleton
* :func:`repro.build_fibonacci_spanner` — the Section 4 Fibonacci spanner
* :mod:`repro.baselines` — Baswana–Sen, greedy, girth skeleton, additive-2
* :mod:`repro.distributed` — the synchronous network simulator and the
  message-passing implementations of the paper's protocols
* :mod:`repro.core.theory` — every closed-form bound from the paper
"""

from repro.graphs.graph import Graph
from repro.core.skeleton import build_skeleton
from repro.core.fibonacci import build_fibonacci_spanner
from repro.core.combined import build_combined_spanner
from repro.spanner.spanner import Spanner

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "Spanner",
    "build_skeleton",
    "build_fibonacci_spanner",
    "build_combined_spanner",
    "__version__",
]
