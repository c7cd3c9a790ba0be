"""One-call traced runs of the six distributed protocols.

``run_traced("skeleton", graph, seed=1, obs=obs)`` normalizes the six
entry points (whose signatures and return shapes differ) to a single
``(result, NetworkStats)`` pair — the shared driver behind the
``python -m repro trace record`` CLI, the determinism/replay tests and
benchmark E21.  It reads the protocol registry
(:mod:`repro.core.protocols`) when called, so importing :mod:`repro.obs`
never drags in the protocol modules.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.graphs.graph import Graph

__all__ = ["run_traced"]


def run_traced(
    protocol: str,
    graph: Graph,
    seed: Any = None,
    obs: Optional[Any] = None,
    reliable: bool = False,
    fault_plan: Optional[Any] = None,
    **kwargs: Any,
) -> Tuple[Any, Any]:
    """Run one protocol under observation; returns ``(result, stats)``.

    ``result`` is the protocol's natural output (a
    :class:`~repro.spanner.spanner.Spanner` for the spanner builders,
    the ``known`` edge map for ``survey``); ``stats`` is the aggregated
    :class:`~repro.distributed.simulator.NetworkStats` that
    :func:`repro.obs.replay.reconstruct_stats` must reproduce.
    ``kwargs`` go to :meth:`~repro.core.protocols.ProtocolSpec.run`.
    """
    from repro.core.protocols import protocol_spec

    spec = protocol_spec(protocol)
    result = spec.run(
        graph,
        seed=seed,
        obs=obs,
        reliable=reliable,
        fault_plan=fault_plan,
        **kwargs,
    )
    if spec.spanner:
        return result, result.metadata["network_stats"]
    known, stats = result
    return known, stats
