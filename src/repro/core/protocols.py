"""The protocol registry: one :class:`ProtocolSpec` row per protocol.

``run_traced``, the fuzzer and the :mod:`repro.core.theory` budgets read
a protocol's driver, parameters, budgets, fuzz draw and sequential
mirror from its row, so adding a protocol means one row plus its driver.
Drivers and mirrors are named ``"module:function"`` and looked up on
their defining module at every call, never bound at import: a tracer or
test that replaces the module attribute reaches every caller, and
importing this module loads no protocol or baseline module.
"""

from __future__ import annotations

import gc
import importlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core import theory
from repro.core.fibonacci import FibonacciParams
from repro.graphs.graph import Graph
from repro.spanner.spanner import Spanner
from repro.util.rng import make_prf

__all__ = ["PROTOCOLS", "Param", "ProtocolSpec", "protocol_spec"]

#: budgets, of the host size and the resolved parameters.
SizeBound = Callable[[int, Dict[str, Any]], float]
StretchBound = Callable[[int, Dict[str, Any]], Tuple[float, float]]


@dataclass(frozen=True)
class Param:
    """A driver parameter: its default, the type values are cast to, and
    the fuzzer's choices.  A sampled fuzz case pins every parameter with
    a default, at a draw or else at the default.  A ``None`` default is
    left to the run, so Fibonacci's ``ell`` follows ``eps`` and its
    staged Theorem 7 oracle checks exactly the theorem's claim."""

    name: str
    default: Any
    cast: Callable[[Any], Any]
    draws: Tuple[Any, ...] = ()


def _lookup(target: str) -> Any:
    module, _, name = target.partition(":")
    return getattr(importlib.import_module(module), name)


@dataclass(frozen=True)
class ProtocolSpec:
    """What every consumer of one protocol must agree on.

    The mirror takes the run's seed as ``seed=`` (``mirror_seed="seed"``),
    as the protocol's shared PRF (``"prf"``) or not at all (``None``).
    A ``spanner`` driver returns a :class:`Spanner` holding its
    ``metadata["network_stats"]``; any other returns ``(result, stats)``.
    """

    name: str
    driver: str
    params: Tuple[Param, ...]
    size_bound: Optional[SizeBound] = None
    stretch_bound: Optional[StretchBound] = None
    mirror: Optional[str] = None
    mirror_seed: Optional[str] = "seed"
    seeded: bool = True
    spanner: bool = True

    def resolve(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The protocol's parameters from ``params``, defaults filled in
        and each value cast to its parameter's type."""
        resolved: Dict[str, Any] = {}
        for p in self.params:
            value = params.get(p.name, p.default)
            resolved[p.name] = None if value is None else p.cast(value)
        return resolved

    def run(self, graph: Graph, seed: Any = None, **kwargs: Any) -> Any:
        """The driver's output, its parameters in ``kwargs`` resolved and
        every other keyword (``obs``, ``fault_plan``, ...) passed on.

        The whole run, network construction to ``Spanner``, runs with
        automatic cyclic collection paused: a protocol run leaves no
        reference cycles (``TestNoReferenceCycles``), so reference
        counting frees all it builds, and a collection could only
        re-walk the caller's heap.  The caller's setting is restored on
        the way out; a nested run leaves that to the outermost one.
        Nothing else of the collector's is touched, and a driver called
        directly runs under the caller's settings.
        """
        kwargs.update(self.resolve(kwargs))
        if self.seeded:
            kwargs["seed"] = seed
        driver = _lookup(self.driver)
        if not gc.isenabled():
            return driver(graph, **kwargs)
        gc.disable()
        try:
            return driver(graph, **kwargs)
        finally:
            gc.enable()

    def run_mirror(
        self, graph: Graph, seed: Any = None, **params: Any
    ) -> Optional[Spanner]:
        """The sequential mirror's spanner; ``None`` without a mirror."""
        if self.mirror is None:
            return None
        kwargs = self.resolve(params)
        if self.mirror_seed == "prf":
            kwargs["prf"] = make_prf(seed)
        elif self.mirror_seed == "seed":
            kwargs["seed"] = seed
        result = _lookup(self.mirror)(graph, **kwargs)
        if isinstance(result, Spanner):
            return result
        return Spanner(graph, *result)  # the deterministic (edges, info)

    def sample(self, rng: random.Random) -> Dict[str, Any]:
        """A fuzz case's parameters (see :class:`Param`)."""
        return {
            p.name: rng.choice(p.draws) if p.draws else p.default
            for p in self.params
            if p.default is not None
        }


#: Fig. 1 order, the deterministic skeleton last.  The skeleton's mirror
#: shares its PRF (identical cluster evolution) and Fibonacci's its seed
#: (identical levels); Baswana-Sen's and the additive one's draw their
#: own randomness; the deterministic one draws none and must match.
_SPECS = (
    ProtocolSpec(
        name="skeleton",
        driver="repro.distributed.skeleton_protocol:distributed_skeleton",
        params=(Param("D", 4, int), Param("eps", 0.5, float)),
        # Lemma 6's expected size; Theorem 2's distortion.
        size_bound=lambda n, p: theory.skeleton_size_bound(n, p["D"]),
        stretch_bound=lambda n, p: (
            theory.skeleton_distortion_bound(n, p["D"], p["eps"]), 0.0
        ),
        mirror="repro.core.skeleton:build_skeleton",
        mirror_seed="prf",
    ),
    ProtocolSpec(
        name="baswana_sen",
        driver="repro.distributed.baswana_sen_protocol:"
        "distributed_baswana_sen",
        params=(Param("k", 3, int, draws=(2, 3, 4)),),
        # The corrected Lemma 6 recurrence; a (2k - 1)-spanner.
        size_bound=lambda n, p: theory.baswana_sen_size_bound(n, p["k"]),
        stretch_bound=lambda n, p: (2 * p["k"] - 1, 0.0),
        mirror="repro.baselines.baswana_sen:baswana_sen_spanner",
    ),
    ProtocolSpec(
        name="additive",
        driver="repro.distributed.additive_protocol:distributed_additive2",
        params=(Param("threshold", None, int),),
        size_bound=lambda n, p: theory.additive2_size_bound(n),
        stretch_bound=lambda n, p: (1.0, 2.0),
        mirror="repro.baselines.additive_spanner:additive2_spanner",
    ),
    ProtocolSpec(
        name="fibonacci",
        driver="repro.distributed.fibonacci_protocol:"
        "distributed_fibonacci_spanner",
        params=(
            Param("order", 2, int),
            Param("eps", 0.5, float),
            Param("ell", None, int),
        ),
        # Lemma 8 at the run's own ell; Theorem 7's d = 1 stage 2^(o+1)
        # as the uniform stretch envelope.
        size_bound=lambda n, p: theory.fibonacci_size_bound(
            n, p["order"], FibonacciParams.resolve(n, **p).ell
        ),
        stretch_bound=lambda n, p: (float(2 ** (p["order"] + 1)), 0.0),
        mirror="repro.core.fibonacci:build_fibonacci_spanner",
    ),
    ProtocolSpec(
        name="survey",
        driver="repro.distributed.survey_protocol:neighborhood_survey",
        params=(Param("radius", 3, int, draws=(1, 2, 3)),),
        # No spanner: the coverage oracle checks the exact neighbourhood.
        seeded=False,
        spanner=False,
    ),
    ProtocolSpec(
        name="deterministic",
        driver="repro.distributed.deterministic_protocol:"
        "distributed_deterministic",
        params=(Param("D", 4, int, draws=(2, 3, 4, 5)),),
        # Worst-case n(D+1)L + n edges and 4 r_(L-1) + 1 stretch, after
        # Elkin-Matar (arXiv:1907.10895).
        size_bound=lambda n, p: theory.deterministic_size_bound(n, p["D"]),
        stretch_bound=lambda n, p: (
            theory.deterministic_stretch_bound(n, p["D"]), 0.0
        ),
        mirror="repro.baselines.deterministic_skeleton:"
        "sequential_deterministic",
        mirror_seed=None,
    ),
)

_BY_NAME = {spec.name: spec for spec in _SPECS}

#: the registered protocol names, in table order.
PROTOCOLS: Tuple[str, ...] = tuple(_BY_NAME)


def protocol_spec(name: str) -> ProtocolSpec:
    """The registry row of ``name``; ``ValueError`` if there is none."""
    if name not in _BY_NAME:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {PROTOCOLS}"
        )
    return _BY_NAME[name]
