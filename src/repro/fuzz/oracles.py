"""The differential-fuzzing oracle battery.

Each oracle inspects a :class:`~repro.fuzz.runner.CaseExecution` and
returns ``None`` (pass) or a human-readable failure message.  The
battery is the union of every correctness claim the repo already tests
pointwise, applied to arbitrary sampled cases:

``subgraph``
    Every output edge exists in the host graph (spanners and survey
    knowledge alike must never invent edges).
``size``
    Edge count within the analytic budget of the matching
    lemma/theorem (:func:`repro.core.theory.protocol_size_budget`),
    scaled by ``size_slack``.
``stretch``
    The theorem's stretch guarantee via
    :func:`~repro.spanner.stretch.stretch_statistics` /
    :func:`~repro.spanner.stretch.distance_profile`.  Fibonacci is held
    to Theorem 7's *staged* per-distance curve, not just its uniform
    envelope.
``connectivity``
    The spanner preserves the host's connected components exactly; for
    the survey protocol this instead checks r-neighborhood coverage
    (``known[v]`` contains every edge with both endpoints within
    ``radius - 1`` hops).
``determinism``
    Two runs with the same seed produce byte-identical traces and
    identical outputs.
``fault_equivalence``
    Under the case's fault plan with the reliable-delivery adapter, the
    output equals the fault-free output exactly.
``differential``
    Distributed vs sequential reference: exact cluster-evolution
    equality for the skeleton (shared PRF), exact level-hierarchy
    sharing for Fibonacci (same seed), a size band for
    Baswana–Sen / additive (independent randomness), and *exact*
    edge-set plus telemetry equality for the deterministic skeleton
    (no randomness anywhere).
``rand_vs_det``
    Deterministic cases only: run the randomized Section 2 skeleton on
    the identical host (same ``D``, the case's protocol seed) and hold
    both constructions to their own analytic size budgets and to host
    connectivity — the paper's Fig. 1 comparison as an executable
    head-to-head.
"""

from __future__ import annotations

import math
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.protocols import protocol_spec
from repro.core.theory import (
    protocol_size_budget,
    protocol_stretch_budget,
    theorem7_distortion_bound,
)
from repro.churn.events import events_from_json
from repro.churn.oracle import CHURN_ORACLE_NAMES, check_churn
from repro.fuzz.cases import FuzzCase, build_case_graph, materialize
from repro.fuzz.runner import CaseExecution
from repro.graphs.properties import bfs_distances
from repro.spanner.verification import (
    verify_connectivity,
    verify_spanner_guarantee,
    verify_subgraph,
)
from repro.spanner.stretch import distance_profile

__all__ = [
    "CHURN_ORACLES",
    "ORACLE_NAMES",
    "OracleFailure",
    "check_case",
    "run_battery",
]

#: battery order: cheap structural checks first, differential and the
#: randomized-vs-deterministic head-to-head (which runs a second
#: protocol) last.
ORACLE_NAMES: Tuple[str, ...] = (
    "subgraph",
    "size",
    "stretch",
    "connectivity",
    "determinism",
    "fault_equivalence",
    "differential",
    "rand_vs_det",
)

#: the churn scenario runs its own rebuild-equivalence battery
#: (:mod:`repro.churn.oracle`) instead of the protocol oracles above.
CHURN_ORACLES: Tuple[str, ...] = CHURN_ORACLE_NAMES


class OracleFailure:
    """One failed oracle: which check, and what it saw."""

    __slots__ = ("oracle", "message")

    def __init__(self, oracle: str, message: str) -> None:
        self.oracle = oracle
        self.message = message

    def __repr__(self) -> str:
        return f"OracleFailure({self.oracle!r}, {self.message!r})"

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.message}"


def oracle_subgraph(ex: CaseExecution) -> Optional[str]:
    clean = ex.clean()
    if clean.edges is not None:
        if not verify_subgraph(ex.graph, sorted(clean.edges)):
            bad = [
                e for e in sorted(clean.edges)
                if not ex.graph.has_edge(*e)
            ]
            return f"spanner edges not in host: {bad[:5]}"
        return None
    assert clean.known is not None
    for v in sorted(clean.known):
        for u, w in sorted(clean.known[v]):
            if not ex.graph.has_edge(u, w):
                return f"survey known[{v}] has non-host edge ({u}, {w})"
    return None


def oracle_size(ex: CaseExecution, size_slack: float = 1.0) -> Optional[str]:
    case = ex.case
    if not protocol_spec(case.protocol).spanner:
        return None
    clean = ex.clean()
    if case.protocol == "skeleton":
        # Lemma 6 bounds the *expected* size.  When the first Expand
        # call samples zero cluster centers (a legitimate
        # probability-delta Monte-Carlo outcome on small hosts), the
        # skeleton correctly keeps every edge, and the per-instance
        # budget does not apply — the differential oracle still pins
        # the run to its sequential reference in that case.
        counts = clean.metadata.get("cluster_counts")
        if isinstance(counts, list) and counts and counts[0] == 0:
            return None
    budget = size_slack * protocol_size_budget(
        case.protocol, ex.graph.n, **case.params
    )
    # Edge counts are integers: exceeding the real-valued analytic
    # formula by a fraction of an edge is rounding, not a violation
    # (the honest skeleton hits exactly ceil(budget) on near-complete
    # 12-vertex hosts — tests/fuzz_corpus keeps the boundary witness).
    size = clean.size
    if size > math.ceil(budget):
        return (
            f"size {size} exceeds analytic budget {budget:.1f} "
            f"(n={ex.graph.n}, params={case.params})"
        )
    return None


def oracle_stretch(ex: CaseExecution) -> Optional[str]:
    case = ex.case
    if not protocol_spec(case.protocol).spanner:
        return None
    sub = ex.spanner_subgraph()
    if not verify_connectivity(ex.graph, sub):
        # oracle_connectivity reports this; stretch over a disconnected
        # spanner would only drown that signal in inf noise.
        return None
    if case.protocol == "fibonacci":
        params = protocol_spec("fibonacci").resolve(case.params)
        order, eps = params["order"], params["eps"]
        profile = distance_profile(ex.graph, sub)
        for d in sorted(profile):
            _, _, max_mult, _ = profile[d]
            bound = theorem7_distortion_bound(d, order, eps)
            if max_mult > bound + 1e-9:
                return (
                    f"stage bound violated at distance {d}: "
                    f"max stretch {max_mult:.3f} > {bound:.3f} "
                    f"(o={order}, eps={eps})"
                )
        return None
    alpha, beta = protocol_stretch_budget(
        case.protocol, ex.graph.n, **case.params
    )
    ok, worst = verify_spanner_guarantee(ex.graph, sub, alpha, beta)
    if not ok:
        assert worst is not None
        u, v, dg, ds = worst
        return (
            f"stretch bound ({alpha:.2f}, {beta:.1f}) violated: "
            f"pair ({u}, {v}) host distance {dg}, spanner distance {ds}"
        )
    return None


def oracle_connectivity(ex: CaseExecution) -> Optional[str]:
    spec = protocol_spec(ex.case.protocol)
    if spec.spanner:
        if not verify_connectivity(ex.graph, ex.spanner_subgraph()):
            return "spanner does not preserve host connectivity"
        return None
    known = ex.clean().known
    assert known is not None
    radius = spec.resolve(ex.case.params)["radius"]
    for v in sorted(ex.graph.vertices()):
        dist = bfs_distances(ex.graph, v, cutoff=radius - 1)
        got = known.get(v, frozenset())
        for u in sorted(dist):
            for w in sorted(ex.graph.neighbors(u)):
                if w in dist and (min(u, w), max(u, w)) not in got:
                    return (
                        f"survey known[{v}] misses edge ({u}, {w}) with "
                        f"both endpoints within {radius - 1} hops"
                    )
    return None


def oracle_determinism(ex: CaseExecution) -> Optional[str]:
    first, second = ex.clean(), ex.second()
    if first.edges != second.edges or first.known != second.known:
        return "same seed produced different outputs across two runs"
    if first.trace != second.trace:
        return "same seed produced different traces across two runs"
    return None


def oracle_fault_equivalence(ex: CaseExecution) -> Optional[str]:
    faulty = ex.faulty()
    if faulty is None:
        return None
    clean = ex.clean()
    if clean.edges != faulty.edges or clean.known != faulty.known:
        plan = ex.case.fault
        return (
            "reliable run under faults diverged from the clean run "
            f"(fault spec {plan})"
        )
    return None


def oracle_differential(ex: CaseExecution) -> Optional[str]:
    case = ex.case
    ref = ex.reference()
    if ref is None:
        return None
    dist = ex.clean()
    assert dist.edges is not None
    if case.protocol == "skeleton":
        seq_counts = ref.metadata.get("cluster_counts")
        dist_counts = dist.metadata.get("cluster_counts")
        if seq_counts != dist_counts:
            return (
                "cluster evolution diverged from sequential reference "
                f"under shared PRF: {seq_counts} != {dist_counts}"
            )
        # The exact differential signal is the cluster-count equality
        # above.  Identical clustering still allows different edge
        # choices (per-cluster-pair duplication, cap-limited candidate
        # views), with observed divergence up to ~22% on dense small
        # hosts — the size band is a sanity envelope, not an equality.
        band = max(10.0, 0.35 * max(ref.size, dist.size))
        if abs(ref.size - dist.size) > band:
            return (
                f"skeleton sizes diverged: sequential {ref.size}, "
                f"distributed {dist.size}"
            )
        return None
    if case.protocol == "fibonacci":
        if abs(ref.size - dist.size) > max(4, 0.1 * ref.size):
            return (
                f"fibonacci sizes diverged under shared levels: "
                f"sequential {ref.size}, distributed {dist.size}"
            )
        return None
    if case.protocol == "deterministic":
        # No randomness anywhere: the sequential reference reproduces
        # the exact edge set and per-superphase telemetry.
        ref_edges = frozenset(ref.edges)
        if ref_edges != dist.edges:
            missing = sorted(ref_edges - dist.edges)[:5]
            extra = sorted(dist.edges - ref_edges)[:5]
            return (
                "deterministic edge sets diverged: sequential has "
                f"{ref.size}, distributed {dist.size} "
                f"(missing={missing}, extra={extra})"
            )
        for key in (
            "superphases",
            "cluster_counts",
            "ruling_iterations",
            "superphase_tallies",
        ):
            if ref.metadata.get(key) != dist.metadata.get(key):
                return (
                    f"deterministic telemetry diverged on {key!r}: "
                    f"sequential {ref.metadata.get(key)}, "
                    f"distributed {dist.metadata.get(key)}"
                )
        return None
    # baswana_sen / additive: independent randomness — hold the
    # distributed size to a band around the sequential reference.
    band = max(16.0, 1.0 * max(ref.size, dist.size))
    if abs(ref.size - dist.size) > band:
        return (
            f"{case.protocol} sizes implausibly far apart: "
            f"sequential {ref.size}, distributed {dist.size}"
        )
    return None


def oracle_rand_vs_det(ex: CaseExecution) -> Optional[str]:
    """Head-to-head on the same host: deterministic vs randomized.

    Deterministic cases only.  Runs the randomized Section 2 skeleton
    through its registry row on the identical host graph with the same
    sparsity parameter ``D`` and the case's protocol seed, then holds
    *both* constructions to their own analytic size budgets
    (:func:`~repro.core.theory.protocol_size_budget`) and to host
    connectivity.  The randomized side keeps the Lemma 6 expected-size
    caveat (zero sampled centers exempts the per-instance budget).
    """
    case = ex.case
    if case.protocol != "deterministic":
        return None
    D = protocol_spec("deterministic").resolve(case.params)["D"]
    det = ex.clean()
    assert det.edges is not None
    # Lemma 1 needs D >= 4 on the randomized side; the deterministic
    # protocol is meaningful from D >= 1, so clamp the comparison run.
    rand_D = max(4, D)
    rand = protocol_spec("skeleton").run(
        ex.graph, seed=case.protocol_seed, D=rand_D
    )
    rand_sub = ex.graph.edge_subgraph(tuple(sorted(rand.edges)))
    if not verify_connectivity(ex.graph, rand_sub):
        return (
            "randomized skeleton lost host connectivity on the shared "
            f"host (n={ex.graph.n}, D={rand_D}, "
            f"seed={case.protocol_seed})"
        )
    det_budget = protocol_size_budget("deterministic", ex.graph.n, D=D)
    if det.size > math.ceil(det_budget):
        return (
            f"deterministic size {det.size} exceeds its budget "
            f"{det_budget:.1f} on the shared host (n={ex.graph.n}, D={D})"
        )
    counts = rand.metadata.get("cluster_counts")
    sampled_nothing = (
        isinstance(counts, list) and counts and counts[0] == 0
    )
    rand_budget = protocol_size_budget("skeleton", ex.graph.n, D=rand_D)
    if not sampled_nothing and len(rand.edges) > math.ceil(rand_budget):
        return (
            f"randomized size {len(rand.edges)} exceeds its budget "
            f"{rand_budget:.1f} on the shared host (deterministic "
            f"managed {det.size}; n={ex.graph.n}, D={rand_D})"
        )
    return None


_ORACLES: Dict[str, Callable[[CaseExecution], Optional[str]]] = {
    "subgraph": oracle_subgraph,
    "size": oracle_size,
    "stretch": oracle_stretch,
    "connectivity": oracle_connectivity,
    "determinism": oracle_determinism,
    "fault_equivalence": oracle_fault_equivalence,
    "differential": oracle_differential,
    "rand_vs_det": oracle_rand_vs_det,
}


def check_case(
    case: FuzzCase,
    oracles: Optional[Tuple[str, ...]] = None,
    size_slack: float = 1.0,
) -> List[OracleFailure]:
    """Run the battery (or a named subset) against one case.

    Returns the list of failures, empty when the case passes.  A crash
    inside the protocol itself is reported as a ``crash`` pseudo-oracle
    failure rather than propagated — a fuzzer must survive its finds.
    Churn cases route to the rebuild-equivalence battery
    (:mod:`repro.churn.oracle`) instead of the protocol oracles.
    """
    if case.protocol == "churn":
        return _check_churn_case(case, oracles, size_slack)
    wanted = oracles if oracles is not None else ORACLE_NAMES
    for name in wanted:
        if name not in _ORACLES:
            raise ValueError(
                f"unknown oracle {name!r}; choose from {ORACLE_NAMES}"
            )
    ex = CaseExecution(case)
    failures: List[OracleFailure] = []
    for name in wanted:
        try:
            if name == "size":
                message = oracle_size(ex, size_slack=size_slack)
            else:
                message = _ORACLES[name](ex)
        except Exception as exc:  # noqa: BLE001 — fuzzer must not die
            # Keep the full traceback: a shrunk reproducer whose whole
            # failure message is "KeyError: 5" is undebuggable.
            failures.append(
                OracleFailure(
                    "crash",
                    f"{name}: {type(exc).__name__}: {exc}\n"
                    f"{traceback.format_exc()}",
                )
            )
            break
        if message is not None:
            failures.append(OracleFailure(name, message))
    return failures


def _check_churn_case(
    case: FuzzCase,
    oracles: Optional[Tuple[str, ...]],
    size_slack: float,
) -> List[OracleFailure]:
    """Run the churn rebuild-equivalence battery against one case.

    Materializes the case first (freezing host *and* update stream), so
    recipe cases and shrunk explicit-event cases check identically.
    """
    wanted = oracles if oracles is not None else CHURN_ORACLE_NAMES
    for name in wanted:
        if name not in CHURN_ORACLE_NAMES:
            raise ValueError(
                f"unknown churn oracle {name!r}; "
                f"choose from {CHURN_ORACLE_NAMES}"
            )
    if case.churn is None:
        return [
            OracleFailure(
                "crash", "churn case without a churn specification"
            )
        ]
    try:
        mat = materialize(case)
        assert mat.churn is not None
        graph = build_case_graph(mat)
        batches = events_from_json(mat.churn["events"])
        k = int(mat.params.get("k", 2))
        failure = check_churn(
            graph,
            k,
            batches,
            size_slack=size_slack,
            oracles=wanted,
            grade_seed=mat.protocol_seed,
        )
    except Exception as exc:  # noqa: BLE001 — fuzzer must not die
        # Full traceback for the same reason as check_case above.
        return [
            OracleFailure(
                "crash",
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            )
        ]
    if failure is None:
        return []
    return [OracleFailure(failure[0], failure[1])]


def run_battery(
    case: FuzzCase,
    oracles: Optional[Tuple[str, ...]] = None,
    size_slack: float = 1.0,
) -> Optional[OracleFailure]:
    """The battery's first failure (or ``None``) — what the shrinker
    re-checks at every candidate."""
    failures = check_case(case, oracles=oracles, size_slack=size_slack)
    return failures[0] if failures else None
