"""Distributed implementation of the Section 2 skeleton algorithm.

Every *original* vertex runs :class:`_SkeletonProgram`.  Supervertices of
the contracted graph are realized as trees of spanner edges over original
vertices: each vertex keeps a pointer ``p1`` toward the center of its
supervertex and ``p2`` toward the center of its current cluster, exactly
as in Theorem 2's proof.  Cluster sampling uses shared randomness (every
vertex evaluates a common PRF on (call, cluster-center)), so sampling
costs zero communication and the sequential implementation driven by the
same PRF evolves the *identical* clustering — the basis of our
cross-validation tests.

One Expand call = four globally scheduled phases (all processors derive
the same timetable from n, D and eps, as synchronous algorithms do):

1. **exchange** — every live vertex announces its cluster center to its
   neighbors (1-word messages); silence marks dead neighbors.
2. **converge** — vertices of unsampled clusters push their best
   join-candidate (an edge into a sampled neighbor cluster) and their
   per-cluster death-candidates up the ``p1`` tree; candidates are
   deduplicated per cluster en route and pipelined under the word cap;
   a vertex that has seen more than 4 s_i ln n distinct clusters raises
   the paper's abort flag instead.
3. **decide** — the supervertex center either stays (own cluster
   sampled), joins the minimum sampled adjacent cluster (the decision is
   routed down the recorded candidate path, updating ``p2`` pointers per
   Fig. 4), dies (the deduplicated edge list is pipelined down so each
   owner adds its chosen edges — line 7 of Expand), or aborts (every
   member keeps all incident inter-cluster edges).
4. **contract** (once per round) — ``p1 <- p2``, supervertex = cluster,
   and tree children are re-learned in one announcement round.

Round counts are simulated faithfully; the runner also reports the
*budgeted* synchronous schedule length (what the processors would wait
out in the worst case) alongside the simulated rounds.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.schedule import Round, build_schedule, exact_form_schedule
from repro.distributed.faults import FaultPlan
from repro.distributed.reliable import ReliableConfig, build_network
from repro.distributed.simulator import Api, NodeProgram
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.obs.trace import Obs, phase_scope
from repro.spanner.spanner import Spanner
from repro.util.rng import SeedLike, make_prf

# Message tags.
_EXCHANGE = "X"
_JOIN_CAND = "J"
_DEATH_CAND = "D"
_ABORT_UP = "AU"
_STAY = "S"
_JOIN = "JN"
_DIE = "DI"
_ABORT_DOWN = "AD"
_CHILD = "C"


class _SkeletonProgram(NodeProgram):
    """Per-vertex state machine for the skeleton protocol."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.alive = True
        self.sv_center = node_id
        self.cl_center = node_id
        self.p1: Optional[int] = None  # parent toward supervertex center
        self.p2: Optional[int] = None  # parent toward cluster center
        self.children: Set[int] = set()
        self.edges: Set[Edge] = set()

        # Per-phase transient state (reset by begin_phase).
        self.phase = "idle"
        self.phase_round = 0
        self.nbr_cl: Dict[int, int] = {}
        self._reset_call_state()

    def _reset_call_state(self) -> None:
        self.own_sampled = False
        self.participating = False
        self.best: Optional[Tuple[int, int, int]] = None
        self.best_child: Optional[int] = None
        self.best_sent: Optional[Tuple[int, int, int]] = None
        self.death_seen: Set[int] = set()
        self.death_queue: List[Tuple[int, int, int]] = []
        self.death_received: Dict[int, Tuple[int, int]] = {}
        self.abort = False
        self.abort_sent = False
        self.dying = False
        self.die_announced = False
        self.down_queue: List[Tuple[int, int]] = []
        self.q_abort = math.inf
        self.cap_entries = 1
        self.sampler = None

    # ------------------------------------------------------------------
    # Phase control (invoked by the runner; all-processor-local info)
    # ------------------------------------------------------------------
    def begin_phase(self, phase: str, **config: Any) -> None:
        self.phase = phase
        self.phase_round = 0
        if phase == "exchange":
            self.nbr_cl = {}
        elif phase == "converge":
            self._begin_converge(**config)
        elif phase == "decide":
            self._begin_decide()
        elif phase == "contract":
            self._begin_contract()

    def _begin_converge(self, sampler, q_abort: float, cap_entries: int):
        self.best = None
        self.best_child = None
        self.best_sent = None
        self.death_seen = set()
        self.death_queue = []
        self.death_received = {}
        self.abort = False
        self.abort_sent = False
        self.dying = False
        self.die_announced = False
        self.down_queue = []
        self.q_abort = q_abort
        self.cap_entries = max(1, cap_entries)
        self.sampler = sampler
        if not self.alive:
            self.participating = False
            return
        self.own_sampled = sampler(self.cl_center)
        self.participating = not self.own_sampled
        if not self.participating:
            return
        # Local candidates from the exchange snapshot.
        per_cluster: Dict[int, int] = {}
        for x, cl in self.nbr_cl.items():
            if cl == self.cl_center:
                continue
            if cl not in per_cluster or x < per_cluster[cl]:
                per_cluster[cl] = x
        for cl in per_cluster:
            if self.sampler(cl):
                cand = (cl, self.node_id, per_cluster[cl])
                if self.best is None or cand < self.best:
                    self.best = cand
                    self.best_child = None
            else:
                self._note_death_candidate(
                    cl, self.node_id, per_cluster[cl]
                )

    def _note_death_candidate(self, cl: int, w: int, x: int) -> None:
        if self.abort or cl in self.death_seen:
            return
        self.death_seen.add(cl)
        if len(self.death_seen) > self.q_abort:
            self.abort = True
            self.death_queue = []
            return
        self.death_queue.append((cl, w, x))
        if self.p1 is None:  # center keeps the first edge per cluster
            self.death_received[cl] = (w, x)

    def _begin_decide(self) -> None:
        if not (self.alive and self.participating):
            return
        if self.p1 is not None:
            return  # non-centers wait for the decision from above
        # The supervertex center decides (own cluster was unsampled).
        # The abort flag only modifies *how it dies* — a supervertex with
        # a sampled neighbor still joins (the paper's q > 4 s_i ln n event
        # is about aborting line 7, not the join; survival is whp anyway).
        if self.best is not None:
            target, w, x = self.best
            self.cl_center = target
            if w == self.node_id:
                self.p2 = x
                self.edges.add(canonical_edge(w, x))
            else:
                self.p2 = self.best_child
        elif self.abort:
            self.dying = True
            self._keep_all_boundary_edges()
        else:
            self.dying = True
            for cl, (w, x) in sorted(self.death_received.items()):
                if w == self.node_id:
                    self.edges.add(canonical_edge(w, x))
                self.down_queue.append((w, x))

    def _begin_contract(self) -> None:
        if not self.alive:
            return
        self.p1 = self.p2
        self.sv_center = self.cl_center
        self.children = set()

    def finalize_call(self) -> None:
        """Runner hook after the decide phase: commit deaths."""
        if self.dying:
            self.alive = False

    def _keep_all_boundary_edges(self) -> None:
        for x, cl in self.nbr_cl.items():
            if cl != self.cl_center:
                self.edges.add(canonical_edge(self.node_id, x))

    # ------------------------------------------------------------------
    # Round dispatch
    # ------------------------------------------------------------------
    def on_round(
        self, api: Api, round_index: int, inbox: List[Tuple[int, Any]]
    ) -> None:
        self.phase_round += 1
        if self.phase == "exchange":
            self._round_exchange(api, inbox)
        elif self.phase == "converge":
            self._round_converge(api, inbox)
        elif self.phase == "decide":
            self._round_decide(api, inbox)
        elif self.phase == "contract":
            self._round_contract(api, inbox)

    def _round_exchange(self, api: Api, inbox) -> None:
        if self.phase_round == 1:
            if self.alive:
                api.broadcast((_EXCHANGE, self.cl_center))
            return
        for src, msg in inbox:
            if msg[0] == _EXCHANGE:
                self.nbr_cl[src] = msg[1]

    def _round_converge(self, api: Api, inbox) -> None:
        if not (self.alive and self.participating):
            return
        for src, msg in inbox:
            tag = msg[0]
            if tag == _JOIN_CAND:
                cand = (msg[1], msg[2], msg[3])
                if self.best is None or cand < self.best:
                    self.best = cand
                    self.best_child = src
            elif tag == _DEATH_CAND:
                for cl, w, x in msg[1]:
                    self._note_death_candidate(cl, w, x)
            elif tag == _ABORT_UP:
                self.abort = True
                self.death_queue = []
        if self.p1 is None:
            return  # the center only accumulates
        if self.best is not None and self.best != self.best_sent:
            api.send(self.p1, (_JOIN_CAND,) + self.best)
            self.best_sent = self.best
        # The abort flag only short-circuits the death-candidate stream;
        # join candidates keep flowing (survival is the likely outcome).
        if self.abort:
            if not self.abort_sent:
                api.send(self.p1, (_ABORT_UP,))
                self.abort_sent = True
        elif self.death_queue:
            batch = tuple(self.death_queue[: self.cap_entries])
            del self.death_queue[: self.cap_entries]
            api.send(self.p1, (_DEATH_CAND, batch))

    def _round_decide(self, api: Api, inbox) -> None:
        if not (self.alive and self.participating):
            return
        for src, msg in inbox:
            tag = msg[0]
            if tag == _JOIN:
                _, target, w, x, on_path = msg
                self.cl_center = target
                if on_path:
                    if self.node_id == w:
                        self.p2 = x
                        self.edges.add(canonical_edge(w, x))
                    else:
                        self.p2 = self.best_child
                else:
                    self.p2 = self.p1
                for child in sorted(self.children):
                    api.send(
                        child,
                        (_JOIN, target, w, x,
                         on_path and child == self.best_child),
                    )
                self.participating = False
            elif tag == _DIE:
                self.dying = True
                for w, x in msg[1]:
                    if w == self.node_id:
                        self.edges.add(canonical_edge(w, x))
                    self.down_queue.append((w, x))
            elif tag == _ABORT_DOWN:
                self.dying = True
                self.abort = True
                self._keep_all_boundary_edges()

        if self.p1 is None and self.phase_round == 1:
            # Center initiates: join decisions go out once; deaths and
            # aborts stream via the down queue below.
            if not self.dying and self.best is not None:
                target, w, x = self.best
                for child in sorted(self.children):
                    api.send(
                        child,
                        (_JOIN, target, w, x, child == self.best_child),
                    )
                self.participating = False
                return

        if not self.dying:
            return
        if self.abort:
            # One abort notice down the whole subtree.
            if not self.die_announced:
                for child in sorted(self.children):
                    api.send(child, (_ABORT_DOWN,))
                self.die_announced = True
            return
        # Death notice + chosen edges, pipelined under the cap.  The
        # notice must go out even with an empty edge list so every tree
        # member learns it died.
        if not self.die_announced or self.down_queue:
            batch = tuple(self.down_queue[: self.cap_entries])
            del self.down_queue[: self.cap_entries]
            for child in sorted(self.children):
                api.send(child, (_DIE, batch))
            self.die_announced = True

    def _round_contract(self, api: Api, inbox) -> None:
        if not self.alive:
            return
        if self.phase_round == 1:
            if self.p1 is not None:
                api.send(self.p1, (_CHILD,))
            return
        for src, msg in inbox:
            if msg[0] == _CHILD:
                self.children.add(src)


def _radius_after_round(radius: int, calls: int) -> int:
    """Lemma 2's doubling: a radius-j clustering of radius-r supervertices
    contracts to supervertices of radius j (2r + 1) + r."""
    return calls * (2 * radius + 1) + radius


class _ClusterSampler:
    """The shared-randomness sampling decision for one Expand call.

    A picklable stand-in for the former per-call closure (the sharded
    engine ships ``begin_phase`` configuration to worker processes):
    every processor evaluates the common PRF on (call index, cluster
    center), so sampling stays communication-free and identical across
    engines and across the sequential implementation.
    """

    __slots__ = ("idx", "p", "prf")

    def __init__(self, idx: int, p: float, prf: Any) -> None:
        self.idx = idx
        self.p = p
        self.prf = prf

    def __call__(self, center: int) -> bool:
        return self.p > 0 and self.prf(self.idx, center) < self.p


# Engine-agnostic program hooks: the driver reaches node programs only
# through ``network.apply_programs`` with these module-level (hence
# picklable) functions, so the same driver runs whether the programs
# live in this process or in the sharded engine's workers.
def _begin_phase(
    programs: Dict[int, NodeProgram], name: str, **config: Any
) -> None:
    for program in programs.values():
        program.begin_phase(name, **config)  # type: ignore[attr-defined]


def _alive_count(programs: Dict[int, "_SkeletonProgram"]) -> int:
    return sum(1 for pr in programs.values() if pr.alive)


def _call_aborts(programs: Dict[int, "_SkeletonProgram"]) -> int:
    return sum(
        1
        for pr in programs.values()
        if pr.dying and pr.abort and pr.p1 is None
    )


def _finalize_call(programs: Dict[int, "_SkeletonProgram"]) -> None:
    for program in programs.values():
        program.finalize_call()


def _alive_centers(programs: Dict[int, "_SkeletonProgram"]) -> Set[int]:
    return {pr.cl_center for pr in programs.values() if pr.alive}


def _spanner_edges(programs: Dict[int, "_SkeletonProgram"]) -> Set[Edge]:
    edges: Set[Edge] = set()
    for program in programs.values():
        edges |= program.edges
    return edges


def distributed_skeleton(
    graph: Graph,
    D: int = 4,
    eps: float = 0.5,
    seed: SeedLike = None,
    schedule: Optional[List[Round]] = None,
    max_message_words: Optional[int] = None,
    q_abort_override: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    reliable: bool = False,
    reliable_config: Optional[ReliableConfig] = None,
    obs: Optional[Obs] = None,
    shards: Optional[int] = None,
) -> Spanner:
    """Run the Theorem 2 protocol on ``graph``.

    The message cap defaults to Theorem 2's O(log^eps n) words.  Metadata
    includes the simulated :class:`NetworkStats` (``"network_stats"``),
    the worst-case synchronous schedule length (``"budgeted_rounds"``),
    the per-call cluster counts (``"cluster_counts"``) used by the
    sequential/distributed cross-validation tests, and the number of
    supervertices that died through the abort path (``"aborts"``).
    ``q_abort_override`` replaces the paper's 4 s_i ln n threshold —
    failure-injection tests use tiny values to force the abort path.

    ``fault_plan`` injects faults at delivery time; ``reliable=True``
    runs every program under the reliable-delivery adapter (sequence
    numbers, acks, retransmission), which preserves the fault-free
    execution exactly under drop/duplicate/delay/reorder plans.
    ``obs`` attaches observability: each exchange/converge/decide/
    contract phase is marked in the trace and metered per phase.
    ``shards`` runs the programs on the sharded multi-process engine
    (clean configuration only — see ``build_network``).
    """
    n = graph.n
    prf = make_prf(seed)
    if schedule is None:
        try:
            schedule = build_schedule(n, D, eps)
        except ValueError:
            schedule = exact_form_schedule(n, D)
    cap = max_message_words
    if cap is None:
        # Theorem 2's O(log^eps n)-word messages; the constant absorbs
        # per-message tags/flags and the 3 words of an (cluster, w, x)
        # candidate entry.
        cap = 4 * max(3, math.ceil(math.log2(max(4, n)) ** eps))
    cap_entries = max(1, (cap - 6) // 3)

    if obs is not None and not obs.protocol:
        obs.protocol = "skeleton"
    network = build_network(
        graph,
        _SkeletonProgram,
        max_message_words=cap,
        fault_plan=fault_plan,
        reliable=reliable,
        reliable_config=reliable_config,
        obs=obs,
        shards=shards,
    )
    log_n = math.log(max(2, n))

    def run_phase(name: str, budget: int, **config: Any) -> int:
        with phase_scope(obs, name):
            network.apply_programs(_begin_phase, name, **config)
            before = network.stats.rounds
            network.run(max_rounds=budget, stop_when_idle=True)
            # Drain any messages still in flight (the synchronous
            # schedule would have waited the full budget; we stop once
            # quiet).
            while network.in_flight:
                network.run(max_rounds=1)
            return network.stats.rounds - before

    radius_bound = 0
    budgeted_rounds = 0
    call_index = 0
    aborts = 0
    cluster_counts: List[int] = []
    for round_spec in schedule:
        probabilities = [round_spec.p] * round_spec.iterations
        if round_spec.final_zero:
            probabilities.append(0.0)
        if q_abort_override is not None:
            q_abort = q_abort_override
        elif round_spec.p > 0:
            q_abort = math.ceil(4 * (1.0 / round_spec.p) * log_n)
        else:
            q_abort = math.inf
        pipeline = (
            math.ceil((q_abort + 1) / cap_entries)
            if q_abort != math.inf
            else n
        )
        calls_done = 0
        for p in probabilities:
            if not sum(network.apply_programs(_alive_count)):
                break
            idx = call_index
            call_index += 1
            calls_done += 1
            sampler = _ClusterSampler(idx, p, prf)

            run_phase("exchange", 2)
            run_phase(
                "converge",
                radius_bound + pipeline + 2,
                sampler=sampler,
                q_abort=q_abort,
                cap_entries=cap_entries,
            )
            run_phase("decide", radius_bound + pipeline + 2)
            aborts += sum(network.apply_programs(_call_aborts))
            network.apply_programs(_finalize_call)
            budgeted_rounds += 2 * (radius_bound + pipeline + 2) + 2
            cluster_counts.append(
                len(set().union(*network.apply_programs(_alive_centers)))
            )
        # Contract: p1 <- p2, relearn children (one announcement round).
        run_phase("contract", 2)
        budgeted_rounds += 2
        radius_bound = _radius_after_round(radius_bound, calls_done)

    edges: Set[Edge] = set()
    for shard_edges in network.apply_programs(_spanner_edges):
        edges |= shard_edges
    metadata = {
        "algorithm": "pettie-skeleton-distributed",
        "D": D,
        "eps": eps,
        "reliable": reliable,
        "message_cap": cap,
        "network_stats": network.stats,
        "budgeted_rounds": budgeted_rounds,
        "cluster_counts": cluster_counts,
        "expand_calls": call_index,
        "aborts": aborts,
    }
    return Spanner(graph, edges, metadata)
