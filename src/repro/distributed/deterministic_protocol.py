"""Deterministic linear-size skeleton (Elkin–Matar style superclustering).

The sixth protocol: a deterministic counterpart to the randomized
Section 2 skeleton, following the ruling-set/superclustering structure
of Elkin–Matar, "Fast Deterministic Constructions of Linear-Size
Spanners and Skeletons" (arXiv:1907.10895; see also Bezdrighin et al.,
arXiv:2204.14086).  No shared randomness is used anywhere — every
tie-break is a minimum, so the sequential reference
(:func:`repro.baselines.deterministic_skeleton.sequential_deterministic`)
reproduces the *exact* edge set, which the fuzz differential oracle
demands.

Clusters are rooted trees of spanner edges (initially singletons).
Superphase ``i`` uses the doubly-exponential degree threshold
``t_i = (D+1)^(2^i) - 1``:

1. **exchange** — active vertices announce their cluster id.
2. **survey** — each cluster convergecasts, one bounded message per
   edge per round, the minimum boundary edge per adjacent cluster; a
   vertex that has seen ``t_i`` distinct clusters stops tabulating and
   raises a *high* flag instead (high clusters never need their table).
3. **ruling loop** — undecided high clusters iteratively compute
   ``m1(C)`` (minimum undecided-high id over the closed cluster
   neighborhood) and ``m2(C)`` (minimum ``m1`` over the closed
   neighborhood); ``C`` becomes a *center* iff ``m2(C) = id(C)``.
   Centers are pairwise at cluster-distance >= 3, and the global
   minimum undecided id always wins, so each iteration decides at
   least one cluster.  High clusters within distance 2 of a center
   are marked dominated; the loop runs until no undecided high
   cluster remains.
4. **resolve** — every cluster adjacent to a center joins its minimum
   adjacent center (adding one minimum boundary edge and re-rooting
   its tree at the attachment point); dominated high clusters at
   distance 2 join through a wave-1 joiner the same way; low clusters
   adjacent to no center *die*, keeping the minimum boundary edge to
   each adjacent cluster (< t_i edges) and going inactive.

Each center absorbs its >= t_i + 1 closed-neighborhood clusters, so
cluster counts drop as n_{i+1} <= n_i / (t_i + 1) and the protocol
terminates within ``deterministic_phase_count(n, D)`` superphases;
death edges total <= n (D+1) per superphase and joins <= n overall
(the ``deterministic_size_bound``), while cluster radii obey
``r_{i+1} <= 5 r_i + 2``, giving worst-case stretch
``2 * 5^(L-1) - 1`` (see :mod:`repro.core.theory`).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.theory import (
    deterministic_phase_count,
    deterministic_radius_bound,
    deterministic_threshold,
)
from repro.distributed.faults import FaultPlan
from repro.distributed.reliable import ReliableConfig, build_network
from repro.distributed.simulator import Api, NodeProgram
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.obs.trace import Obs, phase_scope
from repro.spanner.spanner import Spanner
from repro.util.rng import SeedLike

# Message tags (all payloads are fixed-arity tuples of at most 4 words —
# one message per edge per round, the CONGEST discipline).
_EXCHANGE = "X"    # ("X", cluster)
_SURVEY = "U"      # ("U", cluster, e0, e1)
_SURVEY_HIGH = "UH"  # ("UH",)
_DOWN = "DN"       # ("DN", value)
_BOUNDARY = "B"    # ("B", value)
_UP = "UP"         # ("UP", value)
_CAND = "C1"       # ("C1", cluster)  wave-1 center announcement
_CAND2 = "C2"      # ("C2", cluster)  wave-2 joined announcement
_UP_CAND = "J"     # ("J", cluster, mine, theirs)
_UP_NONE = "JN"    # ("JN",)
_ADOPT = "AD"      # ("AD", cluster, mine, theirs)
_NEW_CLUSTER = "NC"  # ("NC", cluster)
_CHILD = "CH"      # ("CH",)
_DEATH = "DD"      # ("DD", e0, e1)
_DEATH_MARK = "DK"  # ("DK",)

#: a join candidate: (target cluster, e0, e1, mine, theirs) where
#: (e0, e1) = canonical_edge(mine, theirs); ordered by (cluster, e0, e1).
Candidate = Tuple[int, int, int, int, int]


class _DeterministicProgram(NodeProgram):
    """Per-vertex state machine for the deterministic protocol."""

    def __init__(self, node_id: int, n: int) -> None:
        self.node_id = node_id
        #: cluster-id infinity sentinel (all ids are < n).
        self.inf = n
        self.active = True
        self.cluster = node_id
        self.parent: Optional[int] = None
        self.children: Set[int] = set()
        self.edges: Set[Edge] = set()

        self.phase = "idle"
        self.phase_round = 0
        self.threshold = 1
        self.kind = ""
        self.wave = 0
        self.nbr_cl: Dict[int, int] = {}
        self.high = False
        self.join_initiated = 0  # wave (1/2) if this root executed a join
        self._reset_superphase_scratch()

    def _reset_superphase_scratch(self) -> None:
        self.survey_table: Dict[int, Edge] = {}
        self.survey_sent: Dict[int, Edge] = {}
        self.survey_high = False
        self.survey_high_sent = False
        self.rs_m1 = self.inf
        self.rs_center = False
        self.rs_decided = False
        self.rs_d1 = False
        self.down_val = 0
        self.local_min = 0
        self.up_pending: Set[int] = set()
        self.up_sent = False
        self.up_best: Optional[Candidate] = None
        self.up_winner: Optional[int] = None
        self.join_cand: Optional[Candidate] = None
        self.join_target: Optional[Candidate] = None
        self.in_center = False
        self.joined = False
        self.dying = False
        self.death_queue: List[Edge] = []
        self.death_mark_sent = False

    # ------------------------------------------------------------------
    # Superphase / phase control (runner-invoked, processor-local info)
    # ------------------------------------------------------------------
    def begin_superphase(self, threshold: int) -> None:
        self.threshold = threshold
        self.high = False
        self.join_initiated = 0
        self.nbr_cl = {}
        self._reset_superphase_scratch()

    def begin_phase(self, phase: str, **config: Any) -> None:
        self.phase = phase
        self.phase_round = 0
        if phase == "survey":
            self._begin_survey()
        elif phase == "r_down":
            self._begin_down(config["kind"])
        elif phase == "r_x":
            self.local_min = self.down_val
        elif phase == "r_up":
            self.kind = config["kind"]
            self.up_pending = set(self.children)
            self.up_sent = False
        elif phase == "res_x":
            self.wave = config["wave"]
            self.join_cand = None
        elif phase == "res_up":
            self.wave = config["wave"]
            self.up_pending = set(self.children)
            self.up_sent = False
            self.up_best = self.join_cand
            self.up_winner = None
            self.join_target = None
        elif phase == "res_join":
            self.wave = config["wave"]

    def conclude_survey(self) -> None:
        """Runner hook after the survey phase: the root fixes high/low."""
        if self.active and self.parent is None:
            self.high = (
                self.survey_high
                or len(self.survey_table) >= self.threshold
            )
            self.rs_m1 = self.inf
            self.rs_center = False
            self.rs_decided = False
            self.rs_d1 = False

    def finalize_superphase(self) -> None:
        """Runner hook after res_death: commit deaths."""
        if self.dying:
            self.active = False

    def _begin_survey(self) -> None:
        self.survey_table = {}
        self.survey_sent = {}
        self.survey_high = False
        self.survey_high_sent = False
        if not self.active:
            return
        for x in sorted(self.nbr_cl):
            cl = self.nbr_cl[x]
            if cl != self.cluster:
                self._survey_note(cl, canonical_edge(self.node_id, x))

    def _survey_note(self, cl: int, edge: Edge) -> None:
        if self.survey_high:
            return
        if cl in self.survey_table:
            if edge < self.survey_table[cl]:
                self.survey_table[cl] = edge
        elif len(self.survey_table) >= self.threshold:
            # A t-th distinct adjacent cluster in this subtree: the
            # cluster's degree is >= t, so it is high and its table is
            # never consulted — stop tabulating, raise the flag.
            self.survey_high = True
        else:
            self.survey_table[cl] = edge

    def _begin_down(self, kind: str) -> None:
        self.kind = kind
        self.down_val = self.inf
        if not (self.active and self.parent is None):
            return
        if kind == "st1":
            self.down_val = (
                self.cluster
                if self.high and not self.rs_decided
                else self.inf
            )
        elif kind == "m1":
            self.down_val = self.rs_m1
        elif kind == "ctr":
            self.down_val = self.cluster if self.rs_center else self.inf
        elif kind == "d1":
            self.down_val = 0 if self.rs_d1 else 1
        elif kind == "fin":
            self.down_val = 1 if self.rs_center else 0
            self.in_center = self.rs_center

    def _apply_up_result(self, kind: str, value: int) -> None:
        """The root folds a convergecast result into its ruling state."""
        if kind == "m1":
            self.rs_m1 = value
        elif kind == "m2":
            if self.high and not self.rs_decided and value == self.cluster:
                self.rs_center = True
                self.rs_decided = True
        elif kind == "ctr":
            adjacent = value < self.inf
            if self.high and not self.rs_decided and adjacent:
                self.rs_decided = True
            self.rs_d1 = self.rs_center or adjacent
        elif kind == "d1":
            if self.high and not self.rs_decided and value == 0:
                self.rs_decided = True

    # ------------------------------------------------------------------
    # Round dispatch
    # ------------------------------------------------------------------
    def on_round(
        self, api: Api, round_index: int, inbox: List[Tuple[int, Any]]
    ) -> None:
        self.phase_round += 1
        if self.phase == "exchange":
            self._round_exchange(api, inbox)
        elif self.phase == "survey":
            self._round_survey(api, inbox)
        elif self.phase == "r_down":
            self._round_down(api, inbox)
        elif self.phase == "r_x":
            self._round_boundary(api, inbox)
        elif self.phase == "r_up":
            self._round_up(api, inbox)
        elif self.phase == "res_x":
            self._round_res_x(api, inbox)
        elif self.phase == "res_up":
            self._round_res_up(api, inbox)
        elif self.phase == "res_join":
            self._round_res_join(api, inbox)
        elif self.phase == "res_death":
            self._round_res_death(api, inbox)

    def _round_exchange(self, api: Api, inbox: List[Tuple[int, Any]]) -> None:
        if not self.active:
            return
        if self.phase_round == 1:
            self.nbr_cl = {}
            api.broadcast((_EXCHANGE, self.cluster))
            return
        for src, msg in inbox:
            if msg[0] == _EXCHANGE:
                self.nbr_cl[src] = msg[1]

    def _round_survey(self, api: Api, inbox: List[Tuple[int, Any]]) -> None:
        if not self.active:
            return
        for src, msg in inbox:
            if msg[0] == _SURVEY:
                self._survey_note(msg[1], (msg[2], msg[3]))
            elif msg[0] == _SURVEY_HIGH:
                self.survey_high = True
        if self.parent is None:
            return  # the root only accumulates
        if self.survey_high:
            if not self.survey_high_sent:
                api.send(self.parent, (_SURVEY_HIGH,))
                self.survey_high_sent = True
            return
        # One bounded message per round: the first stale table entry.
        for cl in sorted(self.survey_table):
            edge = self.survey_table[cl]
            if self.survey_sent.get(cl) != edge:
                api.send(self.parent, (_SURVEY, cl, edge[0], edge[1]))
                self.survey_sent[cl] = edge
                return

    def _round_down(self, api: Api, inbox: List[Tuple[int, Any]]) -> None:
        if not self.active:
            return
        if self.phase_round == 1:
            if self.parent is None:
                for child in sorted(self.children):
                    api.send(child, (_DOWN, self.down_val))
            return
        for src, msg in inbox:
            if msg[0] == _DOWN:
                self.down_val = msg[1]
                if self.kind == "fin":
                    self.in_center = bool(msg[1])
                for child in sorted(self.children):
                    api.send(child, (_DOWN, msg[1]))

    def _round_boundary(
        self, api: Api, inbox: List[Tuple[int, Any]]
    ) -> None:
        if not self.active:
            return
        if self.phase_round == 1:
            api.broadcast((_BOUNDARY, self.down_val))
            return
        for src, msg in inbox:
            if msg[0] == _BOUNDARY and msg[1] < self.local_min:
                self.local_min = msg[1]

    def _round_up(self, api: Api, inbox: List[Tuple[int, Any]]) -> None:
        if not self.active:
            return
        for src, msg in inbox:
            if msg[0] == _UP:
                if msg[1] < self.local_min:
                    self.local_min = msg[1]
                self.up_pending.discard(src)
        if self.up_pending or self.up_sent:
            return
        self.up_sent = True
        if self.parent is None:
            self._apply_up_result(self.kind, self.local_min)
        else:
            api.send(self.parent, (_UP, self.local_min))

    def _note_candidate(self, target: int, mine: int, theirs: int) -> None:
        e0, e1 = canonical_edge(mine, theirs)
        cand = (target, e0, e1, mine, theirs)
        if self.join_cand is None or cand[:3] < self.join_cand[:3]:
            self.join_cand = cand

    def _round_res_x(self, api: Api, inbox: List[Tuple[int, Any]]) -> None:
        if not self.active:
            return
        if self.phase_round == 1:
            if self.wave == 1 and self.in_center:
                api.broadcast((_CAND, self.cluster))
            elif self.wave == 2 and self.joined:
                api.broadcast((_CAND2, self.cluster))
            return
        if self.in_center or self.joined:
            return  # settled clusters collect no candidates
        for src, msg in inbox:
            if msg[0] in (_CAND, _CAND2):
                self._note_candidate(msg[1], self.node_id, src)

    def _round_res_up(self, api: Api, inbox: List[Tuple[int, Any]]) -> None:
        if not (self.active and not self.in_center and not self.joined):
            return
        for src, msg in inbox:
            if msg[0] == _UP_CAND:
                target, mine, theirs = msg[1], msg[2], msg[3]
                e0, e1 = canonical_edge(mine, theirs)
                cand = (target, e0, e1, mine, theirs)
                if self.up_best is None or cand[:3] < self.up_best[:3]:
                    self.up_best = cand
                    self.up_winner = src
                self.up_pending.discard(src)
            elif msg[0] == _UP_NONE:
                self.up_pending.discard(src)
        if self.up_pending or self.up_sent:
            return
        self.up_sent = True
        if self.parent is None:
            self.join_target = self.up_best
        elif self.up_best is not None:
            target, _e0, _e1, mine, theirs = self.up_best
            api.send(self.parent, (_UP_CAND, target, mine, theirs))
        else:
            api.send(self.parent, (_UP_NONE,))

    def _execute_join(self, api: Api) -> None:
        assert self.join_target is not None
        target, e0, e1, mine, theirs = self.join_target
        self.cluster = target
        self.joined = True
        kids = sorted(self.children)
        if self.up_winner is None:
            # This vertex owns the attachment edge (mine == node_id):
            # hang the whole re-rooted tree under ``theirs``.
            self.parent = theirs
            self.edges.add((e0, e1))
            api.send(theirs, (_CHILD,))
            for child in kids:
                api.send(child, (_NEW_CLUSTER, target))
        else:
            winner = self.up_winner
            self.parent = winner
            self.children.discard(winner)
            api.send(winner, (_ADOPT, target, mine, theirs))
            for child in kids:
                if child != winner:
                    api.send(child, (_NEW_CLUSTER, target))

    def _round_res_join(
        self, api: Api, inbox: List[Tuple[int, Any]]
    ) -> None:
        if not self.active:
            return
        for src, msg in inbox:
            tag = msg[0]
            if tag == _CHILD:
                self.children.add(src)
            elif tag == _ADOPT:
                self.join_target = (
                    msg[1],
                ) + canonical_edge(msg[2], msg[3]) + (msg[2], msg[3])
                self._execute_join(api)
                self.children.add(src)
            elif tag == _NEW_CLUSTER:
                self.cluster = msg[1]
                self.joined = True
                for child in sorted(self.children):
                    api.send(child, (_NEW_CLUSTER, msg[1]))
        if self.phase_round != 1 or self.parent is not None:
            return
        if self.in_center or self.joined:
            return
        eligible = self.join_target is not None and (
            self.wave == 1 or self.high
        )
        if eligible:
            self.join_initiated = self.wave
            self._execute_join(api)

    def _round_res_death(
        self, api: Api, inbox: List[Tuple[int, Any]]
    ) -> None:
        if not self.active:
            return
        for src, msg in inbox:
            tag = msg[0]
            if tag == _DEATH:
                edge = (msg[1], msg[2])
                if self.node_id in edge:
                    self.edges.add(edge)
                for child in sorted(self.children):
                    api.send(child, (_DEATH, edge[0], edge[1]))
            elif tag == _DEATH_MARK:
                self.dying = True
                for child in sorted(self.children):
                    api.send(child, (_DEATH_MARK,))
        if self.parent is not None:
            return
        if self.phase_round == 1:
            dies = (
                not self.in_center
                and not self.joined
                and not self.high
            )
            if not dies:
                return
            self.dying = True
            self.death_queue = []
            for cl in sorted(self.survey_table):
                edge = self.survey_table[cl]
                if self.node_id in edge:
                    self.edges.add(edge)
                self.death_queue.append(edge)
            self.death_mark_sent = False
        if not self.dying or not self.children:
            return
        # Pipeline the table down, one bounded message per edge per round.
        if self.death_queue:
            edge = self.death_queue.pop(0)
            for child in sorted(self.children):
                api.send(child, (_DEATH, edge[0], edge[1]))
        elif not self.death_mark_sent:
            for child in sorted(self.children):
                api.send(child, (_DEATH_MARK,))
            self.death_mark_sent = True


# Engine-agnostic program hooks: the driver reaches node programs only
# through ``network.apply_programs`` with these module-level (hence
# picklable) functions, so the same driver runs whether the programs
# live in this process or in the sharded engine's workers.
def _begin_phase(
    programs: Dict[int, NodeProgram], name: str, **config: Any
) -> None:
    for program in programs.values():
        program.begin_phase(name, **config)  # type: ignore[attr-defined]


def _begin_superphase(
    programs: Dict[int, "_DeterministicProgram"], threshold: int
) -> None:
    for program in programs.values():
        program.begin_superphase(threshold)


def _conclude_survey(
    programs: Dict[int, "_DeterministicProgram"],
) -> None:
    for program in programs.values():
        program.conclude_survey()


def _finalize_superphase(
    programs: Dict[int, "_DeterministicProgram"],
) -> None:
    for program in programs.values():
        program.finalize_superphase()


def _active_count(programs: Dict[int, "_DeterministicProgram"]) -> int:
    return sum(1 for pr in programs.values() if pr.active)


def _cluster_count(programs: Dict[int, "_DeterministicProgram"]) -> int:
    return sum(
        1 for pr in programs.values() if pr.active and pr.parent is None
    )


def _undecided_high_count(
    programs: Dict[int, "_DeterministicProgram"],
) -> int:
    return sum(
        1
        for pr in programs.values()
        if pr.active and pr.parent is None and pr.high
        and not pr.rs_decided
    )


def _superphase_tallies(
    programs: Dict[int, "_DeterministicProgram"],
) -> Tuple[int, int, int, int]:
    """(centers, wave-1 joins, wave-2 joins, deaths) of this superphase.

    Gathered after res_death but before ``finalize_superphase`` (dying
    roots are still active; joined roots are identified by the
    ``join_initiated`` flag because their ``parent`` is already set).
    """
    centers = joins1 = joins2 = deaths = 0
    for pr in programs.values():
        if pr.join_initiated == 1:
            joins1 += 1
        elif pr.join_initiated == 2:
            joins2 += 1
        if pr.active and pr.parent is None:
            if pr.rs_center:
                centers += 1
            elif pr.dying:
                deaths += 1
    return centers, joins1, joins2, deaths


def _spanner_edges(
    programs: Dict[int, "_DeterministicProgram"],
) -> Set[Edge]:
    edges: Set[Edge] = set()
    for program in programs.values():
        edges |= program.edges
    return edges


def distributed_deterministic(
    graph: Graph,
    D: int = 4,
    seed: SeedLike = None,
    max_message_words: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    reliable: bool = False,
    reliable_config: Optional[ReliableConfig] = None,
    obs: Optional[Obs] = None,
    shards: Optional[int] = None,
) -> Spanner:
    """Run the deterministic superclustering protocol on ``graph``.

    ``seed`` is accepted for registry uniformity and ignored — the
    protocol draws no randomness, so two runs (and the sequential
    reference) produce byte-identical results by construction.
    Metadata carries the :class:`NetworkStats` (``"network_stats"``),
    the synchronous schedule bound (``"budgeted_rounds"``), the
    per-superphase cluster counts (``"cluster_counts"``), ruling-loop
    iteration counts (``"ruling_iterations"``), and per-superphase
    (centers, wave-1 joins, wave-2 joins, deaths) tallies
    (``"superphase_tallies"``) — all cross-checked exactly against the
    sequential reference by the fuzz differential oracle.
    """
    del seed  # deterministic: no randomness anywhere
    if D < 1:
        raise ValueError("D must be >= 1")
    n = graph.n
    if obs is not None and not obs.protocol:
        obs.protocol = "deterministic"
    network = build_network(
        graph,
        partial(_DeterministicProgram, n=n),
        max_message_words=max_message_words,
        fault_plan=fault_plan,
        reliable=reliable,
        reliable_config=reliable_config,
        obs=obs,
        shards=shards,
    )

    budgeted_rounds = 0

    def run_phase(
        label: str, name: str, budget: int, **config: Any
    ) -> None:
        nonlocal budgeted_rounds
        with phase_scope(obs, label):
            network.apply_programs(_begin_phase, name, **config)
            network.run(max_rounds=budget, stop_when_idle=True)
            # Drain messages still in flight (the synchronous schedule
            # would have waited out the full budget; we stop once quiet).
            while network.in_flight:
                network.run(max_rounds=1)
        budgeted_rounds += budget

    max_superphases = deterministic_phase_count(n, D)
    # With faults and no reliable transport, dropped messages can starve
    # the progress argument (a survey or ruling wave silently loses its
    # minimum); degrade to a best-effort partial run instead of raising.
    lossy = fault_plan is not None and not reliable
    degraded = False
    cluster_counts: List[int] = []
    ruling_iterations: List[int] = []
    tallies: List[Tuple[int, int, int, int]] = []
    superphase = 0
    while sum(network.apply_programs(_active_count)) > 0:
        if superphase >= max_superphases:
            if lossy:
                degraded = True
                break
            raise RuntimeError(
                f"deterministic protocol exceeded its "
                f"{max_superphases}-superphase budget (n={n}, D={D})"
            )
        threshold = deterministic_threshold(D, superphase)
        depth = deterministic_radius_bound(superphase) + 1
        cluster_counts.append(
            sum(network.apply_programs(_cluster_count))
        )
        network.apply_programs(_begin_superphase, threshold)
        sp = f"sp{superphase}"
        run_phase(f"{sp}.exchange", "exchange", 2)
        run_phase(f"{sp}.survey", "survey", depth + threshold + 4)
        network.apply_programs(_conclude_survey)

        iterations = 0
        while sum(network.apply_programs(_undecided_high_count)) > 0:
            iterations += 1
            if iterations > n + 2:
                if lossy:
                    degraded = True
                    break
                raise RuntimeError(
                    "ruling loop failed to converge "
                    f"(n={n}, D={D}, superphase={superphase})"
                )
            it = f"{sp}.rule{iterations}"
            for src_kind, dst_kind in (
                ("st1", "m1"),
                ("m1", "m2"),
                ("ctr", "ctr"),
                ("d1", "d1"),
            ):
                run_phase(f"{it}.{dst_kind}.down", "r_down",
                          depth + 2, kind=src_kind)
                run_phase(f"{it}.{dst_kind}.x", "r_x", 2)
                run_phase(f"{it}.{dst_kind}.up", "r_up",
                          depth + 2, kind=dst_kind)
        ruling_iterations.append(iterations)

        run_phase(f"{sp}.fin.down", "r_down", depth + 2, kind="fin")
        for wave in (1, 2):
            run_phase(f"{sp}.res_x{wave}", "res_x", 2, wave=wave)
            run_phase(f"{sp}.res_up{wave}", "res_up",
                      depth + 3, wave=wave)
            run_phase(f"{sp}.res_join{wave}", "res_join",
                      2 * depth + 5, wave=wave)
        run_phase(f"{sp}.res_death", "res_death",
                  depth + threshold + 4)

        tally = (0, 0, 0, 0)
        for shard_tally in network.apply_programs(_superphase_tallies):
            tally = tuple(
                a + b for a, b in zip(tally, shard_tally)
            )  # type: ignore[assignment]
        tallies.append(tally)
        network.apply_programs(_finalize_superphase)
        superphase += 1

    edges: Set[Edge] = set()
    for shard_edges in network.apply_programs(_spanner_edges):
        edges |= shard_edges
    metadata = {
        "algorithm": "elkin-matar-deterministic",
        "D": D,
        "reliable": reliable,
        "degraded": degraded,
        "network_stats": network.stats,
        "budgeted_rounds": budgeted_rounds,
        "superphases": superphase,
        "cluster_counts": cluster_counts,
        "ruling_iterations": ruling_iterations,
        "superphase_tallies": tallies,
    }
    return Spanner(graph, edges, metadata)
