"""Synchronous distributed network simulator.

The model is the paper's (Sect. 1.1): the communication network *is* the
input graph; each vertex holds a processor with a unique O(log n)-bit
identifier; computation proceeds in synchronized rounds in which each
processor may send one message to each neighbor; local computation is
free.  Algorithms are separated by their **maximum message length**,
measured in units of O(log n) bits ("words") — the axis between Peleg's
LOCAL (unbounded) and CONGEST (unit) models.

The simulator delivers messages at round boundaries, charges every
(edge, round, direction) slot by the word count of what it carried
(multiple ``send`` calls to the same neighbor in one round are merged
into one message whose width is the sum), and records round, message and
width statistics.  A cap can be enforced (``strict=True`` raises
:class:`ProtocolError`) or merely audited (violations counted) — the
latter is how benches *observe* a protocol's message-length requirement.

Hot path (see ``docs/performance.md``): :meth:`Network.run` is the one
round loop for every configuration.  Fault delivery and ``obs.on_round``
are gated once per round, and the crash skip and inbox re-sort once per
node step, each behind one ``is not None`` check.  The vertex order and
per-node sorted neighbor lists are computed once at construction;
halted nodes are skipped via an incrementally maintained active list
rather than scanned; payload word counts are memoized
(:class:`repro.util.words.WordCounter`); and because senders are
collected in ascending vertex order, each inbox bucket is *already*
src-sorted, so the per-node ``sorted()`` call is paid only when a fault
plan can perturb delivery order.  One specialised branch remains, in
``_collect_outboxes``: an outbox whose sends all go to distinct
neighbors is charged slot by slot, with no per-destination dict —
charging every outbox through the per-destination pass instead cost
17-23% of clean-run message throughput.  The shard workers of
:mod:`repro.distributed.sharded` run the same round body
(``_run_setup`` / ``_run_round``).  Trace bytes and counts are pinned
across engine versions by ``tests/test_trace_golden.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.distributed.faults import (
    CRASH_DROP,
    DELAY,
    DROP,
    DUPLICATE,
    REORDER,
    FaultEvent,
    FaultPlan,
)
from repro.graphs.graph import Graph
from repro.util.words import WordCounter


class ProtocolError(RuntimeError):
    """A node violated the communication model (bad dst, width cap, ...)."""


@dataclass
class NetworkStats:
    """Round/message/width accounting for one or more protocol runs."""

    rounds: int = 0
    #: per-(edge, round, direction) messages actually delivered.
    messages: int = 0
    total_words: int = 0
    #: widest single (edge, round, direction) slot observed.
    max_message_words: int = 0
    cap: Optional[int] = None
    violations: int = 0
    #: fault-injection accounting (all zero on a clean network).
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    reordered: int = 0
    #: reliable-delivery layer accounting (zero without the adapter).
    retransmissions: int = 0
    dead_links: int = 0
    #: injected events, in order (truncated at the plan's log limit).
    fault_events: List[FaultEvent] = field(default_factory=list)
    #: events the bounded log refused (counters above stay exact; attach
    #: a :class:`repro.obs.trace.TraceRecorder` for full event fidelity).
    fault_events_dropped: int = 0

    def observe(self, words: int) -> None:
        self.messages += 1
        self.total_words += words
        if words > self.max_message_words:
            self.max_message_words = words
        if self.cap is not None and words > self.cap:
            self.violations += 1

    def record_fault(self, event: FaultEvent, limit: int = 256) -> None:
        """Append to the event log, or count the drop once it is full.

        The in-memory log is bounded so unbounded chaos runs cannot grow
        memory without limit; ``fault_events_dropped`` says how much of
        the history is missing."""
        if len(self.fault_events) < limit:
            self.fault_events.append(event)
        else:
            self.fault_events_dropped += 1

    @property
    def faults_injected(self) -> int:
        """Total messages perturbed by the fault plan."""
        return self.dropped + self.duplicated + self.delayed + self.reordered

    def merged_with(
        self, other: "NetworkStats", limit: int = 512
    ) -> "NetworkStats":
        """Combine stats from sequential protocol phases.

        ``limit`` bounds the merged in-memory fault-event log the same
        way :meth:`record_fault`'s limit bounds a single run's log —
        callers that configured a non-default ``FaultPlan.
        max_logged_events`` thread it here so a multi-phase merge honors
        the same cap.  ``fault_events_dropped`` stays exact either way:
        every event not retained is counted.
        """
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        caps = [c for c in (self.cap, other.cap) if c is not None]
        merged_events = self.fault_events + other.fault_events
        overflow = max(0, len(merged_events) - limit)
        return NetworkStats(
            rounds=self.rounds + other.rounds,
            messages=self.messages + other.messages,
            total_words=self.total_words + other.total_words,
            max_message_words=max(
                self.max_message_words, other.max_message_words
            ),
            cap=min(caps) if caps else None,
            violations=self.violations + other.violations,
            dropped=self.dropped + other.dropped,
            duplicated=self.duplicated + other.duplicated,
            delayed=self.delayed + other.delayed,
            reordered=self.reordered + other.reordered,
            retransmissions=self.retransmissions + other.retransmissions,
            dead_links=self.dead_links + other.dead_links,
            fault_events=merged_events[:limit],
            fault_events_dropped=(
                self.fault_events_dropped
                + other.fault_events_dropped
                + overflow
            ),
        )

    def __str__(self) -> str:
        text = (
            f"rounds={self.rounds} messages={self.messages} "
            f"max_words={self.max_message_words}"
            + (f" cap={self.cap} violations={self.violations}"
               if self.cap is not None else "")
        )
        if self.faults_injected:
            text += (
                f" dropped={self.dropped} duplicated={self.duplicated}"
                f" delayed={self.delayed} reordered={self.reordered}"
            )
        if self.retransmissions or self.dead_links:
            text += (
                f" retransmissions={self.retransmissions}"
                f" dead_links={self.dead_links}"
            )
        return text


class Api:
    """Per-node handle passed into the node program each round."""

    __slots__ = (
        "_network", "node_id", "_outbox", "_halted", "_nbrs", "_nbr_set"
    )

    def __init__(self, network: "Network", node_id: int) -> None:
        self._network = network
        self.node_id = node_id
        self._outbox: List[Tuple[int, Any]] = []
        self._halted = False
        #: cached at construction: the sorted neighbor list (delivery
        #: determinism) and the adjacency set (O(1) send validation).
        self._nbrs = network.sorted_neighbors(node_id)
        self._nbr_set = network.graph.neighbors(node_id)

    @property
    def neighbors(self) -> List[int]:
        """This node's neighbor identifiers (sorted, deterministic)."""
        return self._nbrs

    @property
    def n(self) -> int:
        """The network size n (known to all processors in the model)."""
        return self._network.graph.n

    def send(self, dst: int, payload: Any) -> None:
        """Queue ``payload`` for delivery to neighbor ``dst`` next round."""
        if dst not in self._nbr_set:
            raise ProtocolError(
                f"node {self.node_id} tried to message non-neighbor {dst}"
            )
        self._outbox.append((dst, payload))

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every neighbor.

        The recipients come from the cached neighbor list, so no
        per-edge membership validation is re-done (every entry is a
        neighbor by construction); a direct ``send`` still validates.
        """
        self._outbox += [(u, payload) for u in self._nbrs]

    def halt(self) -> None:
        """Stop participating; the node receives no further rounds."""
        if not self._halted:
            self._halted = True
            network = self._network
            network._halted_count += 1
            network._active_dirty = True
            if network.obs is not None:
                network.obs.on_halt(network.stats.rounds, self.node_id)


class NodeProgram:
    """Base class for per-node protocol logic.

    ``setup`` runs before round 1 (it may send); ``on_round`` runs every
    round with the messages delivered this round as ``inbox`` — a list of
    ``(src, payload)`` pairs in deterministic (src-sorted) order.
    """

    def setup(self, api: Api) -> None:  # pragma: no cover - default no-op
        pass

    def on_round(
        self, api: Api, round_index: int, inbox: List[Tuple[int, Any]]
    ) -> None:
        raise NotImplementedError

    def on_amnesia_recover(self, api: Api, round_index: int) -> None:
        """Hook fired when this node recovers from an amnesia-crash.

        Called once, at the recovery round, *before* that round's
        ``on_round``.  Implementations must discard volatile state and
        may send (e.g. a repair-handshake solicitation); the default is
        a no-op, which degrades amnesia to fail-pause for programs that
        predate the hook (see ``CrashSpec.amnesia``).
        """
        # pragma: no cover - default no-op


def _check_programs(graph: Graph, programs: Dict[int, Any]) -> None:
    """Raise ``ValueError`` unless ``programs`` covers exactly ``graph``'s
    vertices (shared by every engine's constructor)."""
    vertex_set = set(graph.vertices())
    missing = sorted(vertex_set - set(programs))
    if missing:
        raise ValueError(f"no program for vertices {missing[:5]}...")
    unknown = sorted(set(programs) - vertex_set)
    if unknown:
        raise ValueError(
            f"programs for vertices not in the graph: {unknown[:5]}"
        )


class Network:
    """A synchronous network: one :class:`NodeProgram` per graph vertex."""

    def __init__(
        self,
        graph: Graph,
        programs: Optional[Dict[int, NodeProgram]] = None,
        program_factory: Optional[Callable[[int], NodeProgram]] = None,
        max_message_words: Optional[int] = None,
        strict: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        obs: Optional[Any] = None,
        reliable_layer: bool = False,
    ) -> None:
        if (programs is None) == (program_factory is None):
            raise ValueError(
                "provide exactly one of programs / program_factory"
            )
        if programs is None:
            assert program_factory is not None  # by the check above
            programs = {v: program_factory(v) for v in graph.vertices()}
        _check_programs(graph, programs)
        self._init_state(
            graph,
            programs,
            max_message_words,
            strict,
            fault_plan,
            obs,
            reliable_layer,
        )
        if obs is not None:
            obs.on_network(self)

    def _init_state(
        self,
        graph: Graph,
        programs: Dict[int, NodeProgram],
        max_message_words: Optional[int],
        strict: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        obs: Optional[Any] = None,
        reliable_layer: bool = False,
    ) -> None:
        """Build the engine state over ``programs``' vertices.

        ``programs`` may cover a subset of ``graph``: a shard worker
        runs one contiguous vertex range over the full graph.
        """
        self.graph = graph
        self.programs = programs
        self.strict = strict
        self.fault_plan = fault_plan
        self.stats = NetworkStats(cap=max_message_words)
        #: observability bundle (:class:`repro.obs.trace.Obs`) or None.
        #: Every hot-path hook hides behind one ``is not None`` check so
        #: an unobserved run pays nothing (benchmark E21).
        self.obs = obs
        #: whether this network carries a reliable-delivery layer on
        #: top (recorded in traces; set by ``ReliableNetwork``).
        self.reliable_layer = reliable_layer
        #: bound on the in-memory fault event log of ``stats``.
        self.fault_log_limit = (
            fault_plan.max_logged_events if fault_plan is not None else 256
        )
        #: hot-path state, computed once: ascending vertex order and the
        #: per-node sorted neighbor lists (never re-sorted per round).
        self._order: List[int] = sorted(programs)
        self._sorted_nbrs: Dict[int, List[int]] = {
            v: sorted(graph.neighbors(v)) for v in self._order
        }
        self._apis = {v: Api(self, v) for v in self._order}
        #: (vertex, api, program) triples in delivery order — the round
        #: loop and outbox collection iterate this instead of re-sorting
        #: the api dict every round.
        self._pairs: List[Tuple[int, Api, NodeProgram]] = [
            (v, self._apis[v], self.programs[v]) for v in self._order
        ]
        #: halt bookkeeping: ``all_halted`` is an O(1) counter check and
        #: the active list is rebuilt lazily (only on halt transitions)
        #: so halted nodes are skipped, not scanned, every round.
        self._halted_count = 0
        self._active_dirty = True
        self._active: List[Tuple[Api, NodeProgram]] = []
        #: memoized payload word counts (payload structure -> words).
        self._words = WordCounter()
        #: messages in flight: dst -> list of (src, payload).
        self._pending: Dict[int, List[Tuple[int, Any]]] = {}
        #: fault-delayed messages: delivery round -> [(dst, src, payload)].
        self._delayed: Dict[int, List[Tuple[int, int, Any]]] = {}
        self._setup_done = False

    def _record_fault(self, event: FaultEvent) -> None:
        """Fault accounting chokepoint: bounded in-memory log + trace."""
        self.stats.record_fault(event, self.fault_log_limit)
        if self.obs is not None:
            self.obs.on_fault(event)

    def sorted_neighbors(self, v: int) -> List[int]:
        return self._sorted_nbrs[v]

    def apply_programs(
        self, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> List[Any]:
        """Run ``fn(programs, *args, **kwargs)`` over the node programs.

        The engine-agnostic program-access hook: protocol runners that
        poke per-node state between ``run`` calls (phase configuration,
        liveness counts, final edge collection) go through this instead
        of touching a programs dict directly, so the same driver code
        works when the programs live in another process.  Returns one
        result per partition — a single-element list here, one element
        per shard on :class:`repro.distributed.sharded.ShardedNetwork`
        (where ``fn`` and its arguments must be picklable).
        """
        return [fn(self.programs, *args, **kwargs)]

    def _active_pairs(self) -> List[Tuple[Api, NodeProgram]]:
        """(api, program) pairs of unhalted nodes, in vertex order.

        Rebuilt only when a node halts; nodes halting *during* a round
        keep their position until the next rebuild (a node only ever
        halts itself, so the running round's iteration is unaffected).
        """
        if self._active_dirty:
            self._active = [
                (api, program)
                for _, api, program in self._pairs
                if not api._halted
            ]
            self._active_dirty = False
        return self._active

    @property
    def all_halted(self) -> bool:
        return self._halted_count == len(self._apis)

    @property
    def in_flight(self) -> bool:
        """Whether any message (pending or fault-delayed) is in transit."""
        return bool(self._pending) or bool(self._delayed)

    def _collect_outboxes(self) -> None:
        """Merge this round's sends into next round's inboxes + account.

        Senders are iterated in ascending vertex order, so every inbox
        bucket comes out already sorted by source — the invariant that
        lets the clean delivery path skip per-node inbox sorting.

        Under ``strict`` a check-only pre-pass validates every slot
        against the cap and raises *before* anything is counted, queued,
        cleared or observed, so a :class:`ProtocolError` leaves stats,
        outboxes and in-flight messages exactly as they were.  The
        counting pass accumulates its counters in locals.
        """
        stats = self.stats
        obs = self.obs
        words_of = self._words
        cap = stats.cap
        send_round = stats.rounds
        if self.strict and cap is not None:
            for v, api, _ in self._pairs:
                widths: Dict[int, int] = {}
                for dst, payload in api._outbox:
                    widths[dst] = widths.get(dst, 0) + words_of(payload)
                for dst, words in widths.items():
                    if words > cap:
                        raise ProtocolError(
                            f"node {v} sent {words} words to {dst}, "
                            f"cap is {cap}"
                        )
        next_pending: Dict[int, List[Tuple[int, Any]]] = {}
        messages = 0
        total_words = 0
        max_words = stats.max_message_words
        violations = 0
        words_cache = words_of._cache
        for v, api, _ in self._pairs:
            outbox = api._outbox
            if not outbox:
                continue
            api._outbox = []
            if len({dst for dst, _ in outbox}) == len(outbox):
                # No two sends share a destination (the overwhelmingly
                # common case): each outbox entry is its own slot — no
                # per-destination dict-of-lists to build and unwind.
                for dst, payload in outbox:
                    try:
                        words = words_cache[payload]
                    except (KeyError, TypeError):
                        words = words_of(payload)
                    messages += 1
                    total_words += words
                    if words > max_words:
                        max_words = words
                    if cap is not None and words > cap:
                        violations += 1
                    if obs is not None:
                        obs.on_send(send_round, v, dst, words, [payload])
                    bucket = next_pending.get(dst)
                    if bucket is None:
                        bucket = next_pending[dst] = []
                    bucket.append((v, payload))
                continue
            per_dst: Dict[int, List[Any]] = {}
            for dst, payload in outbox:
                bucket_p = per_dst.get(dst)
                if bucket_p is None:
                    per_dst[dst] = [payload]
                else:
                    bucket_p.append(payload)
            for dst, payloads in per_dst.items():
                words = 0
                for payload in payloads:
                    words += words_of(payload)
                messages += 1
                total_words += words
                if words > max_words:
                    max_words = words
                if cap is not None and words > cap:
                    violations += 1
                if obs is not None:
                    obs.on_send(send_round, v, dst, words, payloads)
                bucket = next_pending.get(dst)
                if bucket is None:
                    bucket = next_pending[dst] = []
                for payload in payloads:
                    bucket.append((v, payload))
        stats.messages += messages
        stats.total_words += total_words
        stats.max_message_words = max_words
        stats.violations += violations
        self._pending = next_pending

    def _apply_faults(
        self,
        plan: FaultPlan,
        round_no: int,
        pending: Dict[int, List[Tuple[int, Any]]],
    ) -> Dict[int, List[Tuple[int, Any]]]:
        """Consult the fault plan for every delivery due this round."""
        stats = self.stats
        for event in plan.transitions(round_no):
            self._record_fault(event)
        delivered: Dict[int, List[Tuple[int, Any]]] = {}
        for dst in sorted(pending):
            msgs = pending[dst]
            if plan.is_crashed(dst, round_no):
                stats.dropped += len(msgs)
                self._record_fault(
                    FaultEvent(CRASH_DROP, round_no, dst=dst,
                               info=len(msgs))
                )
                continue
            bucket: List[Tuple[int, Any]] = []
            for slot, (src, payload) in enumerate(msgs):
                kind, info = plan.decide(round_no, src, dst, slot)
                if kind == DROP:
                    stats.dropped += 1
                    self._record_fault(FaultEvent(DROP, round_no, src, dst))
                elif kind == DUPLICATE:
                    stats.duplicated += 1
                    self._record_fault(
                        FaultEvent(DUPLICATE, round_no, src, dst)
                    )
                    bucket.append((src, payload))
                    bucket.append((src, payload))
                elif kind == DELAY:
                    stats.delayed += 1
                    self._record_fault(
                        FaultEvent(DELAY, round_no, src, dst, info=info)
                    )
                    self._delayed.setdefault(round_no + info, []).append(
                        (dst, src, payload)
                    )
                else:
                    bucket.append((src, payload))
            if bucket:
                delivered[dst] = bucket
        # Fault-delayed messages due now join the inboxes directly (their
        # fate was already decided when they were first due).
        for dst, src, payload in self._delayed.pop(round_no, ()):
            if plan.is_crashed(dst, round_no):
                stats.dropped += 1
                self._record_fault(
                    FaultEvent(CRASH_DROP, round_no, src, dst)
                )
                continue
            delivered.setdefault(dst, []).append((src, payload))
        return delivered

    def _run_setup(self) -> None:
        """Round 0: each node's ``setup`` (unless crashed at round 0),
        then collect what it sent."""
        plan = self.fault_plan
        for v, api, program in self._pairs:
            if plan is None or not plan.is_crashed(v, 0):
                program.setup(api)
        self._collect_outboxes()
        self._setup_done = True

    def _run_round(self, round_no: int) -> None:
        """One round body: deliver, run every active node, collect.

        The caller has already set ``stats.rounds`` to ``round_no``.
        Inbox buckets leave ``_collect_outboxes`` src-sorted, so they
        are handed over as they are; only a fault plan can perturb that
        order (delayed arrivals are appended after their bucket), so the
        stable re-sort and the reorder draw are paid only under a plan.
        """
        plan = self.fault_plan
        pending, self._pending = self._pending, {}
        if plan is not None:
            pending = self._apply_faults(plan, round_no, pending)
            # Amnesia recoveries fire before the round's on_round: the
            # node wipes volatile state (and may solicit a repair
            # handshake) before seeing any new messages.
            for v in plan.amnesia_recoveries(round_no):
                api_v = self._apis[v]
                if not api_v._halted:
                    self.programs[v].on_amnesia_recover(api_v, round_no)
        get_inbox = pending.get
        for api, program in self._active_pairs():
            inbox = get_inbox(api.node_id)
            if plan is not None:
                v = api.node_id
                if plan.is_crashed(v, round_no):
                    continue
                if inbox is not None:
                    inbox = sorted(inbox, key=lambda sp: sp[0])
                    perm = plan.reorder_permutation(round_no, v, len(inbox))
                    if perm is not None:
                        inbox = [inbox[i] for i in perm]
                        self.stats.reordered += 1
                        self._record_fault(
                            FaultEvent(REORDER, round_no, dst=v,
                                       info=len(inbox))
                        )
            program.on_round(
                api, round_no, inbox if inbox is not None else []
            )
        self._collect_outboxes()

    def run(
        self, max_rounds: int, stop_when_idle: bool = False
    ) -> NetworkStats:
        """Execute up to ``max_rounds`` rounds (stops early if all halt).

        Can be called repeatedly; in-flight messages and node state
        persist, so multi-phase protocols may interleave local
        re-configuration between ``run`` calls.  ``stop_when_idle``
        short-circuits once no messages are in flight — a simulation
        speed-up for phases whose synchronous budget far exceeds the
        actual traffic (the budget is reported separately by callers).
        """
        if not self._setup_done:
            self._run_setup()
        stats = self.stats
        obs = self.obs
        total = len(self._apis)
        for _ in range(max_rounds):
            if self._halted_count == total:
                break
            stats.rounds += 1
            if obs is not None:
                obs.on_round(stats.rounds)
            self._run_round(stats.rounds)
            if stop_when_idle and not self.in_flight:
                break
        return stats
