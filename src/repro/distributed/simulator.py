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
are gated once per round; the crash skip and the reorder draw are paid
per node step only under a plan that holds crashes or a reorder rate.
The vertex order and per-node sorted neighbor lists are computed once at
construction; halted nodes are skipped via an incrementally maintained
active list rather than scanned; payload word counts are memoized
(:class:`repro.util.words.WordCounter`); and because senders are
collected in ascending vertex order, each inbox bucket is *already*
src-sorted, so a bucket is re-sorted only when a fault-delayed arrival
joins it.  An :class:`Api` reports halts and faults to a per-network
ledger that holds no reference back to the network, so a finished
network is freed by reference counting.  ``Api.broadcast`` queues one
``(None, payload)`` record instead of one entry per neighbor, and
``_collect_outboxes`` has two specialised branches: an outbox that is
exactly one broadcast record is charged once for all its ``deg`` slots
and delivers one shared inbox entry (such outboxes carry most of the
broadcast-driven protocols' messages; +30% clean-run message
throughput), and an outbox whose sends all go to distinct neighbors is
charged slot by slot, with no per-destination dict — charging every
outbox through the per-destination pass instead cost 17-23%.  Every
other outbox with a record is written out per neighbor first, so
broadcasts are charged, traced and delivered exactly like ``send``
loops.  The shard workers of
:mod:`repro.distributed.sharded` run the same round body
(``_run_setup`` / ``_run_round``).  Trace bytes and counts are pinned
across engine versions by ``tests/test_trace_golden.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.distributed.faults import (
    CRASH_DROP,
    DELAY,
    DELIVER,
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


class _Ledger:
    """The per-network state an :class:`Api` may write: halts, stats and
    the observability bundle, plus the network size.

    The network owns it and every Api holds it.  Nothing in it points
    back at the network, so a finished network is freed as soon as its
    last reference goes, not at the next full cyclic collection.
    """

    __slots__ = (
        "n", "halted", "active_dirty", "stats", "obs", "fault_log_limit"
    )

    def __init__(
        self,
        n: int,
        stats: NetworkStats,
        obs: Optional[Any],
        fault_log_limit: int,
    ) -> None:
        self.n = n
        #: halt bookkeeping: ``Network.all_halted`` is an O(1) count
        #: check, and the active list is rebuilt only after a halt.
        self.halted = 0
        self.active_dirty = True
        self.stats = stats
        self.obs = obs
        #: bound on the in-memory fault event log of ``stats``.
        self.fault_log_limit = fault_log_limit

    def record_fault(self, event: FaultEvent) -> None:
        """Fault accounting chokepoint: bounded in-memory log + trace."""
        self.stats.record_fault(event, self.fault_log_limit)
        if self.obs is not None:
            self.obs.on_fault(event)


class Api:
    """Per-node handle passed into the node program each round."""

    __slots__ = (
        "_ledger", "node_id", "_outbox", "_halted", "_nbrs", "_nbr_set"
    )

    def __init__(
        self,
        ledger: _Ledger,
        node_id: int,
        nbrs: List[int],
        nbr_set: Set[int],
    ) -> None:
        self._ledger = ledger
        self.node_id = node_id
        #: ``(dst, payload)`` sends; ``dst`` is None for a broadcast.
        self._outbox: List[Tuple[Optional[int], Any]] = []
        self._halted = False
        #: cached at construction: the sorted neighbor list (delivery
        #: determinism) and the adjacency set (O(1) send validation).
        self._nbrs = nbrs
        self._nbr_set = nbr_set

    @property
    def neighbors(self) -> List[int]:
        """This node's neighbor identifiers (sorted, deterministic)."""
        return self._nbrs

    @property
    def n(self) -> int:
        """The network size n (known to all processors in the model)."""
        return self._ledger.n

    def send(self, dst: int, payload: Any) -> None:
        """Queue ``payload`` for delivery to neighbor ``dst`` next round."""
        if dst not in self._nbr_set:
            raise ProtocolError(
                f"node {self.node_id} tried to message non-neighbor {dst}"
            )
        self._outbox.append((dst, payload))

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every neighbor.

        Queued as one ``(None, payload)`` record, not one entry per
        neighbor: the engine writes it out over the cached neighbor list
        when it collects the outbox, so it is charged, traced and
        delivered exactly like a ``send`` loop over :attr:`neighbors`.
        ``None`` is never a ``send`` destination (``send`` validates
        ``dst``), and a node without neighbors queues nothing.
        """
        if self._nbrs:
            self._outbox.append((None, payload))

    def halt(self) -> None:
        """Stop participating; the node receives no further rounds."""
        if not self._halted:
            self._halted = True
            ledger = self._ledger
            ledger.halted += 1
            ledger.active_dirty = True
            if ledger.obs is not None:
                ledger.obs.on_halt(ledger.stats.rounds, self.node_id)


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


def _expand_broadcasts(
    outbox: List[Tuple[Optional[int], Any]], nbrs: List[int]
) -> List[Tuple[int, Any]]:
    """``outbox`` as per-neighbor sends, in send order: each broadcast
    record ``(None, payload)`` is written out as one send per neighbor."""
    sends: List[Tuple[int, Any]] = []
    for dst, payload in outbox:
        if dst is None:
            sends += [(u, payload) for u in nbrs]
        else:
            sends.append((dst, payload))
    return sends


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
        #: what the Apis write (halts, faults, stats, obs); it holds no
        #: reference back, so no Api <-> Network cycle exists.
        self._ledger = _Ledger(graph.n, self.stats, obs, self.fault_log_limit)
        #: hot-path state, computed once: ascending vertex order and the
        #: per-node sorted neighbor lists (never re-sorted per round).
        self._order: List[int] = sorted(programs)
        self._sorted_nbrs: Dict[int, List[int]] = {
            v: sorted(graph.neighbors(v)) for v in self._order
        }
        self._apis = {
            v: Api(self._ledger, v, self._sorted_nbrs[v], graph.neighbors(v))
            for v in self._order
        }
        #: (vertex, api, program) triples in delivery order — the round
        #: loop and outbox collection iterate this instead of re-sorting
        #: the api dict every round.
        self._pairs: List[Tuple[int, Api, NodeProgram]] = [
            (v, self._apis[v], self.programs[v]) for v in self._order
        ]
        #: unhalted (api, program) pairs, rebuilt lazily (only after a
        #: halt) so halted nodes are skipped, not scanned, every round.
        self._active: List[Tuple[Api, NodeProgram]] = []
        #: memoized payload word counts (payload structure -> words).
        self._words = WordCounter()
        #: messages in flight: dst -> list of (src, payload).
        self._pending: Dict[int, List[Tuple[int, Any]]] = {}
        #: fault-delayed messages: delivery round -> [(dst, src, payload)].
        self._delayed: Dict[int, List[Tuple[int, int, Any]]] = {}
        self._setup_done = False

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
        ledger = self._ledger
        if ledger.active_dirty:
            self._active = [
                (api, program)
                for _, api, program in self._pairs
                if not api._halted
            ]
            ledger.active_dirty = False
        return self._active

    @property
    def all_halted(self) -> bool:
        return self._ledger.halted == len(self._apis)

    @property
    def in_flight(self) -> bool:
        """Whether any message (pending or fault-delayed) is in transit."""
        return bool(self._pending) or bool(self._delayed)

    def _collect_outboxes(self) -> None:
        """Merge this round's sends into next round's inboxes + account.

        Senders are iterated in ascending vertex order, so every inbox
        bucket comes out already sorted by source — the invariant that
        lets the clean delivery path skip per-node inbox sorting.

        An outbox that is exactly one broadcast record (the bulk of all
        traffic in the broadcast-driven protocols) is charged once: one
        word lookup, ``deg`` slots added to the counters together, one
        ``obs.on_send`` per neighbor in ascending order, and one
        ``(src, payload)`` entry shared by every neighbor's bucket
        (entries are immutable tuples).  Any other outbox holding a
        record is written out per neighbor first, in send order
        (:func:`_expand_broadcasts`), and takes the send passes: an
        outbox whose sends all go to distinct neighbors is charged slot
        by slot, any other one per destination.

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
                for dst, payload in _expand_broadcasts(
                    api._outbox, api._nbrs
                ):
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
            if len(outbox) == 1 and outbox[0][0] is None:
                # One broadcast record (a record implies deg >= 1).
                payload = outbox[0][1]
                try:
                    words = words_cache[payload]
                except (KeyError, TypeError):
                    words = words_of(payload)
                nbrs = api._nbrs
                deg = len(nbrs)
                messages += deg
                total_words += deg * words
                if words > max_words:
                    max_words = words
                if cap is not None and words > cap:
                    violations += deg
                if obs is not None:
                    payloads = [payload]
                    for dst in nbrs:
                        obs.on_send(send_round, v, dst, words, payloads)
                entry = (v, payload)
                for dst in nbrs:
                    bucket = next_pending.get(dst)
                    if bucket is None:
                        next_pending[dst] = [entry]
                    else:
                        bucket.append(entry)
                continue
            dsts = {d for d, _ in outbox}
            sends: List[Tuple[int, Any]]
            if None in dsts:
                sends = _expand_broadcasts(outbox, api._nbrs)
                distinct = len({dst for dst, _ in sends})
            else:
                sends = outbox  # type: ignore[assignment]  # no None dst
                distinct = len(dsts)
            if distinct == len(sends):
                # No two sends share a destination (the common case for
                # send-driven protocols): each send is its own slot — no
                # per-destination dict-of-lists to build and unwind.
                for dst, payload in sends:
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
            for dst, payload in sends:
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
        """Consult the fault plan for every delivery due this round.

        Buckets come in src-sorted and keep that order through drops,
        duplicates and outgoing delays; a delivered entry is the
        pending ``(src, payload)`` tuple itself.  Only a fault-delayed
        arrival appended to a bucket can break the order, so exactly
        those buckets are re-sorted, stably by source.  A plan without
        crash specs skips every crash query.
        """
        stats = self.stats
        record = self._ledger.record_fault
        crashes = plan.has_crashes
        if crashes:
            for event in plan.transitions(round_no):
                record(event)
        decide = plan.decide
        delayed = self._delayed
        delivered: Dict[int, List[Tuple[int, Any]]] = {}
        for dst in sorted(pending):
            msgs = pending[dst]
            if crashes and plan.is_crashed(dst, round_no):
                stats.dropped += len(msgs)
                record(
                    FaultEvent(CRASH_DROP, round_no, dst=dst,
                               info=len(msgs))
                )
                continue
            bucket: List[Tuple[int, Any]] = []
            for slot, entry in enumerate(msgs):
                src = entry[0]
                kind, info = decide(round_no, src, dst, slot)
                if kind == DELIVER:
                    bucket.append(entry)
                elif kind == DROP:
                    stats.dropped += 1
                    record(FaultEvent(DROP, round_no, src, dst))
                elif kind == DUPLICATE:
                    stats.duplicated += 1
                    record(FaultEvent(DUPLICATE, round_no, src, dst))
                    bucket.append(entry)
                    bucket.append(entry)
                else:
                    stats.delayed += 1
                    record(FaultEvent(DELAY, round_no, src, dst, info=info))
                    delayed.setdefault(round_no + info, []).append(
                        (dst, src, entry[1])
                    )
            if bucket:
                delivered[dst] = bucket
        # Fault-delayed messages due now join the inboxes directly (their
        # fate was already decided when they were first due).
        unsorted: Set[int] = set()
        for dst, src, payload in delayed.pop(round_no, ()):
            if crashes and plan.is_crashed(dst, round_no):
                stats.dropped += 1
                record(FaultEvent(CRASH_DROP, round_no, src, dst))
                continue
            arrived = delivered.get(dst)
            if arrived is None:
                delivered[dst] = [(src, payload)]
            else:
                arrived.append((src, payload))
                unsorted.add(dst)
        for dst in sorted(unsorted):
            delivered[dst].sort(key=itemgetter(0))
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
        Inbox buckets reach the nodes src-sorted (``_collect_outboxes``
        builds them so, and ``_apply_faults`` re-sorts the few a delayed
        arrival disorders), so they are handed over as they are.  The
        crash skip and the reorder draw are paid only under a plan that
        holds crashes or a reorder rate.
        """
        plan = self.fault_plan
        pending, self._pending = self._pending, {}
        crashed: Optional[Callable[[int, int], bool]] = None
        reorder: Optional[Callable[..., Optional[List[int]]]] = None
        if plan is not None:
            pending = self._apply_faults(plan, round_no, pending)
            if plan.has_crashes:
                crashed = plan.is_crashed
                # Amnesia recoveries fire before the round's on_round:
                # the node wipes volatile state (and may solicit a
                # repair handshake) before seeing any new messages.
                for v in plan.amnesia_recoveries(round_no):
                    api_v = self._apis[v]
                    if not api_v._halted:
                        self.programs[v].on_amnesia_recover(api_v, round_no)
            if plan.has_reorders:
                reorder = plan.reorder_permutation
        get_inbox = pending.get
        for api, program in self._active_pairs():
            v = api.node_id
            inbox = get_inbox(v)
            if crashed is not None and crashed(v, round_no):
                continue
            if reorder is not None and inbox is not None:
                perm = reorder(round_no, v, len(inbox))
                if perm is not None:
                    inbox = [inbox[i] for i in perm]
                    self.stats.reordered += 1
                    self._ledger.record_fault(
                        FaultEvent(REORDER, round_no, dst=v, info=len(inbox))
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
        ledger = self._ledger
        total = len(self._apis)
        for _ in range(max_rounds):
            if ledger.halted == total:
                break
            stats.rounds += 1
            if obs is not None:
                obs.on_round(stats.rounds)
            self._run_round(stats.rounds)
            if stop_when_idle and not self.in_flight:
                break
        return stats
