"""Sharded round engine: the simulator across worker processes.

The single-process engine (:class:`~repro.distributed.simulator.Network`)
iterates every node in one Python interpreter, which caps realistic
workloads near n = 10^3.  :class:`ShardedNetwork` partitions
``graph.vertices()`` into contiguous vertex-range shards, runs each
shard's :class:`~repro.distributed.simulator.NodeProgram` set in a
persistent worker process, and at each round barrier ships only the
cross-shard ``(src, dst, payload)`` triples between workers — intra-shard
messages never leave their worker.

The engine is an *equivalence-preserving* optimization: for every
protocol, every shard count must produce byte-identical outputs,
identical :class:`~repro.distributed.simulator.NetworkStats` and — with
a tracer attached — byte-identical ``repro trace`` JSONL versus the
single-process engine (pinned by ``tests/test_sharded_equivalence.py``).
Three structural facts make that possible:

* **Contiguous ranges preserve inbox order.**  A clean round's inbox
  buckets are src-sorted because senders are iterated in ascending
  vertex order.  With shards covering contiguous ascending vertex
  ranges, concatenating one destination's buckets in shard order is
  *also* globally src-ascending, so a worker rebuilds each inbox as
  ``remote(lower shards) + local + remote(higher shards)`` without
  sorting.
* **Accounting is per-sender.**  Every (edge, round, direction) slot is
  charged where it is collected — by the sending shard — so summing the
  per-shard counters (and maxing the widths) reproduces the global
  numbers exactly.  Each worker runs ``Network``'s own round body
  (``_run_setup`` / ``_run_round``, hence ``_collect_outboxes``), so
  the charged words are computed by the same code.
* **Events merge in shard order.**  Within a round, the single-process
  event order is ``round``, halts (ascending node), sends (ascending
  src).  Workers log their halt/send events locally (payloads are
  fingerprinted worker-side — the CRC the trace stores — so payload
  objects never cross back); the coordinator replays halts then sends
  in shard order, reproducing the global order.

Workers are **persistent** (spawn context, long-lived), pooled per
shard count and reused across :class:`ShardedNetwork` instances — a
multi-phase protocol like the Fibonacci spanner builds dozens of
networks per run, and respawning interpreters per phase would dominate.
A ``load`` command swaps the worker-resident network state; a network
superseded by a newer ``load`` refuses further use loudly.

Serialization is paid once per datum.  ``load`` pickles the host and
the per-vertex program factory once and hands every worker the same
bytes; each worker builds its own range's programs from the factory, so
the coordinator never builds, holds or pickles a node program.  At each
barrier a worker splits its boundary sends by destination shard and
pickles each part; the coordinator forwards the parts unopened, in
shard order, and keeps only the counters and a per-shard in-flight flag.

A worker runs without the cyclic garbage collector: one
``gc.collect()`` at start-up clears the spawn bootstrap's garbage, then
automatic collection stays off for the worker's life.  The worker is
the engine's own process and builds no reference cycles (pinned by
``tests/test_sharded_equivalence.py``), so reference counting frees
each replaced engine on ``load``, while every full collection would
re-walk the resident host and node programs.  The coordinator is the
caller's process: a registry run (:meth:`ProtocolSpec.run
<repro.core.protocols.ProtocolSpec.run>`) pauses its collector for the
run, and a network built directly keeps the caller's settings.

Restrictions: the sharded engine covers the clean configuration the
benchmarks measure — no fault plan, no reliable-delivery adapter, no
``strict`` width enforcement (``build_network`` raises ``ValueError``
for those combinations).  Hosts are treated as immutable while sharded
networks over them exist (every protocol here satisfies this).

See ``docs/performance.md`` ("Sharded round engine") for the cost
model: boundary cut sizes per zoo family, the per-round barrier cost,
and when one shard still wins.
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing
import pickle
import traceback
from bisect import bisect_right
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.distributed.simulator import (
    Network,
    NetworkStats,
    NodeProgram,
    ProtocolError,
)
from repro.graphs.graph import Graph
from repro.obs.trace import payload_fingerprint

__all__ = [
    "ShardedNetwork",
    "boundary_edges",
    "shard_ranges",
    "shutdown_workers",
]

#: one destination's inbox bucket: ``(src, payload)`` entries, src-ascending.
_Bucket = List[Tuple[int, Any]]

#: one worker's boundary sends at a barrier, per destination shard: the
#: pickled ``[(dst, bucket), ...]`` list, or None when it sends none there.
_Parts = List[Optional[bytes]]

#: cumulative per-worker accounting, reported at every barrier:
#: ``(messages, total_words, max_message_words, violations,
#: halted_count, has_pending)``; ``has_pending`` says whether the
#: worker's last round sent anything, local or boundary.
_Report = Tuple[int, int, int, int, int, bool]

#: worker-side event record: ``("halt", r, node)`` or
#: ``("send", r, src, dst, words, fingerprint)``.
_Event = Tuple[Any, ...]

_RoundResult = Tuple[_Parts, _Report, List[_Event]]


def shard_ranges(order: Sequence[int], shards: int) -> List[Tuple[int, int]]:
    """Split a sorted vertex sequence into ``shards`` contiguous ranges.

    Returns ``(start_index, end_index)`` slice bounds per shard, sizes
    differing by at most one.  ``shards`` is clamped to ``len(order)``
    so no shard is ever empty (and to 1 from below).
    """
    n = len(order)
    shards = max(1, min(shards, max(1, n)))
    bounds = [(k * n) // shards for k in range(shards + 1)]
    return [(bounds[k], bounds[k + 1]) for k in range(shards)]


def boundary_edges(graph: Graph, shards: int) -> int:
    """Count the edges crossing shard boundaries at a given shard count.

    The sharding cost model's first-order term: every cross-shard edge
    can carry up to two boundary messages per round (one per
    direction), so this cut size bounds the per-round coordinator
    traffic (see ``docs/performance.md``).
    """
    order = sorted(graph.vertices())
    ranges = shard_ranges(order, shards)
    starts = [order[lo] for lo, _ in ranges]
    cut = 0
    for u, v in graph.edges():
        if bisect_right(starts, u) != bisect_right(starts, v):
            cut += 1
    return cut


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _EventLog:
    """Worker-side stand-in for :class:`repro.obs.trace.Obs`.

    The shard engine's inherited send path and :meth:`Api.halt` call
    ``obs.on_send`` / ``obs.on_halt``; this shim records them (payloads
    reduced to the trace's CRC-32 fingerprint immediately, so payload
    objects never travel back over the pipe) for the coordinator to
    merge into the real observer in shard order.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[_Event] = []

    def on_send(
        self, round_no: int, src: int, dst: int, words: int, payloads: Any
    ) -> None:
        self.events.append(
            ("send", round_no, src, dst, words, payload_fingerprint(payloads))
        )

    def on_halt(self, round_no: int, node: int) -> None:
        self.events.append(("halt", round_no, node))

    def drain(self) -> List[_Event]:
        events, self.events = self.events, []
        return events


class _ShardEngine(Network):
    """One shard's slice of the network, living inside a worker process.

    A :class:`Network` whose programs cover only a contiguous vertex
    range of the (full, shared) graph, built here from the pickled
    per-vertex factory.  It skips ``Network.__init__`` — whose coverage
    check demands a program for *every* vertex — but builds its state
    with the same ``_init_state``, and the worker drives it through the
    same ``_run_setup`` / ``_run_round`` that ``Network.run`` calls: the
    sharded engine delivers, steps and charges words with the
    single-process engine's code.  Only the round loop lives
    coordinator-side, where the barrier is.
    """

    def __init__(
        self,
        graph: Graph,
        factory: bytes,
        vertices: Sequence[int],
        cap: Optional[int],
        obs: Optional[_EventLog],
    ) -> None:
        make_program = pickle.loads(factory)
        programs = {v: make_program(v) for v in vertices}
        self._init_state(graph, programs, cap, obs=obs)


def _deliver_boundary(
    engine: _ShardEngine, shard: int, inbound: _Parts
) -> None:
    """Merge this round's boundary arrivals into the local inboxes.

    ``inbound`` holds one pickled part per source shard, in shard
    order (``None`` where a shard sent nothing here, and at this
    shard's own slot).  Shards are contiguous ascending vertex ranges
    and each part's buckets are src-sorted, so each inbox becomes
    ``remote(lower shards) + local + remote(higher shards)`` — exactly
    the src-sorted bucket the single-process engine holds — without
    sorting.
    """
    pending = engine._pending
    pre: Dict[int, _Bucket] = {}
    for source, part in enumerate(inbound):
        if part is None:
            continue
        side = pre if source < shard else pending
        for dst, bucket in pickle.loads(part):
            have = side.get(dst)
            if have is None:
                side[dst] = bucket
            else:
                have.extend(bucket)
    for dst, bucket in pre.items():
        local = pending.get(dst)
        pending[dst] = bucket if local is None else bucket + local


def _split_and_report(
    engine: _ShardEngine, lo: int, hi: int, starts: List[int]
) -> _RoundResult:
    """Separate this round's collected sends into local and boundary.

    ``engine._pending`` (as left by the inherited collect) holds every
    send keyed by destination; destinations inside ``[lo, hi]`` — the
    shard's contiguous vertex range, so the interval test *is* the
    ownership test — stay local.  The other buckets go, whole and
    src-sorted, to the part of the shard that owns their destination
    (``starts`` holds each shard's first vertex), and each part is
    pickled here, once: the coordinator relays the bytes unopened.
    """
    pending = engine._pending
    local: Dict[int, _Bucket] = {}
    remote: List[List[Tuple[int, _Bucket]]] = [[] for _ in starts]
    for dst, bucket in pending.items():
        if lo <= dst <= hi:
            local[dst] = bucket
        else:
            remote[bisect_right(starts, dst) - 1].append((dst, bucket))
    parts: _Parts = [
        pickle.dumps(part, pickle.HIGHEST_PROTOCOL) if part else None
        for part in remote
    ]
    engine._pending = local
    stats = engine.stats
    report: _Report = (
        stats.messages,
        stats.total_words,
        stats.max_message_words,
        stats.violations,
        engine._ledger.halted,
        bool(pending),
    )
    log = engine.obs
    events = log.drain() if isinstance(log, _EventLog) else []
    return parts, report, events


def _worker_main(conn: Any) -> None:
    """The long-lived worker loop: one command in, one reply out
    (``exit`` gets none).

    Replies are ``("ok", value)`` or ``("err", exc_type, message,
    traceback_text)``; the coordinator re-raises.  ``load`` replaces the
    resident engine; it carries the host pickled once by the
    coordinator, or ``None`` to reuse the previously shipped graph (the
    coordinator only elides it for the identical, unmutated host
    object), and the pickled program factory, from which the worker
    builds the programs of its own contiguous range of the sorted
    vertices (:func:`shard_ranges`).

    The worker runs with automatic cyclic collection off for its whole
    life: one ``gc.collect()`` first clears what the spawn bootstrap
    left, and after that the engine builds no reference cycles, so
    reference counting alone frees each replaced engine and host.
    """
    gc.collect()
    gc.disable()
    graph: Optional[Graph] = None
    order: List[int] = []
    engine: Optional[_ShardEngine] = None
    shard = 0
    starts: List[int] = []
    lo = hi = -1
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        cmd = msg[0]
        try:
            out: Any = None
            if cmd == "load":
                _, shard, shards, host, factory, cap, record = msg
                # Freed here, by reference counting, before their
                # successors are built: two networks (or two shipped
                # hosts) never overlap in memory.
                engine = None
                if host is not None:
                    graph = None
                    graph = pickle.loads(host)
                    order = sorted(graph.vertices())
                assert graph is not None, "load before any graph shipped"
                ranges = shard_ranges(order, shards)
                starts = [order[begin] for begin, end in ranges if end > begin]
                begin, end = ranges[shard]
                log = _EventLog() if record else None
                engine = _ShardEngine(
                    graph, factory, order[begin:end], cap, log
                )
                if engine._order:
                    lo, hi = engine._order[0], engine._order[-1]
                else:
                    lo = hi = -1
            elif cmd == "setup":
                assert engine is not None
                engine._run_setup()
                out = _split_and_report(engine, lo, hi, starts)
            elif cmd == "round":
                assert engine is not None
                _, round_no, inbound = msg
                # Halt events and collected sends are stamped with it.
                engine.stats.rounds = round_no
                _deliver_boundary(engine, shard, inbound)
                engine._run_round(round_no)
                out = _split_and_report(engine, lo, hi, starts)
            elif cmd == "apply":
                assert engine is not None
                _, fn, args, kwargs = msg
                out = fn(engine.programs, *args, **kwargs)
            elif cmd == "exit":
                return
            else:  # pragma: no cover - coordinator never sends others
                raise RuntimeError(f"unknown worker command {cmd!r}")
            conn.send(("ok", out))
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            report = (
                "err", type(exc).__name__, str(exc), traceback.format_exc()
            )
            try:
                conn.send(report)
            except OSError:  # the coordinator is gone: nobody to tell
                return


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class _WorkerPool:
    """A persistent set of ``shards`` spawn-context worker processes.

    Pooled per shard count and shared across :class:`ShardedNetwork`
    instances (multi-phase protocols build many networks per run; the
    interpreters persist, only ``load`` traffic repeats).  Workers are
    daemonic and additionally shut down via ``atexit``.  ``load`` bumps
    a generation counter; networks hold the generation they loaded and
    any command from a superseded generation raises — using a stale
    network cannot silently touch another network's programs.
    """

    _pools: Dict[int, "_WorkerPool"] = {}

    def __init__(self, shards: int) -> None:
        self.shards = shards
        self.generation = 0
        self._last_graph: Optional[Graph] = None
        self._last_shape: Tuple[int, int] = (-1, -1)
        context = multiprocessing.get_context("spawn")
        self._procs: List[Any] = []
        self._conns: List[Any] = []
        for _ in range(shards):
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    @classmethod
    def get(cls, shards: int) -> "_WorkerPool":
        pool = cls._pools.get(shards)
        if pool is None or not pool.alive():
            if pool is not None:
                pool.shutdown()
            pool = cls(shards)
            cls._pools[shards] = pool
        return pool

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self._procs)

    def load(
        self,
        graph: Graph,
        make_program: Callable[[int], NodeProgram],
        cap: Optional[int],
        record: bool,
    ) -> int:
        """Install a new network across the workers; returns its generation.

        The host and the program factory are each pickled once, before
        any worker is sent anything, and every worker gets the same
        bytes: an unpicklable factory raises ``TypeError`` naming it and
        leaves the resident network in place.  The host is elided when
        the *identical object* (identity pinned by the strong reference
        held here) with unchanged ``(n, m)`` was already shipped — the
        repeated-phases case.  Protocol hosts are immutable during a
        run, which is what makes the identity check sufficient.  Each
        worker learns its shard index and the shard count, from which
        it derives its own vertex range and every shard's first vertex.
        """
        try:
            factory = pickle.dumps(make_program, pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise TypeError(
                f"program factory {make_program!r} cannot be shipped to "
                f"the shard workers: {exc}"
            ) from exc
        shape = (graph.n, graph.m)
        resident = (
            graph is self._last_graph and shape == self._last_shape
        )
        host = (
            None if resident
            else pickle.dumps(graph, pickle.HIGHEST_PROTOCOL)
        )
        self.generation += 1
        self._exchange(
            [
                ("load", shard, self.shards, host, factory, cap, record)
                for shard in range(self.shards)
            ]
        )
        self._last_graph = graph
        self._last_shape = shape
        return self.generation

    def command_each(
        self, generation: int, messages: List[Tuple[Any, ...]]
    ) -> List[Any]:
        """Send one message per worker (in shard order) and gather replies."""
        if generation != self.generation:
            raise RuntimeError(
                "stale ShardedNetwork: a newer network has reloaded the "
                f"{self.shards}-shard worker pool"
            )
        return self._exchange(messages)

    def command_all(
        self, generation: int, message: Tuple[Any, ...]
    ) -> List[Any]:
        return self.command_each(generation, [message] * self.shards)

    def _exchange(self, messages: List[Tuple[Any, ...]]) -> List[Any]:
        """Send one message per worker, then gather one reply from each.

        Every message is pickled before the first is sent, so one that
        cannot be pickled raises with no worker touched.  Any failure
        after that leaves the barrier out of step (a worker that got its
        message owes a reply nobody reads), so it retires the whole pool
        and re-raises; a worker's own error, or a dead worker's pipe
        breaking on the send or the reply, raises naming the shard and,
        for a dead one, its exit code.
        """
        frames = [
            pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            for message in messages
        ]
        shard = 0
        replies: List[Any] = []
        try:
            for shard, (conn, frame) in enumerate(zip(self._conns, frames)):
                conn.send_bytes(frame)
            for shard, conn in enumerate(self._conns):
                replies.append(conn.recv())
        except (EOFError, OSError):
            self._retire()
            raise RuntimeError(
                f"shard {shard} worker died "
                f"(exitcode {self._procs[shard].exitcode})"
            ) from None
        except BaseException:
            self._retire()
            raise
        for shard, reply in enumerate(replies):
            if reply[0] == "err":
                self._retire()
                _, exc_type, message, trace_text = reply
                if exc_type == "ProtocolError":
                    raise ProtocolError(message)
                raise RuntimeError(
                    f"shard {shard} worker failed with {exc_type}: "
                    f"{message}\n{trace_text}"
                )
        return [reply[1] for reply in replies]

    def _retire(self) -> None:
        self.shutdown()
        self._pools.pop(self.shards, None)

    def shutdown(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=2)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()


def shutdown_workers() -> None:
    """Terminate every pooled shard worker (idempotent; also at exit)."""
    for pool in list(_WorkerPool._pools.values()):
        pool.shutdown()
    _WorkerPool._pools.clear()


atexit.register(shutdown_workers)


class ShardedNetwork:
    """Drive one protocol network across a pool of shard workers.

    Mirrors the :class:`~repro.distributed.simulator.Network` surface
    the protocol runners use — ``run(max_rounds, stop_when_idle)``,
    ``stats``, ``in_flight``, ``graph``, ``apply_programs`` — with the
    node programs living in the worker processes.  ``make_program`` is
    the per-vertex factory of ``build_network``'s contract; each worker
    unpickles it and builds its own range's programs, so none exists
    coordinator-side.  There is deliberately no ``programs`` attribute:
    all program access goes through :meth:`apply_programs`.

    The run loop replicates ``Network.run`` barrier-for-barrier:
    all-halted check at the top, round counter bump, the round body
    (deliver + execute + collect), idle check after the collect — with
    the round body run by the workers and only pickled boundary parts,
    cumulative counters and (under a tracer) event logs crossing the
    pipes.
    """

    def __init__(
        self,
        graph: Graph,
        make_program: Callable[[int], NodeProgram],
        shards: int,
        max_message_words: Optional[int] = None,
        obs: Optional[Any] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.graph = graph
        self.stats = NetworkStats(cap=max_message_words)
        self.obs = obs
        #: mirrored so ``obs.on_network`` records the same ``net`` event
        #: a clean single-process network would.
        self.reliable_layer = False
        self.fault_log_limit = 256
        #: clamped to n exactly as the workers' ``shard_ranges`` split.
        self.shards = len(shard_ranges(range(graph.n), shards))
        self._pool = _WorkerPool.get(self.shards)
        self._generation = self._pool.load(
            graph, make_program, max_message_words, obs is not None
        )
        self._reports: List[_Report] = [
            (0, 0, 0, 0, 0, False)
        ] * self.shards
        #: the last barrier's pickled boundary parts, indexed
        #: ``[source shard][destination shard]``.
        self._parts: List[_Parts] = [
            [None] * self.shards for _ in range(self.shards)
        ]
        self._setup_done = False
        if obs is not None:
            obs.on_network(self)

    # ------------------------------------------------------------------
    @property
    def all_halted(self) -> bool:
        return self._halted_total() == self.graph.n

    @property
    def in_flight(self) -> bool:
        """Whether any message (local to a shard or boundary) is in transit."""
        return any(report[5] for report in self._reports)

    def _halted_total(self) -> int:
        return sum(report[4] for report in self._reports)

    def apply_programs(
        self, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> List[Any]:
        """Run ``fn(programs, *args, **kwargs)`` in every shard worker.

        The sharded implementation of the engine-agnostic program hook
        (see :meth:`Network.apply_programs`): returns one result per
        shard, in shard (= ascending vertex range) order.  ``fn``, its
        arguments and its result must be picklable.
        """
        return self._pool.command_all(
            self._generation, ("apply", fn, args, kwargs)
        )

    # ------------------------------------------------------------------
    def _absorb(self, outs: List[_RoundResult]) -> None:
        """Merge one barrier's worker results into coordinator state.

        Boundary parts are kept, unopened, for the next round; counters
        are summed/maxed from the cumulative per-worker reports; halt
        events replay before send events, each in shard order — the
        single-process event order.
        """
        logs: List[List[_Event]] = []
        for k, (parts, report, events) in enumerate(outs):
            self._parts[k] = parts
            self._reports[k] = report
            if events:
                logs.append(events)
        reports = self._reports
        stats = self.stats
        stats.messages = sum(r[0] for r in reports)
        stats.total_words = sum(r[1] for r in reports)
        stats.max_message_words = max(r[2] for r in reports)
        stats.violations = sum(r[3] for r in reports)
        obs = self.obs
        if obs is not None and logs:
            for events in logs:
                for event in events:
                    if event[0] == "halt":
                        obs.on_halt(event[1], event[2])
            for events in logs:
                for event in events:
                    if event[0] == "send":
                        obs.on_send_fingerprint(
                            event[1], event[2], event[3], event[4], event[5]
                        )

    def run(
        self, max_rounds: int, stop_when_idle: bool = False
    ) -> NetworkStats:
        """Execute up to ``max_rounds`` rounds (early-stop rules as
        :meth:`Network.run`); callable repeatedly, state persists."""
        pool = self._pool
        if not self._setup_done:
            self._absorb(pool.command_all(self._generation, ("setup",)))
            self._setup_done = True
        stats = self.stats
        total = self.graph.n
        obs = self.obs
        for _ in range(max_rounds):
            if self._halted_total() == total:
                break
            stats.rounds += 1
            round_no = stats.rounds
            if obs is not None:
                obs.on_round(round_no)
            parts = self._parts
            self._absorb(
                pool.command_each(
                    self._generation,
                    [
                        ("round", round_no, [out[k] for out in parts])
                        for k in range(self.shards)
                    ],
                )
            )
            if stop_when_idle and not self.in_flight:
                break
        return stats
