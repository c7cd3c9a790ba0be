"""Reliable delivery over a faulty network: acks, retransmission, lockstep.

The protocols in this package are written against the paper's perfectly
reliable synchronous model.  :class:`ReliableProgram` wraps any
:class:`~repro.distributed.simulator.NodeProgram` so that the *inner*
program still sees exactly that model while the *real* network drops,
duplicates, delays and reorders messages underneath it:

* each inner ("virtual") round ``t`` is shipped as one sequence-numbered
  **frame** ``("F", t, payloads, halted)`` per neighbor — empty frames
  included, because in a synchronous algorithm silence is information;
* every frame is **acked** (``("A", t)``) and **retransmitted** with
  backoff until acked; a frame still unacked after ``max_tries``
  retransmissions marks the link **dead** (how crash-stop neighbors are
  discovered — the inner program simply sees silence from them, which is
  the convention the protocols already use for dead/halted neighbors);
* receives are **idempotent**: a duplicate frame is re-acked and
  discarded, so duplication and ack loss are harmless;
* a node advances to virtual round ``t+1`` only once it holds frame
  ``t`` from every live neighbor — the classic alpha-synchronizer.
  Adjacent nodes can skew by at most one virtual round, so in the
  fault-free case lockstep costs **no extra rounds**, only the frame/ack
  word overhead (measured by ``benchmarks/bench_fault_overhead.py``);
* a node blocked on a silent-but-acked neighbor re-sends its latest
  frame as a **probe** (re-acked if the peer is alive, link-dead
  otherwise), which makes the layer deadlock-free: any wrapper that is
  blocked always has an active retransmission toward whatever blocks it.

:class:`ReliableNetwork` drives a wrapped network by **virtual** rounds
so phase-structured runners (the skeleton's exchange/converge/decide
phases) work unchanged: ``run(max_rounds)`` executes that many inner
rounds at every node, ``in_flight`` reports whether inner payloads are
still in transit, and ``stats`` is the real network's accounting
(retransmissions and dead links included).  A run that stops making
real progress raises :class:`ProtocolError` rather than looping —
chaos tests rely on that loud failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # deferred at runtime: sharded pulls in multiprocessing
    from repro.distributed.sharded import ShardedNetwork

from repro.distributed.faults import LINK_DEAD, FaultEvent, FaultPlan
from repro.distributed.simulator import (
    Api,
    Network,
    NetworkStats,
    NodeProgram,
    ProtocolError,
)
from repro.graphs.graph import Graph

_FRAME = "F"
_ACK = "A"


@dataclass
class ReliableConfig:
    """Tuning knobs for the ack/retransmission machinery."""

    #: real rounds before the first retransmission of an unacked frame.
    rto: int = 2
    #: multiplicative backoff between successive retransmissions.
    backoff: float = 1.25
    #: retransmissions before a link is declared dead.  A try fails if
    #: the frame *or* its ack is lost (probability 2p - p^2 per try), so
    #: a false declaration needs ``max_tries + 1`` consecutive failures:
    #: at p = 0.1 that is 0.19^15 ~ 2e-11 per frame at the default —
    #: negligible even across the skeleton's tens of thousands of frames.
    max_tries: int = 14
    #: blocked real rounds before probing a silent neighbor.
    probe_after: int = 6
    #: safety valve: a ``run()`` that needs more real rounds than
    #: ``stall_factor * (virtual budget) + stall_slack`` raises
    #: :class:`ProtocolError` instead of spinning forever.
    stall_factor: int = 60
    stall_slack: int = 400

    def __post_init__(self) -> None:
        # A bad chaos config must fail at construction, not by looping
        # forever (stall_factor <= 0 disables the stall valve's slope),
        # retransmitting every round (rto < 1), shrinking the retry gap
        # (backoff < 1) or declaring links dead spuriously (max_tries
        # < 1 gives up after the very first unacked frame).
        if self.rto < 1:
            raise ValueError(f"rto must be >= 1, got {self.rto}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1.0, got {self.backoff}")
        if self.max_tries < 1:
            raise ValueError(f"max_tries must be >= 1, got {self.max_tries}")
        if self.stall_factor <= 0:
            raise ValueError(
                f"stall_factor must be > 0, got {self.stall_factor}"
            )

    def death_rounds(self) -> int:
        """Worst-case real rounds to declare a dead link."""
        return sum(
            max(1, int(self.rto * self.backoff**i))
            for i in range(self.max_tries + 1)
        )


class _VirtualApi:
    """The :class:`Api` look-alike handed to the wrapped inner program."""

    __slots__ = ("_real", "_outbox", "_halted", "node_id")

    def __init__(self, real_api: Api) -> None:
        self._real = real_api
        self.node_id = real_api.node_id
        self._outbox: List[Tuple[int, Any]] = []
        self._halted = False

    @property
    def neighbors(self):
        return self._real.neighbors

    @property
    def n(self) -> int:
        return self._real.n

    def send(self, dst: int, payload: Any) -> None:
        if dst not in self._real._nbr_set:
            raise ProtocolError(
                f"node {self.node_id} tried to message non-neighbor {dst}"
            )
        self._outbox.append((dst, payload))

    def broadcast(self, payload: Any) -> None:
        # Written out per neighbor here, unlike Api.broadcast's single
        # record: ReliableProgram frames, sequences and acknowledges
        # each link separately, so every neighbor needs its own entry.
        # Recipients come from the validated neighbor list, so no
        # per-edge membership re-check.
        outbox = self._outbox
        for u in self._real.neighbors:
            outbox.append((u, payload))

    def halt(self) -> None:
        self._halted = True

    def drain(self) -> List[Tuple[int, Any]]:
        out, self._outbox = self._outbox, []
        return out


class ReliableProgram(NodeProgram):
    """Wrap a :class:`NodeProgram` with sequence-numbered reliable delivery.

    Attribute lookups that the wrapper does not define fall through to
    the inner program, so runners that poke protocol state directly
    (``program.begin_phase(...)``, ``program.alive``, ``program.edges``)
    work on wrapped programs unchanged.
    """

    def __init__(
        self, inner: NodeProgram, config: Optional[ReliableConfig] = None
    ) -> None:
        self.inner = inner
        self.cfg = config or ReliableConfig()
        #: last executed inner round (setup counts as round 0).
        self.vround = 0
        #: inner rounds may execute up to this bound (set by the driver).
        self.target = 0
        self.inner_halted = False
        self.dead: Set[int] = set()
        #: src -> last frame round announced with the halted flag.
        self.halted_after: Dict[int, int] = {}
        #: src -> {frame round: payload tuple} not yet consumed.
        self.frames_in: Dict[int, Dict[int, Tuple[Any, ...]]] = {}
        #: src -> frame rounds ever received (idempotent receive).
        self.seen: Dict[int, Set[int]] = {}
        #: (dst, frame round) -> [message, next retry round, tries].
        self.unacked: Dict[Tuple[int, int], List[Any]] = {}
        #: dst -> (frame round, message) most recently built (for probes).
        self.last_frame: Dict[int, Tuple[int, Any]] = {}
        #: src -> real round at which we started waiting on them.
        self.blocked_since: Dict[int, int] = {}
        self._api: Optional[Api] = None
        self._shim: Optional[_VirtualApi] = None
        self._nbrs: List[int] = []
        self._real_round = 0

    def __getattr__(self, name: str) -> Any:
        # Only reached for names not set on the wrapper: delegate to the
        # inner program so phase-driven runners work transparently.
        return getattr(object.__getattribute__(self, "inner"), name)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def setup(self, api: Api) -> None:
        self._api = api
        self._shim = _VirtualApi(api)
        self._nbrs = list(api.neighbors)
        for u in self._nbrs:
            self.frames_in[u] = {}
            self.seen[u] = set()
        self.inner.setup(self._shim)
        self.inner_halted = self._shim._halted
        self._emit_frame(0)

    def on_round(
        self, api: Api, round_index: int, inbox: List[Tuple[int, Any]]
    ) -> None:
        self._real_round = round_index
        for src, msg in inbox:
            tag = msg[0]
            if tag == _ACK:
                self.unacked.pop((src, msg[1]), None)
            elif tag == _FRAME:
                self._receive_frame(api, src, msg)
        self._advance()
        self._retransmit(api)
        self._probe(api)
        self._maybe_halt(api)

    def on_amnesia_recover(self, api: Api, round_index: int) -> None:
        """Forward the amnesia signal to the wrapped inner program.

        Only the *inner* program's volatile state is lost; the wrapper's
        transport bookkeeping (sequence numbers, unacked frames) models
        the link layer's stable storage — it is exactly what lets the
        recovering node be carried back into lockstep by its neighbors'
        retransmissions, i.e. the repair handshake's reliable substrate.
        """
        self._real_round = round_index
        if self._shim is not None:
            self.inner.on_amnesia_recover(self._shim, round_index)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _receive_frame(self, api: Api, src: int, msg: Any) -> None:
        if src in self.dead:
            # Withhold the ack: the peer's own retry counter will declare
            # the link dead symmetrically.
            return
        t, payloads, halted = msg[1], msg[2], msg[3]
        api.send(src, (_ACK, t))
        if t in self.seen[src]:
            return  # duplicate (or probe): re-acked above, not redelivered
        self.seen[src].add(t)
        self.frames_in[src][t] = payloads
        if halted:
            self.halted_after[src] = t
        self.blocked_since.pop(src, None)

    # ------------------------------------------------------------------
    # Virtual-round execution
    # ------------------------------------------------------------------
    def _needed_from(self, u: int, t: int) -> bool:
        """Whether executing inner round ``t`` requires frame t-1 from u."""
        if u in self.dead:
            return False
        if u in self.halted_after and self.halted_after[u] < t - 1:
            return False
        return True

    def _ready(self, t: int) -> bool:
        ready = True
        for u in self._nbrs:
            if not self._needed_from(u, t):
                continue
            if (t - 1) in self.frames_in[u]:
                continue
            self.blocked_since.setdefault(u, self._real_round)
            ready = False
        return ready

    def _advance(self) -> None:
        while (
            not self.inner_halted
            and self.vround < self.target
            and self._ready(self.vround + 1)
        ):
            t = self.vround + 1
            inbox: List[Tuple[int, Any]] = []
            for u in sorted(self._nbrs):
                payloads = self.frames_in[u].pop(t - 1, ())
                inbox.extend((u, p) for p in payloads)
            self.inner.on_round(self._shim, t, inbox)
            self.vround = t
            self.inner_halted = self._shim._halted
            self.blocked_since.clear()
            self._emit_frame(t)

    def _emit_frame(self, t: int) -> None:
        per_dst: Dict[int, List[Any]] = {}
        for dst, payload in self._shim.drain():
            per_dst.setdefault(dst, []).append(payload)
        for u in self._nbrs:
            if u in self.dead:
                continue
            if u in self.halted_after:
                continue  # a halted inner never consumes further frames
            msg = (_FRAME, t, tuple(per_dst.get(u, ())), self.inner_halted)
            self.last_frame[u] = (t, msg)
            self._transmit(u, t, msg)

    def _transmit(self, dst: int, t: int, msg: Any) -> None:
        self._api.send(dst, msg)
        self.unacked[(dst, t)] = [msg, self._real_round + self.cfg.rto, 0]

    # ------------------------------------------------------------------
    # Retransmission, probing, link death
    # ------------------------------------------------------------------
    def _retransmit(self, api: Api) -> None:
        cfg = self.cfg
        ledger = api._ledger
        stats = ledger.stats
        for key in sorted(self.unacked):
            entry = self.unacked.get(key)
            if entry is None:
                continue
            msg, next_retry, tries = entry
            if self._real_round < next_retry:
                continue
            dst = key[0]
            if tries >= cfg.max_tries:
                self._mark_dead(api, dst)
                continue
            api.send(dst, msg)
            stats.retransmissions += 1
            if ledger.obs is not None:
                ledger.obs.on_retransmit(self._real_round, api.node_id, dst)
            entry[2] = tries + 1
            entry[1] = self._real_round + max(
                1, int(cfg.rto * cfg.backoff ** (tries + 1))
            )

    def _probe(self, api: Api) -> None:
        """Re-send the latest (acked) frame to silent blocking neighbors.

        Needed when a neighbor acked everything we sent and then crashed
        before producing its next frame: no unacked traffic exists to
        trigger link-death, so we manufacture some.  A live peer re-acks
        the duplicate (and we keep waiting — it is merely stalled); a
        dead one lets the retry counter run out.
        """
        if self.inner_halted or self.vround >= self.target:
            return
        cfg = self.cfg
        ledger = api._ledger
        stats = ledger.stats
        for u, since in sorted(self.blocked_since.items()):
            if u in self.dead:
                continue
            if any(key[0] == u for key in self.unacked):
                continue  # retransmission already in progress
            if self._real_round - since < cfg.probe_after:
                continue
            t, msg = self.last_frame.get(u, (None, None))
            if msg is None:
                continue
            self._transmit(u, t, msg)
            stats.retransmissions += 1
            if ledger.obs is not None:
                ledger.obs.on_retransmit(self._real_round, api.node_id, u)
            self.blocked_since[u] = self._real_round

    def _mark_dead(self, api: Api, dst: int) -> None:
        if dst in self.dead:
            return
        self.dead.add(dst)
        ledger = api._ledger
        ledger.stats.dead_links += 1
        ledger.record_fault(
            FaultEvent(LINK_DEAD, self._real_round,
                       src=self._shim.node_id, dst=dst)
        )
        for key in [k for k in self.unacked if k[0] == dst]:
            del self.unacked[key]
        self.frames_in[dst] = {}
        self.blocked_since.pop(dst, None)

    def _maybe_halt(self, api: Api) -> None:
        """Halt the real node once nothing further can involve it."""
        if not self.inner_halted or self.unacked:
            return
        if all(
            u in self.dead or u in self.halted_after for u in self._nbrs
        ):
            api.halt()

    # ------------------------------------------------------------------
    # Introspection for the driver
    # ------------------------------------------------------------------
    def data_in_flight(self) -> bool:
        """Whether any *inner* payload is still buffered or unacked."""
        for frames in self.frames_in.values():
            if any(frames.values()):
                return True
        for msg, _, _ in self.unacked.values():
            if msg[0] == _FRAME and msg[2]:
                return True
        return False


class ReliableNetwork:
    """Drive a network of :class:`ReliableProgram` wrappers by inner rounds.

    Mirrors the :class:`Network` surface that protocol runners use —
    ``run(max_rounds, stop_when_idle)``, ``stats``, ``in_flight``,
    ``graph``, ``programs`` — but ``max_rounds`` counts *virtual* (inner
    protocol) rounds; the real-round cost shows up in ``stats.rounds``.
    """

    def __init__(
        self,
        graph: Graph,
        programs: Dict[int, NodeProgram],
        max_message_words: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        config: Optional[ReliableConfig] = None,
        obs: Optional[Any] = None,
    ) -> None:
        self.graph = graph
        self.config = config or ReliableConfig()
        #: the inner programs, keyed by vertex (what runners inspect).
        self.programs = programs
        self.wrappers = {
            v: ReliableProgram(p, self.config) for v, p in programs.items()
        }
        self.fault_plan = fault_plan
        self.network = Network(
            graph,
            programs=self.wrappers,
            max_message_words=max_message_words,
            fault_plan=fault_plan,
            obs=obs,
            reliable_layer=True,
        )
        self.obs = obs
        self.stats = self.network.stats
        self._virtual_target = 0

    # ------------------------------------------------------------------
    def apply_programs(
        self, fn: Any, *args: Any, **kwargs: Any
    ) -> List[Any]:
        """Run ``fn(programs, *args, **kwargs)`` over the *inner* programs.

        The engine-agnostic program hook (see
        :meth:`Network.apply_programs`) — runners drive phases through
        this on every engine; here it sees the unwrapped inner programs,
        matching what ``self.programs`` exposes.
        """
        return [fn(self.programs, *args, **kwargs)]

    def _live(self, v: int) -> bool:
        plan = self.fault_plan
        if plan is None or not plan.has_crashes:
            return True
        return not plan.is_crashed(v, self.network.stats.rounds + 1)

    @property
    def in_flight(self) -> bool:
        """Whether any inner payload is still in transit anywhere."""
        return any(
            w.data_in_flight()
            for v, w in self.wrappers.items()
            if self._live(v)
        )

    def _blocking_unacked(self) -> bool:
        """Unacked frames whose delivery still matters (dst can act)."""
        for v, w in self.wrappers.items():
            if not self._live(v):
                continue
            for dst, _ in w.unacked:
                peer = self.wrappers[dst]
                if peer.inner_halted or dst in w.dead:
                    continue
                if not self._live(dst):
                    continue
                return True
        return False

    def _all_done(self) -> bool:
        for v, w in self.wrappers.items():
            if not self._live(v):
                continue
            if not (w.inner_halted or w.vround >= self._virtual_target):
                return False
        return not self._blocking_unacked()

    def _front(self) -> int:
        """The least inner round any live, unhalted node has completed."""
        fronts = [
            w.vround
            for v, w in self.wrappers.items()
            if self._live(v) and not w.inner_halted
        ]
        return min(fronts) if fronts else self._virtual_target

    def _check_dead_links(self) -> None:
        """Loud-failure path: giving up on a *live* neighbor is an error.

        Link death toward a crashed node is the expected way the layer
        routes around failed processors; link death toward a node that
        never crashes means delivery genuinely failed (e.g. a hopeless
        loss rate) and the run must not limp on with missing messages.
        """
        exempt = (
            self.fault_plan.crashed_nodes()
            if self.fault_plan is not None
            else set()
        )
        for v, w in self.wrappers.items():
            if v in exempt:
                continue
            for dst in w.dead:
                if dst not in exempt:
                    raise ProtocolError(
                        f"reliable delivery {v}->{dst} abandoned after "
                        f"{self.config.max_tries} retransmissions"
                    )

    def _virtually_idle(self, floor: int) -> bool:
        """The lockstep analogue of ``Network``'s empty in-flight set:
        every live, unhalted node sits at the same inner round — beyond
        ``floor``, so each ``run`` call executes at least one inner round,
        like :meth:`Network.run` — and no inner payload is buffered or
        awaiting an ack anywhere."""
        fronts = {
            w.vround
            for v, w in self.wrappers.items()
            if self._live(v) and not w.inner_halted
        }
        if len(fronts) > 1:
            return False
        if fronts and min(fronts) <= floor:
            return False
        return not self.in_flight

    def run(
        self, max_rounds: int, stop_when_idle: bool = False
    ) -> NetworkStats:
        """Execute up to ``max_rounds`` further inner rounds everywhere."""
        cfg = self.config
        self._virtual_target += max_rounds
        for w in self.wrappers.values():
            w.target = self._virtual_target
        limit = (
            cfg.stall_factor * max(1, max_rounds)
            + cfg.stall_slack
            + 4 * cfg.death_rounds()
        )
        spent = 0
        floor = self._front()
        while True:
            if self._all_done():
                break
            if stop_when_idle and self._virtually_idle(floor):
                break
            self.network.run(max_rounds=1)
            self._check_dead_links()
            spent += 1
            if spent > limit:
                fronts = sorted({w.vround for w in self.wrappers.values()})
                raise ProtocolError(
                    f"reliable layer stalled: {spent} real rounds spent "
                    f"on a {max_rounds}-round virtual budget "
                    f"(fronts={fronts[:6]})"
                )
        return self.stats


def build_network(
    graph: Graph,
    make_program: Callable[[int], NodeProgram],
    max_message_words: Optional[int] = None,
    strict: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    reliable: bool = False,
    reliable_config: Optional[ReliableConfig] = None,
    obs: Optional[Any] = None,
    shards: Optional[int] = None,
) -> Union[Network, "ReliableNetwork", "ShardedNetwork"]:
    """One-stop network construction for protocol entry points.

    ``make_program(v)`` returns vertex ``v``'s initial
    :class:`NodeProgram`, and each engine calls it where the program
    runs.  In the model a processor starts out knowing only its
    identifier and the run's public parameters (n, the shared seed), so
    a factory is the program class itself or a ``functools.partial`` of
    it over those shared arguments.  The contract:

    * it is picklable: a module-level class or function, or a partial of
      one over picklable arguments (the sharded engine ships it once to
      every worker);
    * it is a pure function of ``v``: it may share read-only objects
      (the PRF, a source set, parent maps, weights) among the programs
      it builds, but it draws nothing and mutates nothing.

    That is why neither the construction order nor the partition across
    shard workers can change a program.

    ``reliable=True`` wraps every program in :class:`ReliableProgram`
    and returns a :class:`ReliableNetwork` (whose ``run`` counts inner
    rounds); otherwise a plain :class:`Network` is returned, optionally
    with a :class:`FaultPlan` attached — running a protocol *raw* under
    faults is how the chaos harness demonstrates why the adapter exists.

    ``shards`` (>= 1) returns a
    :class:`~repro.distributed.sharded.ShardedNetwork` whose workers
    each build and run one contiguous vertex range's programs.  The
    sharded engine covers the clean configuration only: combining it
    with ``fault_plan``, ``reliable`` or ``strict`` raises
    ``ValueError``.
    """
    if shards is not None:
        if fault_plan is not None:
            raise ValueError("shards cannot be combined with a fault_plan")
        if reliable:
            raise ValueError("shards cannot be combined with reliable")
        if strict:
            raise ValueError("shards cannot be combined with strict")
        from repro.distributed.sharded import ShardedNetwork

        return ShardedNetwork(
            graph,
            make_program,
            shards,
            max_message_words=max_message_words,
            obs=obs,
        )
    if reliable:
        return ReliableNetwork(
            graph,
            {v: make_program(v) for v in graph.vertices()},
            max_message_words=max_message_words,
            fault_plan=fault_plan,
            config=reliable_config,
            obs=obs,
        )
    return Network(
        graph,
        program_factory=make_program,
        max_message_words=max_message_words,
        strict=strict,
        fault_plan=fault_plan,
        obs=obs,
    )
