"""Tests for the synchronous network simulator."""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocols import PROTOCOLS
from repro.distributed import Api, Network, NetworkStats, NodeProgram, ProtocolError
from repro.graphs import path, star
from repro.obs import Obs, TraceRecorder


class Echo(NodeProgram):
    """Broadcasts its id once, records everything it hears."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.heard: List[Tuple[int, Any]] = []

    def setup(self, api: Api) -> None:
        api.broadcast(self.node_id)

    def on_round(self, api, round_index, inbox) -> None:
        self.heard.extend(inbox)


class Forwarder(NodeProgram):
    """Relays a token left-to-right along a path."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.received_at = None

    def setup(self, api: Api) -> None:
        if self.node_id == 0:
            api.send(1, "token")

    def on_round(self, api, round_index, inbox) -> None:
        for _, payload in inbox:
            if payload == "token" and self.received_at is None:
                self.received_at = round_index
                nxt = self.node_id + 1
                if nxt in api.neighbors:
                    api.send(nxt, "token")


class TestDelivery:
    def test_setup_messages_arrive_round_one(self):
        g = path(3)
        programs = {v: Echo(v) for v in g.vertices()}
        Network(g, programs=programs).run(max_rounds=2)
        assert (0, 0) in programs[1].heard
        assert (2, 2) in programs[1].heard

    def test_one_round_latency_per_hop(self):
        g = path(6)
        programs = {v: Forwarder(v) for v in g.vertices()}
        Network(g, programs=programs).run(max_rounds=10)
        for v in range(1, 6):
            assert programs[v].received_at == v

    def test_inbox_sorted_by_source(self):
        g = star(5)
        programs = {v: Echo(v) for v in g.vertices()}
        Network(g, programs=programs).run(max_rounds=1)
        sources = [src for src, _ in programs[0].heard]
        assert sources == sorted(sources)


class TestModelEnforcement:
    def test_send_to_non_neighbor_rejected(self):
        class Bad(NodeProgram):
            def setup(self, api):
                if api.node_id == 0:
                    api.send(2, "x")

            def on_round(self, api, round_index, inbox):
                pass

        g = path(3)  # 0 and 2 are not adjacent
        with pytest.raises(ProtocolError):
            Network(g, program_factory=lambda v: Bad()).run(1)

    def test_strict_cap_raises(self):
        class Wide(NodeProgram):
            def setup(self, api):
                if api.node_id == 0:
                    api.send(1, (1, 2, 3, 4, 5))

            def on_round(self, api, round_index, inbox):
                pass

        g = path(2)
        with pytest.raises(ProtocolError):
            Network(
                g,
                program_factory=lambda v: Wide(),
                max_message_words=3,
                strict=True,
            ).run(1)

    def test_lenient_cap_counts_violations(self):
        class Wide(NodeProgram):
            def setup(self, api):
                if api.node_id == 0:
                    api.send(1, (1, 2, 3, 4, 5))

            def on_round(self, api, round_index, inbox):
                pass

        g = path(2)
        net = Network(
            g, program_factory=lambda v: Wide(), max_message_words=3
        )
        stats = net.run(1)
        assert stats.violations == 1
        assert stats.max_message_words == 5

    def test_same_round_sends_merge_into_one_message(self):
        class Chatty(NodeProgram):
            def setup(self, api):
                if api.node_id == 0:
                    api.send(1, 1)
                    api.send(1, 2)

            def on_round(self, api, round_index, inbox):
                self.inbox_size = len(inbox)

        g = path(2)
        programs = {0: Chatty(), 1: Chatty()}
        net = Network(g, programs=programs)
        net.run(1)
        # Two payloads, one accounted message of width 2.
        assert net.stats.max_message_words == 2
        assert programs[1].inbox_size >= 2


class TestLifecycle:
    def test_halt_stops_participation(self):
        class OneShot(NodeProgram):
            def __init__(self):
                self.rounds_seen = 0

            def on_round(self, api, round_index, inbox):
                self.rounds_seen += 1
                api.halt()

        g = path(3)
        programs = {v: OneShot() for v in g.vertices()}
        stats = Network(g, programs=programs).run(10)
        assert all(p.rounds_seen == 1 for p in programs.values())
        assert stats.rounds == 1  # everyone halted after round 1

    def test_stop_when_idle(self):
        g = path(4)
        programs = {v: Echo(v) for v in g.vertices()}
        stats = Network(g, programs=programs).run(
            100, stop_when_idle=True
        )
        assert stats.rounds <= 2

    def test_run_is_resumable(self):
        g = path(4)
        programs = {v: Forwarder(v) for v in g.vertices()}
        net = Network(g, programs=programs)
        net.run(1)
        net.run(10)
        assert programs[3].received_at == 3

    def test_requires_program_per_vertex(self):
        g = path(3)
        with pytest.raises(ValueError):
            Network(g, programs={0: Echo(0)})

    def test_exactly_one_program_source(self):
        g = path(2)
        with pytest.raises(ValueError):
            Network(g)
        with pytest.raises(ValueError):
            Network(
                g,
                programs={v: Echo(v) for v in g.vertices()},
                program_factory=lambda v: Echo(v),
            )


class TestStats:
    def test_merged_with(self):
        a = NetworkStats(rounds=3, messages=10, total_words=20,
                         max_message_words=4, cap=8, violations=0)
        b = NetworkStats(rounds=2, messages=5, total_words=30,
                         max_message_words=9, cap=6, violations=1)
        m = a.merged_with(b)
        assert m.rounds == 5 and m.messages == 15
        assert m.total_words == 50
        assert m.max_message_words == 9
        assert m.cap == 6 and m.violations == 1

    def test_merged_with_honors_fault_log_limit(self):
        """Regression: the merged fault log is capped like a single
        run's (``record_fault``), and every event not retained is
        counted in ``fault_events_dropped`` exactly."""
        from repro.distributed.faults import DROP, FaultEvent

        a = NetworkStats(
            fault_events=[FaultEvent(DROP, r) for r in range(3)],
            fault_events_dropped=2,
        )
        b = NetworkStats(
            fault_events=[FaultEvent(DROP, r) for r in range(3, 7)],
            fault_events_dropped=1,
        )
        m = a.merged_with(b, limit=5)
        assert len(m.fault_events) == 5
        # Retention keeps the earliest events, in order.
        assert [e.round for e in m.fault_events] == [0, 1, 2, 3, 4]
        # 2 + 1 carried over, plus the 2 trimmed by this merge.
        assert m.fault_events_dropped == 5
        # The default limit is generous enough for small logs: nothing
        # trimmed, drops carried through unchanged.
        wide = a.merged_with(b)
        assert len(wide.fault_events) == 7
        assert wide.fault_events_dropped == 3

    def test_merged_with_rejects_negative_limit(self):
        with pytest.raises(ValueError):
            NetworkStats().merged_with(NetworkStats(), limit=-1)

    def test_str_mentions_cap_when_present(self):
        s = NetworkStats(cap=4)
        assert "cap=4" in str(s)
        assert "cap" not in str(NetworkStats())


class TestStrictCapAtomicity:
    """Regression: a strict-cap violation must not leave partial state.

    The old single-pass collection observed (and queued) earlier buckets
    before discovering a violating one, so the raised ProtocolError left
    ``stats`` counting messages that were never delivered.
    """

    class _MixedWidth(NodeProgram):
        def setup(self, api):
            if api.node_id == 0:
                api.send(1, "ok")  # 1 word, under the cap
                api.send(2, (1, 2, 3, 4, 5))  # 5 words, over the cap

        def on_round(self, api, round_index, inbox):
            pass

    class _WideBroadcast(NodeProgram):
        def setup(self, api):
            if api.node_id == 0:
                api.broadcast("ok")  # 1 word on both edges, under the cap
            elif api.node_id == 1:
                api.broadcast((1, 2, 3, 4, 5))  # 5 words, over the cap

        def on_round(self, api, round_index, inbox):
            pass

    @staticmethod
    def _assert_nothing_counted(program_cls):
        net = Network(
            star(3),
            program_factory=lambda v: program_cls(),
            max_message_words=3,
            strict=True,
        )
        with pytest.raises(ProtocolError):
            net.run(1)
        assert net.stats.messages == 0
        assert net.stats.total_words == 0
        assert net.stats.max_message_words == 0
        assert not net.in_flight

    def test_violation_counts_and_queues_nothing(self):
        self._assert_nothing_counted(self._MixedWidth)

    def test_broadcast_violation_counts_and_queues_nothing(self):
        # The clean broadcast of node 0 is collected before node 1's
        # wide one: the pre-pass must reject node 1 before node 0's
        # record is charged or delivered.
        self._assert_nothing_counted(self._WideBroadcast)

    def test_violation_after_clean_rounds_keeps_prior_stats(self):
        class LateWide(NodeProgram):
            def on_round(self, api, round_index, inbox):
                if api.node_id == 0:
                    if round_index == 1:
                        api.send(1, "ok")
                    elif round_index == 2:
                        api.send(1, (1, 2, 3, 4, 5))

        g = path(2)
        net = Network(
            g,
            program_factory=lambda v: LateWide(),
            max_message_words=3,
            strict=True,
        )
        with pytest.raises(ProtocolError):
            net.run(5)
        # Round 1's single clean message remains the whole ledger.
        assert net.stats.messages == 1
        assert net.stats.total_words == 1


class TestConstruction:
    def test_rejects_programs_for_unknown_vertices(self):
        g = path(3)
        programs = {v: Echo(v) for v in g.vertices()}
        programs[99] = Echo(99)
        with pytest.raises(ValueError, match="not in the graph"):
            Network(g, programs=programs)


class TestMultiPhaseRuns:
    def test_in_flight_messages_survive_across_run_calls(self):
        g = path(5)
        programs = {v: Forwarder(v) for v in g.vertices()}
        net = Network(g, programs=programs)
        net.run(1)
        # The token is mid-path: the run() boundary must not drop it.
        assert net.in_flight
        net.run(1)
        assert programs[1].received_at == 1
        assert net.in_flight
        net.run(10)
        assert programs[4].received_at == 4
        assert not net.in_flight

    def test_stop_when_idle_delivers_setup_outbox_first(self):
        # Setup sends are in flight before round 1: idle detection must
        # run the round that delivers them rather than stopping at zero.
        g = path(3)
        programs = {v: Echo(v) for v in g.vertices()}
        net = Network(g, programs=programs)
        stats = net.run(100, stop_when_idle=True)
        assert stats.rounds >= 1
        assert (0, 0) in programs[1].heard

    def test_stop_when_idle_resumes_after_reconfiguration(self):
        class TwoPhase(NodeProgram):
            def __init__(self, node_id):
                self.node_id = node_id
                self.heard = []
                self.phase = 0

            def begin_phase(self):
                self.phase += 1
                self.kicked = False

            def on_round(self, api, round_index, inbox):
                self.heard.extend((self.phase, s, p) for s, p in inbox)
                if self.phase == 1 and self.node_id == 0 and not self.kicked:
                    self.kicked = True
                    api.broadcast("go")

        g = path(3)
        programs = {v: TwoPhase(v) for v in g.vertices()}
        net = Network(g, programs=programs)
        net.run(50, stop_when_idle=True)  # phase 0: no traffic at all
        first = net.stats.rounds
        for p in programs.values():
            p.begin_phase()
        net.run(50, stop_when_idle=True)  # phase 1: one broadcast
        assert net.stats.rounds > first
        assert any(ph == 1 and s == 0 for ph, s, _ in programs[1].heard)


class RoundLog(NodeProgram):
    """Broadcasts a token for the first few rounds; logs inbox sources
    per round (unlike Echo, which flattens rounds together)."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.rounds: List[List[int]] = []

    def setup(self, api: Api) -> None:
        api.broadcast(("hello", self.node_id))

    def on_round(self, api, round_index, inbox) -> None:
        self.rounds.append([src for src, _ in inbox])
        if round_index <= 3:
            api.broadcast(("tick", round_index))


class TestInboxOrdering:
    """Delivery is staged in ascending sender order, so no inbox is
    sorted on the clean path; under a fault plan only a bucket that a
    delayed arrival joined is re-sorted.  Either way the contract is the
    same: inboxes arrive src-sorted unless the plan *deliberately*
    reorders."""

    def test_clean_inboxes_src_sorted_every_round(self):
        from repro.graphs import erdos_renyi_gnp

        g = erdos_renyi_gnp(30, 0.2, seed=4)
        programs = {v: RoundLog(v) for v in g.vertices()}
        Network(g, programs=programs).run(6)
        for program in programs.values():
            for sources in program.rounds:
                assert sources == sorted(sources)

    def test_faulty_inboxes_src_sorted_without_reorder(self):
        # Drops, duplicates and delays shuffle *which* messages land in
        # a round, never their src order within the inbox.
        from repro.distributed import FaultPlan
        from repro.graphs import erdos_renyi_gnp

        g = erdos_renyi_gnp(30, 0.2, seed=4)
        programs = {v: RoundLog(v) for v in g.vertices()}
        plan = FaultPlan(
            seed=9, drop_rate=0.1, duplicate_rate=0.1, delay_rate=0.3,
            max_delay=2,
        )
        Network(g, programs=programs, fault_plan=plan).run(8)
        saw_any = False
        for program in programs.values():
            for sources in program.rounds:
                saw_any = saw_any or bool(sources)
                assert sources == sorted(sources)
        assert saw_any


#: payloads of 0-4 words: ``None``, scalars, tuples (nested too) and one
#: unhashable list, which bypasses the word cache.
_SCRIPT_PAYLOADS: Tuple[Any, ...] = (
    None, 0, "x", (1, 2), (None, "ab", 3), (1, 2, 3), ((1, 2), (3, 4)),
    [5, (6, 7)],
)


def _random_script(
    seed: int, vertices: List[int], rounds: int
) -> Dict[Tuple[int, int], List[Tuple[str, int, Any]]]:
    """(vertex, round) -> 0-3 ``("broadcast" | "send", pick, payload)``
    calls; a send goes to neighbor ``pick`` modulo the degree."""
    rng = random.Random(seed)
    return {
        (v, r): [
            (
                rng.choice(("broadcast", "send")),
                rng.randrange(16),
                rng.choice(_SCRIPT_PAYLOADS),
            )
            for _ in range(rng.randint(0, 3))
        ]
        for v in vertices
        for r in range(rounds)
    }


class _Scripted(NodeProgram):
    """Replays its vertex's script and logs every inbox.  With
    ``as_loop`` each broadcast is written as a ``send`` loop instead."""

    def __init__(
        self,
        node_id: int,
        script: Dict[Tuple[int, int], List[Tuple[str, int, Any]]],
        as_loop: bool,
    ) -> None:
        self.node_id = node_id
        self.script = script
        self.as_loop = as_loop
        self.inboxes: List[Tuple[int, List[Tuple[int, Any]]]] = []

    def _act(self, api: Api, round_index: int) -> None:
        nbrs = api.neighbors
        for kind, pick, payload in self.script.get(
            (self.node_id, round_index), ()
        ):
            if kind == "broadcast":
                if self.as_loop:
                    for u in nbrs:
                        api.send(u, payload)
                else:
                    api.broadcast(payload)
            elif nbrs:
                api.send(nbrs[pick % len(nbrs)], payload)

    def setup(self, api: Api) -> None:
        self._act(api, 0)

    def on_round(self, api, round_index, inbox) -> None:
        self.inboxes.append((round_index, list(inbox)))
        self._act(api, round_index)


class TestBroadcastFastPath:
    """Api.broadcast queues one record that the engine charges and
    delivers as one send per neighbor: every observable (stats, inboxes,
    trace bytes, in-flight state, strict-cap errors) must equal the same
    node program written with a ``send`` loop.  A stray non-neighbor
    send must still be rejected."""

    @staticmethod
    def _observe(
        graph: Any,
        script: Dict[Tuple[int, int], List[Tuple[str, int, Any]]],
        as_loop: bool,
        cap: Any,
        strict: bool,
        rounds: int,
    ) -> Tuple[Any, ...]:
        recorder = TraceRecorder()
        programs = {
            v: _Scripted(v, script, as_loop) for v in graph.vertices()
        }
        net = Network(
            graph,
            programs=programs,
            max_message_words=cap,
            strict=strict,
            obs=Obs(recorder=recorder),
        )
        error = None
        try:
            net.run(rounds)
        except ProtocolError as exc:
            error = str(exc)
        return (
            net.stats,
            {v: p.inboxes for v, p in programs.items()},
            recorder.dumps(),
            net.in_flight,
            error,
        )

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=14),
        p=st.sampled_from((0.0, 0.15, 0.4)),
        graph_seed=st.integers(min_value=0, max_value=10 ** 6),
        script_seed=st.integers(min_value=0, max_value=10 ** 6),
        cap=st.sampled_from((None, 2, 3)),
        strict=st.booleans(),
        rounds=st.integers(min_value=1, max_value=4),
    )
    def test_broadcast_equals_send_loop(
        self, n, p, graph_seed, script_seed, cap, strict, rounds
    ):
        from repro.graphs import erdos_renyi_gnp

        g = erdos_renyi_gnp(n, p, seed=graph_seed)
        script = _random_script(script_seed, list(g.vertices()), rounds)
        broadcast = self._observe(g, script, False, cap, strict, rounds)
        send_loop = self._observe(g, script, True, cap, strict, rounds)
        assert broadcast == send_loop

    def test_broadcast_reaches_each_neighbor_exactly_once(self):
        g = star(6)
        programs = {v: Echo(v) for v in g.vertices()}
        Network(g, programs=programs).run(1)
        for leaf in range(1, 6):
            assert programs[leaf].heard == [(0, 0)]
        assert sorted(programs[0].heard) == [(v, v) for v in range(1, 6)]

    def test_non_neighbor_send_rejected_after_broadcast(self):
        class Mixed(NodeProgram):
            def setup(self, api):
                if api.node_id == 0:
                    api.broadcast("fine")
                    api.send(2, "telepathy")  # 0-2 is not an edge

            def on_round(self, api, round_index, inbox):
                pass

        g = path(3)
        with pytest.raises(ProtocolError, match="non-neighbor"):
            Network(g, program_factory=lambda v: Mixed()).run(1)


class TestDelayedMessagesAcrossRuns:
    """Fault-delayed messages are in flight: multi-phase drivers that
    loop `while network.in_flight: network.run(1)` and `stop_when_idle`
    callers both rely on the delayed queue counting as traffic."""

    def _delayed_token_net(self):
        from repro.distributed import FaultPlan

        g = path(2)
        programs = {v: Forwarder(v) for v in g.vertices()}
        # delay_rate=1.0, max_delay=1: every delivery is pushed back
        # exactly one round, deterministically.
        plan = FaultPlan(seed=1, delay_rate=1.0, max_delay=1)
        return Network(g, programs=programs, fault_plan=plan), programs

    def test_delayed_message_counts_as_in_flight(self):
        net, programs = self._delayed_token_net()
        net.run(1)
        assert programs[1].received_at is None  # held in the delay queue
        assert net.in_flight
        assert net.stats.delayed == 1

    def test_stop_when_idle_waits_for_delay_queue(self):
        net, programs = self._delayed_token_net()
        net.run(1)
        # Resuming with stop_when_idle must deliver the held message
        # rather than declaring the network idle at the run() boundary.
        net.run(10, stop_when_idle=True)
        assert programs[1].received_at == 2
        assert not net.in_flight


class TestNoReferenceCycles:
    """A finished network is freed by reference counting alone.

    An :class:`Api` reports to its network's ledger, which holds no
    reference back, so no Api <-> Network cycle waits for the cyclic
    collector.  With the collector off, a whole protocol run leaves
    nothing for ``gc.collect()`` to find: clean, under the reliable
    layer, traced, under a raw fault plan, and at two shards (the
    coordinator's side).  Registry runs pause the collector on the
    strength of this (:meth:`ProtocolSpec.run`).
    """

    @staticmethod
    def _kwargs(config: str) -> Dict[str, Any]:
        from repro.distributed import FaultPlan

        def plan() -> FaultPlan:
            return FaultPlan(
                seed=5, drop_rate=0.05, duplicate_rate=0.05, delay_rate=0.05
            )

        return {
            "clean": lambda: {},
            "reliable": lambda: {"reliable": True, "fault_plan": plan()},
            "traced": lambda: {"obs": Obs(recorder=TraceRecorder())},
            "lossy": lambda: {"fault_plan": plan()},
            "shards2": lambda: {"shards": 2},
        }[config]()

    def _assert_run_leaves_nothing(self, protocol: str, config: str) -> None:
        import gc

        from repro.graphs import erdos_renyi_gnp
        from repro.obs import run_traced

        def run(graph):
            run_traced(protocol, graph, seed=11, **self._kwargs(config))

        # A first run on a small host does the lazy imports (modules and
        # classes are cycles of their own) and starts any worker pool.
        run(erdos_renyi_gnp(12, 0.3, seed=3))
        graph = erdos_renyi_gnp(40, 0.12, seed=3)
        gc.collect()
        gc.disable()
        try:
            run(graph)
            freed = gc.collect()
        finally:
            gc.enable()
        assert freed == 0

    @pytest.mark.parametrize("reliable", [False, True])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_run_leaves_no_cyclic_garbage(self, protocol, reliable):
        self._assert_run_leaves_nothing(
            protocol, "reliable" if reliable else "clean"
        )

    @pytest.mark.parametrize("config", ["traced", "lossy", "shards2"])
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_traced_lossy_and_sharded_runs_leave_no_cyclic_garbage(
        self, protocol, config
    ):
        self._assert_run_leaves_nothing(protocol, config)
