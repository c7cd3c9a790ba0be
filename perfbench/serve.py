"""The ``serve`` workload: bundle, server and one closed-loop client.

Set-up builds the ``er/e1`` bundle (k=2), saves it, loads it back, and
starts a fresh :class:`~repro.serving.server.SpannerServer` plus one
client connection on an event loop of the benchmark's own thread.  The
client then keeps a fixed window of requests in flight over that one
connection (closed loop: a new request goes out only when a response
comes back), drawing a seeded zipf stream until ``--seconds`` have
passed.  Each response is reduced to a CRC as it arrives; after the
clock stops, every CRC is checked against the loaded bundle's direct,
uncached answer.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import zlib
from array import array
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench.calibrate import HostClock
from perfbench.common import OUT_DIR, Checks, nearest_rank, peak_rss_mb
from perfbench.tracer import Tracer
from repro.serving import artifact
from repro.serving.loadgen import make_queries
from repro.serving.server import QueryService, SpannerServer

#: the bundle every run serves: zoo host, scale, bundle seed, oracle k.
BUNDLE = ("er", "e1", 1, 2)
#: requests kept in flight on the single connection: the window of
#: ``repro.serving.loadgen`` (its ``pipeline`` default), with which the
#: repository's own serving benchmark drives its one connection.
PIPELINE = 16
#: queries generated per stream chunk (chunk i has its own seed).
CHUNK = 4096
MIX = "zipf"


@dataclass
class ServeMeasurement:
    """What one timed client loop did."""

    wall_s: float = 0.0
    #: queries answered; the replay plan of a traced run.
    plan: int = 0
    latencies_s: "array[float]" = field(default_factory=lambda: array("d"))
    crcs: "array[int]" = field(default_factory=lambda: array("L"))
    checks: Checks = field(default_factory=Checks)
    cache: Tuple[int, int, int] = (0, 0, 0)
    batch_mean: float = 0.0
    #: ``(wall_s, queries, middle)`` of each block of ``CHUNK`` queries,
    #: ``middle`` a ``perf_counter`` reading.
    windows: List[Tuple[float, int, float]] = field(default_factory=list)

    @property
    def cells(self) -> int:
        return self.plan

    @property
    def messages(self) -> int:
        return self.plan

    @property
    def outputs(self) -> List[Any]:
        return [list(self.crcs), self.cache]

    def detail_values(self) -> Dict[str, float]:
        """Raw percentiles per block of ``CHUNK`` queries, for diagnosis:
        the median over the blocks of each block's own p50 and p99.
        """
        p50, p99, first = [], [], 0
        for _, answered, _ in self.windows:
            block = sorted(self.latencies_s[first:first + answered])
            p50.append(nearest_rank(block, 50))
            p99.append(nearest_rank(block, 99))
            first += answered
        return {
            "block_median_p50_ms": statistics.median(p50) * 1000.0,
            "block_median_p99_ms": statistics.median(p99) * 1000.0,
        }


class Serve:
    """Set-up, timed loop and checks of the ``serve`` workload."""

    name = "serve"
    setup_reps = 5
    calibrated = True

    def __init__(self, seed: int, small: bool = False) -> None:
        self.seed = seed
        self.small = small
        kind, scale, bundle_seed, k = BUNDLE
        self.recipe = (kind, "smoke" if small else scale, bundle_seed, k)
        if small:
            self.setup_reps = 2
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.bundle: Optional[artifact.ArtifactBundle] = None
        self.bundle_bytes = 0
        self.service: Optional[QueryService] = None
        self.server: Optional[SpannerServer] = None
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    # ------------------------------------------------------------------
    def setup(self) -> None:
        kind, scale, bundle_seed, k = self.recipe
        bundle = artifact.build_bundle(kind, scale, bundle_seed, k=k)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"bundle-{os.getpid()}.json")
        try:
            artifact.save_bundle(bundle, path)
            self.bundle_bytes = os.path.getsize(path)
            self.bundle = artifact.load_bundle(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        assert self.bundle is not None
        self.service = QueryService(self.bundle)
        self.server = SpannerServer(self.service, port=0)
        await self.server.start()
        assert self.server.address is not None
        host, port = self.server.address
        self.reader, self.writer = await asyncio.open_connection(host, port)

    def teardown(self) -> None:
        """Close the client, the server and the loop (idempotent)."""
        loop = self.loop
        if loop is None:
            return
        try:
            loop.run_until_complete(self._stop())
        finally:
            loop.close()
            self.loop = None
            self.server = None
            self.reader = self.writer = None

    async def _stop(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
        if self.server is not None:
            await self.server.close()
        # Connection handlers end on EOF; cancel any that has not yet.
        rest = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
        for task in rest:
            task.cancel()
        await asyncio.gather(*rest, return_exceptions=True)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    # ------------------------------------------------------------------
    def _stream(self) -> Iterator[Tuple[int, Dict[str, Any]]]:
        """The seeded query stream, ids numbered across chunks."""
        assert self.bundle is not None
        vertices = sorted(self.bundle.graph.vertices())
        chunk = 0
        while True:
            queries = make_queries(
                vertices, CHUNK, mix=MIX, seed=(self.seed << 20) + chunk
            )
            for offset, query in enumerate(queries):
                query["id"] = chunk * CHUNK + offset
                yield query["id"], query
            chunk += 1

    def measure(
        self,
        seconds: Optional[float],
        replay: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        clock: Optional[HostClock] = None,
    ) -> ServeMeasurement:
        """Drive queries for ``seconds`` (or exactly ``replay`` queries)."""
        assert self.loop is not None and self.service is not None
        result = self.loop.run_until_complete(
            self._drive(seconds, replay, clock)
        )
        service = self.service
        result.cache = (service.hits_lru, service.hits_landmark, service.misses)
        result.batch_mean = service.metrics.histogram("serving_batch_size").mean
        return result

    async def _drive(
        self,
        seconds: Optional[float],
        count: Optional[int],
        clock: Optional[HostClock],
    ) -> ServeMeasurement:
        """Blocks of ``CHUNK`` queries; the kernel runs between blocks.

        Each block ends with the pipeline drained, so the calibration
        kernel never stalls a request in flight.
        """
        result = ServeMeasurement()
        stream = self._stream()
        start = perf_counter()
        deadline = start + seconds if seconds is not None else None
        while True:
            left = CHUNK if count is None else min(CHUNK, count - result.plan)
            if left <= 0 or (deadline is not None and perf_counter() >= deadline):
                break
            began = perf_counter()
            answered = await self._block(stream, left, deadline, result)
            wall_s = perf_counter() - began
            result.windows.append((wall_s, answered, began + wall_s / 2))
            result.plan += answered
            if clock is not None:
                clock.sample()
        result.wall_s = perf_counter() - start
        return result

    async def _block(
        self,
        stream: Iterator[Tuple[int, Dict[str, Any]]],
        left: int,
        deadline: Optional[float],
        result: ServeMeasurement,
    ) -> int:
        """Closed loop over at most ``left`` queries; returns how many."""
        reader, writer = self.reader, self.writer
        assert reader is not None and writer is not None
        latencies, crcs = result.latencies_s, result.crcs
        sent_at: "deque[float]" = deque()
        sent = answered = 0

        def more(now: float) -> bool:
            return sent < left and (deadline is None or now < deadline)

        while sent < PIPELINE and more(perf_counter()):
            _, query = next(stream)
            sent_at.append(perf_counter())
            writer.write(json.dumps(query, sort_keys=True).encode() + b"\n")
            sent += 1
        await writer.drain()
        while answered < sent:
            line = await reader.readline()
            now = perf_counter()
            if not line:
                raise ConnectionError("server closed the connection mid-run")
            latencies.append(now - sent_at.popleft())
            crcs.append(zlib.crc32(line))
            answered += 1
            if more(now):
                _, query = next(stream)
                sent_at.append(perf_counter())
                writer.write(json.dumps(query, sort_keys=True).encode() + b"\n")
                sent += 1
                await writer.drain()
        return answered

    def finish(self, result: ServeMeasurement) -> None:
        """Check every response against the bundle's direct answer."""
        assert self.bundle is not None
        direct = QueryService(self.bundle, cache_size=0, landmarks=0)
        answers: Dict[Tuple[Any, ...], Any] = {}
        checks = result.checks
        for (rid, query), crc in zip(self._stream(), result.crcs):
            op = query["op"]
            key = (op, query.get("u"), query["v"])
            if key not in answers:
                if op == "dist":
                    answers[key] = direct.dist(query["u"], query["v"])
                elif op == "route":
                    answers[key] = direct.route(query["u"], query["v"])
                else:
                    answers[key] = direct.label(query["v"])
            expected = {"id": rid, "ok": True, "value": answers[key]}
            line = json.dumps(expected, sort_keys=True, allow_nan=False)
            problems = []
            if zlib.crc32(line.encode() + b"\n") != crc:
                problems.append(
                    f"response differs from the bundle's direct answer "
                    f"{answers[key]!r} to {op}{key[1:]}"
                )
            checks.record(f"query {rid}", problems)

    def layer_values(
        self, traced: ServeMeasurement, tracer: Tracer
    ) -> Dict[str, float]:
        hits_lru, hits_landmark, misses = traced.cache
        probes = hits_lru + hits_landmark + misses
        handle_s = tracer.totals("service.handle", "run")[1]
        return {
            "artifact.bytes": self.bundle_bytes,
            "service.hit_frac": (
                (hits_lru + hits_landmark) / probes if probes else 0.0
            ),
            "service.misses": misses,
            "server.batch_mean": traced.batch_mean,
            "server.io_s": tracer.root_seconds("run") - handle_s,
        }
