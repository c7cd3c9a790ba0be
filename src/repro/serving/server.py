"""The asyncio query server over a loaded artifact bundle.

Wire protocol: newline-delimited JSON, over TCP or a unix socket.
One request per line, one response per line, matched by ``id``::

    -> {"id": 7, "op": "dist",  "u": 3, "v": 19}
    <- {"id": 7, "ok": true, "value": 4}

Operations: ``ping``, ``dist``, ``route``, ``label``, ``stats``, and
``shutdown`` (graceful: the server answers, finishes the in-flight
batch, then stops accepting and closes).  Unreachable pairs answer
``null`` — never ``Infinity``, which is not JSON.  A malformed line
(not JSON, not UTF-8, nested too deep to decode, a non-finite number
as a vertex or the id, or longer than :data:`LINE_LIMIT` bytes) is
answered with ``{"ok": false, "error": ...}``; the connection stays
open and every other request is served as before.

Two layers:

* :class:`QueryService` — the synchronous query core: bundle +
  two-tier cache (exact LRU over unordered vertex pairs, plus a
  *landmark* tier of precomputed answers for the oracle's top-level
  sampled vertices, whose clusters span their whole component) and
  deterministic hit/miss accounting.  Cache on and cache off return
  byte-identical answers — both tiers store exactly what
  ``DistanceOracle.query`` would compute.
* :class:`SpannerServer` — the asyncio shell: every connection feeds
  one shared queue; a single drainer task collects whatever arrived
  by the current event-loop tick and serves it as one batch, keeping
  single-connection streams in strict arrival order (which is what
  makes bench counts replayable).  A batch's responses are grouped by
  connection: each connection gets its batch's bytes in one ``write``,
  and the drains follow all the writes.

Metrics land in a :class:`repro.obs.metrics.MetricsRegistry`
(``serving_requests``, ``serving_cache_events``,
``serving_batch_size``, ``serving_service_us``); ``metrics.snapshot()``
dumps them, and the ``stats`` op serves the plain request and cache
counters.  The service resolves each metric it updates per request
from the registry the first time it is used and updates that handle
after, so a request pays no registry lookup.
"""

from __future__ import annotations

import asyncio
import json
from collections import OrderedDict
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.serving.artifact import ArtifactBundle

__all__ = ["LINE_LIMIT", "QueryService", "ServiceError", "SpannerServer"]

INF = float("inf")

#: the longest request line the server reads, newline excluded
#: (asyncio's stream default).  A longer line is answered with an error
#: and discarded through its newline.
LINE_LIMIT = 2**16

#: the one response encoder: the text ``json.dumps(response,
#: sort_keys=True, allow_nan=False)`` gives, without a new encoder per
#: response.
_encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


class ServiceError(ValueError):
    """A request the service refuses (unknown op, unknown vertex...)."""


def _encode_dist(value: float) -> Optional[int]:
    """JSON-safe distance: unreachable becomes ``None`` (wire null)."""
    return None if value == INF else int(value)


class QueryService:
    """Synchronous query core: loaded bundle + two-tier answer cache.

    ``cache_size=0`` disables the LRU tier and ``landmarks=0`` the
    landmark tier; answers are identical either way (test-enforced),
    only the hit accounting changes.
    """

    def __init__(
        self,
        bundle: ArtifactBundle,
        cache_size: int = 4096,
        landmarks: int = 8,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        if landmarks < 0:
            raise ValueError("landmarks must be >= 0")
        self.bundle = bundle
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache_size = cache_size
        self._dist_cache: "OrderedDict[Tuple[int, int], Optional[int]]" = (
            OrderedDict()
        )
        self._route_cache: (
            "OrderedDict[Tuple[int, int], Optional[List[int]]]"
        ) = OrderedDict()
        # Deterministic plain-int accounting (mirrored into metrics):
        # the bench gate pins these, so they must not depend on wall
        # time or interleaving across reps.
        self.requests = 0
        self.hits_lru = 0
        self.hits_landmark = 0
        self.misses = 0
        # Metric handles, resolved from the registry on first use, so a
        # metric appears in a snapshot only once it is used.
        self._tier_counters: Dict[str, Counter] = {}
        self._op_counters: Dict[Tuple[str, bool], Counter] = {}
        self._service_us: Optional[Histogram] = None

        # Landmark tier: the most elite non-empty sampled level of the
        # oracle.  Those vertices' clusters are unbounded, so they are
        # the natural hot set — every vertex's bunch contains its
        # component's top-level pivots.  Answers are precomputed with
        # the same oracle walk a miss would run, so the tier can never
        # change an answer, only its cost.
        oracle = bundle.oracle
        elite: List[int] = []
        for level in reversed(oracle.levels):
            if level:
                elite = sorted(level)
                break
        self.landmarks: Tuple[int, ...] = tuple(elite[:landmarks])
        self._landmark_dist: Dict[int, Dict[int, Optional[int]]] = {}
        for w in self.landmarks:
            self._landmark_dist[w] = {
                v: _encode_dist(oracle.query(w, v))
                for v in sorted(bundle.graph.vertices())
            }

    # ------------------------------------------------------------------
    # Query operations
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> int:
        if not self.bundle.graph.has_vertex(v):
            raise ServiceError(f"unknown vertex: {v}")
        return v

    def _cache_event(self, tier: str) -> None:
        counter = self._tier_counters.get(tier)
        if counter is None:
            counter = self._tier_counters[tier] = self.metrics.counter(
                "serving_cache_events", tier=tier
            )
        counter.inc()

    def _lru_put(
        self,
        cache: "OrderedDict[Tuple[int, int], Any]",
        key: Tuple[int, int],
        value: Any,
    ) -> None:
        if self.cache_size == 0:
            return
        cache[key] = value
        if len(cache) > self.cache_size:
            cache.popitem(last=False)

    def dist(self, u: int, v: int) -> Optional[int]:
        """Stretch-(2k-1) distance estimate; ``None`` if disconnected."""
        self._check_vertex(u)
        self._check_vertex(v)
        self.requests += 1
        if u == v:
            return 0
        key = (u, v) if u < v else (v, u)
        cache = self._dist_cache
        if key in cache:
            cache.move_to_end(key)
            self.hits_lru += 1
            self._cache_event("lru")
            return cache[key]
        if u in self._landmark_dist:
            self.hits_landmark += 1
            self._cache_event("landmark")
            return self._landmark_dist[u][v]
        if v in self._landmark_dist:
            self.hits_landmark += 1
            self._cache_event("landmark")
            return self._landmark_dist[v][u]
        self.misses += 1
        self._cache_event("miss")
        value = _encode_dist(self.bundle.oracle.query(u, v))
        self._lru_put(cache, key, value)
        return value

    def route(self, u: int, v: int) -> Optional[List[int]]:
        """The routing scheme's vertex path (``None`` if disconnected).

        Routes are cached under the unordered pair in canonical
        orientation — valid because ``CompactRouter.route(u, v)`` is
        by construction the reverse of ``route(v, u)``.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        self.requests += 1
        if u == v:
            return [u]
        key = (u, v) if u < v else (v, u)
        cache = self._route_cache
        if key in cache:
            cache.move_to_end(key)
            self.hits_lru += 1
            self._cache_event("lru")
            path = cache[key]
        else:
            self.misses += 1
            self._cache_event("miss")
            path = self.bundle.router.route(key[0], key[1])
            self._lru_put(cache, key, path)
        if path is None:
            return None
        return list(path) if u == key[0] else path[::-1]

    def label(self, v: int) -> Dict[str, Any]:
        """The vertex's distance label, as canonical plain data."""
        self._check_vertex(v)
        self.requests += 1
        label = self.bundle.labeling.label(v)
        return {
            "vertex": label.vertex,
            "pivots": [
                None if p is None else [p[0], int(p[1])]
                for p in label.pivots
            ],
            "bunch": sorted(
                [w, int(d)] for w, d in label.bunch.items()
            ),
            "size_words": label.size_words,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return self.hits_lru + self.hits_landmark

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def stats(self) -> Dict[str, Any]:
        """Server-side snapshot served by the ``stats`` op."""
        bundle = self.bundle
        return {
            "n": bundle.graph.n,
            "m": bundle.graph.m,
            "k": bundle.k,
            "spanner_edges": bundle.spanner.size,
            "oracle_entries": bundle.oracle.size,
            "recipe": dict(sorted(bundle.recipe.items())),
            "requests": self.requests,
            "cache": {
                "size": self.cache_size,
                "entries": len(self._dist_cache) + len(self._route_cache),
                "landmarks": list(self.landmarks),
                "hits_lru": self.hits_lru,
                "hits_landmark": self.hits_landmark,
                "misses": self.misses,
                "hit_rate": round(self.hit_rate, 6),
            },
        }

    # ------------------------------------------------------------------
    # Request dispatch (shared by the server and in-process callers)
    # ------------------------------------------------------------------
    def handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one decoded request; never raises."""
        rid = request.get("id")
        op = request.get("op")
        started = perf_counter()
        try:
            value: Any
            if op == "ping":
                value = "pong"
            elif op == "dist":
                value = self.dist(int(request["u"]), int(request["v"]))
            elif op == "route":
                value = self.route(int(request["u"]), int(request["v"]))
            elif op == "label":
                value = self.label(int(request["v"]))
            elif op == "stats":
                value = self.stats()
            else:
                raise ServiceError(f"unknown op: {op!r}")
        except ServiceError as exc:
            self._count_op(op, ok=False)
            return {"id": rid, "ok": False, "error": str(exc)}
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: int() of an infinite float (Infinity, 1e400).
            self._count_op(op, ok=False)
            return {"id": rid, "ok": False, "error": f"bad request: {exc}"}
        self._count_op(op, ok=True)
        histogram = self._service_us
        if histogram is None:
            histogram = self._service_us = self.metrics.histogram(
                "serving_service_us"
            )
        histogram.observe((perf_counter() - started) * 1e6)
        return {"id": rid, "ok": True, "value": value}

    def _count_op(self, op: Any, ok: bool) -> None:
        key = (str(op), ok)
        counter = self._op_counters.get(key)
        if counter is None:
            counter = self._op_counters[key] = self.metrics.counter(
                "serving_requests", op=key[0], ok=str(ok).lower()
            )
        counter.inc()


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next request line: ``b""`` at end of input, ``None`` for a
    line longer than :data:`LINE_LIMIT`, discarded through its newline.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # input ended; the last line has no newline
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    # Drop what the reader scanned, and read on until the newline.
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None  # input ended inside the line
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


class SpannerServer:
    """Asyncio shell: connections feed one queue, one task drains it.

    Construct, then ``await start()``; ``await wait_closed()`` blocks
    until a ``shutdown`` op, ``max_requests``, or ``await close()``.
    With ``port=0`` the kernel picks a free port (read it back from
    :attr:`address`) — the pattern the in-process bench and the tests
    use.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        max_requests: Optional[int] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.max_requests = max_requests
        self.address: Optional[Tuple[str, int]] = None
        self._served = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: List[asyncio.StreamWriter] = []
        # Queue and event are created in start(): on Python 3.9 they
        # bind the loop current at *construction* time, which would be
        # the wrong one when the server object is built outside
        # asyncio.run().
        self._queue: Optional[
            "asyncio.Queue[Tuple[Optional[bytes], asyncio.StreamWriter]]"
        ] = None
        self._drainer: Optional["asyncio.Task[None]"] = None
        self._closed: Optional[asyncio.Event] = None
        self._shutting_down = False

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._queue = asyncio.Queue()
        self._closed = asyncio.Event()
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connect, path=self.unix_path, limit=LINE_LIMIT
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connect,
                host=self.host,
                port=self.port,
                limit=LINE_LIMIT,
            )
            sockets = self._server.sockets or []
            if sockets:
                sockname = sockets[0].getsockname()
                self.address = (str(sockname[0]), int(sockname[1]))
        self._drainer = asyncio.ensure_future(self._drain_loop())

    async def _on_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assert self._queue is not None  # start() ran before accepting
        self._writers.append(writer)
        try:
            while True:
                try:
                    line = await _read_line(reader)
                except ConnectionError:
                    break
                except asyncio.CancelledError:
                    # Teardown closed us mid-read; exit quietly rather
                    # than let the streams callback log the cancel.
                    break
                if line == b"":
                    break
                await self._queue.put((line, writer))
        finally:
            if writer in self._writers:
                self._writers.remove(writer)
            try:
                if not writer.is_closing():
                    writer.close()
            except ConnectionError:  # pragma: no cover - teardown race
                pass

    async def _drain_loop(self) -> None:
        """Serve batches: everything queued by this tick is one batch.

        The batch's responses are collected per connection in arrival
        order; each connection then gets them in one ``write``, and the
        connections written to are drained after all the writes.
        """
        assert self._queue is not None
        while not self._shutting_down:
            first = await self._queue.get()
            batch = [first]
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self.service.metrics.histogram("serving_batch_size").observe(
                len(batch)
            )
            responses: Dict[asyncio.StreamWriter, List[str]] = {}
            for line, writer in batch:
                responses.setdefault(writer, []).append(self._serve_line(line))
                self._served += 1
                if (
                    self.max_requests is not None
                    and self._served >= self.max_requests
                ):
                    self._shutting_down = True
            touched = [w for w in responses if not w.is_closing()]
            for writer in touched:
                text = "\n".join(responses[writer]) + "\n"
                writer.write(text.encode())
            for writer in touched:
                try:
                    await writer.drain()
                except ConnectionError:  # pragma: no cover - client gone
                    pass
        await self._finish()

    def _serve_line(self, line: Optional[bytes]) -> str:
        """The response to one request line, as JSON text (no newline);
        ``None`` stands for a line over :data:`LINE_LIMIT`."""
        response = self._answer(line)
        try:
            return _encode(response)
        except ValueError as exc:  # a non-finite id (Infinity, 1e400)
            return _encode(
                {"id": None, "ok": False, "error": f"bad id: {exc}"}
            )

    def _answer(self, line: Optional[bytes]) -> Dict[str, Any]:
        if line is None:
            return {
                "id": None,
                "ok": False,
                "error": f"request line longer than {LINE_LIMIT} bytes",
            }
        try:
            request = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # not JSON, not UTF-8, too many digits, nested too deep
            return {"id": None, "ok": False, "error": f"bad JSON: {exc}"}
        if not isinstance(request, dict):
            return {"id": None, "ok": False, "error": "request not an object"}
        if request.get("op") == "shutdown":
            self._shutting_down = True
            return {"id": request.get("id"), "ok": True, "value": "bye"}
        return self.service.handle_request(request)

    async def _finish(self) -> None:
        if self._server is not None:
            self._server.close()
        # Close lingering connections so their handler tasks see EOF
        # and exit before the event loop is torn down.
        for writer in list(self._writers):
            try:
                if not writer.is_closing():
                    writer.close()
            except ConnectionError:  # pragma: no cover - client gone
                pass
        if self._server is not None:
            await self._server.wait_closed()
        if self._closed is not None:
            self._closed.set()

    # ------------------------------------------------------------------
    async def wait_closed(self) -> None:
        """Block until the server has fully shut down."""
        assert self._closed is not None, "start() must run first"
        await self._closed.wait()

    async def close(self) -> None:
        """Graceful external shutdown (flushes nothing mid-batch)."""
        self._shutting_down = True
        if self._drainer is not None and not self._drainer.done():
            self._drainer.cancel()
            try:
                await self._drainer
            except asyncio.CancelledError:
                pass
        await self._finish()
