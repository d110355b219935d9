"""The asyncio HTTP/JSON front end over the multiprocess serving tier.

Stdlib-only by design (the whole repository is dependency-free): a small
hand-rolled HTTP/1.1 server on :func:`asyncio.start_server` in front of a
:class:`~repro.service.pool.ProcessQueryService`.  The event loop does what
event loops are good at — thousands of concurrent keep-alive connections —
while the actual CPU work happens in the worker processes.  ``/answer``
awaits :meth:`~repro.service.pool.ProcessQueryService.submit_answer`'s
future, which a pool reader thread resolves, so no thread waits per
request; ``/batch``, ``/update``, ``/stats`` and the retry of an ``/answer``
whose worker crashed run blocking pool calls in :func:`asyncio.to_thread`.

Routes
------
``POST /answer``
    ``{"query": str, "document": str?, "include_nodes": bool?}`` →
    one :meth:`~repro.service.pool.PoolAnswer.to_dict` body.
``POST /batch``
    ``{"queries": [str, ...], "document": str?}`` → ``{"answers": [...]}``.
``POST /update``
    ``{"mutations": [<mutation object>, ...], "document": str?}`` — apply a
    live-document mutation script (see
    :func:`repro.live.mutations.mutation_from_dict` for the object forms)
    to every replica owning the document; responds with the delta summary
    (``applied``, ``rows_deleted``, ``rows_inserted``, ``workers``).
    Invalid mutations are 400s (:class:`~repro.errors.MutationError`).
``GET /stats``
    ``{"http": <server metrics>, "pool": <pool stats>}`` — the pool side
    is merged across workers (:func:`repro.obs.merge_snapshots`).
``GET /meta``
    Everything a client needs to rebuild a local oracle: DTD text + name,
    the engine config dict, and each document's generator recipe (or
    ``null`` for documents registered as trees).
``GET /healthz``
    Liveness probe for CI and load balancers.

:func:`run_loadtest` is the matching load generator: it reads ``/meta``,
rebuilds a *serial* :class:`~repro.service.QueryService` oracle locally,
drives ``concurrency`` keep-alive sessions of schema-guided fuzz queries
(:class:`~repro.fuzz.xpath_gen.RandomXPathGenerator`) and verifies every
response node-for-node against the oracle — the cross-engine mismatch
count is the acceptance gate, not just the latency numbers.

Errors map onto transport-appropriate statuses: unknown documents are 404,
any other :class:`~repro.errors.ReproError` (bad query, bad payload) is
400, unexpected failures are 500; the JSON body always carries
``{"error": <type>, "message": <str>}``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import asdict, is_dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import ReproError, UnknownDocumentError, WorkerCrashError
from repro.service.pool import PoolAnswer, ProcessQueryService

__all__ = ["QueryHTTPServer", "run_loadtest"]

_MAX_BODY = 8 * 1024 * 1024  # bytes; a batch of thousands of queries fits
_MAX_HEADERS = 100  # header lines per request; the load client sends 3
_MAX_IN_FLIGHT = 32  # requests waiting on the pool at once; the rest queue


class _BadRequest(Exception):
    """Malformed HTTP framing or JSON (mapped to 400)."""


def _json_response(status: int, payload: Any, keep_alive: bool) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error"}
    head = (
        f"HTTP/1.1 {status} {reason.get(status, 'Status')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:
        # StreamReader's limit (64 KiB) overran before a newline arrived.
        raise _BadRequest("request line or header line too long") from None


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed connection.

    The head is bounded: an over-long line or more than
    :data:`_MAX_HEADERS` header lines is a :class:`_BadRequest`.
    """
    line = await _read_line(reader)
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise _BadRequest(f"malformed request line: {line!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        raw = await _read_line(reader)
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _BadRequest(f"more than {_MAX_HEADERS} header lines")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _BadRequest("bad Content-Length") from None
    if not 0 <= length <= _MAX_BODY:
        raise _BadRequest(f"Content-Length {length} out of bounds")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


def _parse_json_body(body: bytes) -> Dict[str, Any]:
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise _BadRequest(f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    return payload


class QueryHTTPServer:
    """Serve a :class:`ProcessQueryService` over HTTP/JSON.

    The server never owns the pool's lifecycle by default — callers build
    the pool (register documents, warm plans), hand it over, and the CLI
    wrapper closes both.  ``port=0`` binds an ephemeral port; the bound
    port is on :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        pool: ProcessQueryService,
        host: str = "127.0.0.1",
        port: int = 8080,
    ) -> None:
        self.pool = pool
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._in_flight: Optional[asyncio.Semaphore] = None  # bound in start()
        self._metrics = obs.MetricsRegistry()  # server-local, merged in /stats
        self._stop = threading.Event()

    # -- request handling --------------------------------------------------------

    async def _call_pool(self, func: Callable[..., Any], *args: Any) -> Any:
        async with self._in_flight:  # type: ignore[union-attr]
            return await asyncio.to_thread(func, *args)

    async def _answer(self, *args: Any) -> PoolAnswer:
        async with self._in_flight:  # type: ignore[union-attr]
            try:
                return await asyncio.wrap_future(self.pool.submit_answer(*args))
            except WorkerCrashError:  # answer() respawns the worker and retries
                return await asyncio.to_thread(self.pool.answer, *args)

    def _meta(self) -> Dict[str, Any]:
        documents: Dict[str, Any] = {}
        for document_id in self.pool.document_ids():
            kind, payload, _owners = self.pool._documents[document_id]
            documents[document_id] = (
                asdict(payload)
                if kind == "register_spec" and is_dataclass(payload)
                else None
            )
        return {
            "dtd_name": self.pool.dtd.name,
            "dtd_text": self.pool.dtd.to_text(),
            "config": self.pool.config.to_dict(),
            "workers": self.pool.workers,
            "documents": documents,
        }

    async def _dispatch(self, method: str, target: str, body: bytes) -> Tuple[int, Any]:
        target = target.split("?", 1)[0]
        if method == "GET" and target == "/healthz":
            return 200, {"status": "ok"}
        if method == "GET" and target == "/stats":
            pool_stats = await self._call_pool(self.pool.stats)
            return 200, {
                "http": self._metrics.snapshot(),
                "pool": pool_stats,
            }
        if method == "GET" and target == "/meta":
            return 200, self._meta()
        if method == "POST" and target == "/answer":
            payload = _parse_json_body(body)
            query = payload.get("query")
            if not isinstance(query, str):
                raise _BadRequest("'query' (string) is required")
            answer = await self._answer(
                query,
                payload.get("document"),
                bool(payload.get("include_nodes", True)),
            )
            return 200, answer.to_dict()
        if method == "POST" and target == "/batch":
            payload = _parse_json_body(body)
            queries = payload.get("queries")
            if not isinstance(queries, list) or not all(
                isinstance(query, str) for query in queries
            ):
                raise _BadRequest("'queries' (list of strings) is required")
            answers = await self._call_pool(
                self.pool.answer_batch,
                queries,
                payload.get("document"),
                bool(payload.get("include_nodes", True)),
            )
            return 200, {"answers": [answer.to_dict() for answer in answers]}
        if method == "POST" and target == "/update":
            payload = _parse_json_body(body)
            mutations = payload.get("mutations")
            if not isinstance(mutations, list) or not all(
                isinstance(mutation, dict) for mutation in mutations
            ):
                raise _BadRequest("'mutations' (list of objects) is required")
            summary = await self._call_pool(
                self.pool.update_document,
                mutations,
                payload.get("document"),
            )
            self._metrics.counter("http.updates").inc()
            return 200, summary
        return 404, {"error": "NotFound", "message": f"no route {method} {target}"}

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                except _BadRequest as exc:
                    writer.write(
                        _json_response(
                            400,
                            {"error": "BadRequest", "message": str(exc)},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                method, target, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                started = time.perf_counter()
                self._metrics.counter("http.requests").inc()
                try:
                    status, payload = await self._dispatch(method, target, body)
                except _BadRequest as exc:
                    status, payload = 400, {"error": "BadRequest", "message": str(exc)}
                except UnknownDocumentError as exc:
                    status, payload = 404, {
                        "error": type(exc).__name__,
                        "message": str(exc),
                    }
                except ReproError as exc:
                    status, payload = 400, {
                        "error": type(exc).__name__,
                        "message": str(exc),
                    }
                except Exception as exc:  # noqa: BLE001 - must answer something
                    status, payload = 500, {
                        "error": type(exc).__name__,
                        "message": str(exc),
                    }
                if status != 200:
                    self._metrics.counter("http.failures").inc()
                self._metrics.histogram("http.latency_seconds").observe(
                    time.perf_counter() - started
                )
                writer.write(_json_response(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port` when ephemeral."""
        self._in_flight = asyncio.Semaphore(_MAX_IN_FLIGHT)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def request_stop(self) -> None:
        """Thread/signal-safe: ask a blocking :meth:`run` to return."""
        self._stop.set()

    async def _run_async(self, ready: Optional[Callable[[str], None]]) -> None:
        await self.start()
        if ready is not None:
            ready(f"http://{self.host}:{self.port}")
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self._stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without signal support
        while not self._stop.is_set():
            await asyncio.sleep(0.1)
        await self.stop()

    def run(self, ready: Optional[Callable[[str], None]] = None) -> None:
        """Serve until SIGINT/SIGTERM (or :meth:`request_stop`)."""
        asyncio.run(self._run_async(ready))


# ---------------------------------------------------------------------------
# Load generator
# ---------------------------------------------------------------------------


class _Client:
    """One keep-alive HTTP/1.1 connection with a tiny JSON request helper."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.timeout
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass
            self.reader = self.writer = None

    async def _round_trip(self, raw: bytes) -> Tuple[int, Any]:
        assert self.reader is not None and self.writer is not None
        self.writer.write(raw)
        await self.writer.drain()
        status_line = await asyncio.wait_for(self.reader.readline(), self.timeout)
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            header = await asyncio.wait_for(self.reader.readline(), self.timeout)
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        body = await asyncio.wait_for(self.reader.readexactly(length), self.timeout)
        return status, json.loads(body.decode("utf-8")) if body else None

    async def request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Any]:
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        raw = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n"
            "\r\n"
        ).encode("latin-1") + body
        if self.reader is None:
            await self.connect()
        try:
            return await self._round_trip(raw)
        except (ConnectionError, asyncio.IncompleteReadError):
            # One transparent reconnect: the server may have dropped an
            # idle keep-alive connection between requests.
            await self.close()
            await self.connect()
            return await self._round_trip(raw)


def _percentile_ms(ordered: List[float], fraction: float) -> Optional[float]:
    if not ordered:
        return None
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[int(rank)] * 1000.0


def run_loadtest(
    host: str,
    port: int,
    budget: int = 1000,
    concurrency: int = 50,
    seed: int = 0,
    query_pool: int = 40,
    verify: bool = True,
    timeout: float = 30.0,
) -> Dict[str, Any]:
    """Drive ``budget`` fuzz-generated requests at a live ``repro serve``.

    ``concurrency`` keep-alive sessions pull work from one shared budget,
    each request answering a schema-guided random XPath query on a random
    registered document.  With ``verify=True`` (the default) every
    response is checked node-for-node against a locally rebuilt serial
    :class:`~repro.service.QueryService` — the zero-mismatch guarantee the
    acceptance criteria demand.  Returns the report dict (also the JSON
    printed by ``repro loadtest``).
    """
    import random

    from repro.dtd.parser import parse_dtd
    from repro.fuzz.cases import DocumentSpec
    from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig
    from repro.service.service import QueryService
    from repro.api.config import EngineConfig

    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")

    async def _run() -> Dict[str, Any]:
        meta_client = _Client(host, port, timeout)
        status, meta = await meta_client.request("GET", "/meta")
        await meta_client.close()
        if status != 200:
            raise RuntimeError(f"GET /meta failed with {status}: {meta}")

        dtd = parse_dtd(meta["dtd_text"], name=meta["dtd_name"])
        queries = RandomXPathGenerator(
            dtd, XPathGenConfig(seed=seed)
        ).queries(query_pool)
        document_ids = sorted(meta["documents"])
        if not document_ids:
            raise RuntimeError("server has no registered documents")

        oracle = None
        expected: Dict[Tuple[str, str], List[int]] = {}
        verifiable_ids = document_ids
        if verify:
            oracle = QueryService(
                dtd, config=EngineConfig.from_dict(meta["config"])
            )
            verifiable_ids = []
            for document_id in document_ids:
                spec_dict = meta["documents"][document_id]
                if spec_dict is None:
                    continue  # registered as a tree: recipe unknown, skip
                oracle.register_document(
                    document_id, DocumentSpec(**spec_dict).generate(dtd)
                )
                verifiable_ids.append(document_id)
            if not verifiable_ids:
                raise RuntimeError(
                    "verify=True but no document has a generator recipe; "
                    "rerun with verify=False"
                )

        def expected_ids(document_id: str, query: str) -> List[int]:
            key = (document_id, query)
            if key not in expected:
                expected[key] = list(oracle.execute(query, document_id).node_ids())
            return expected[key]

        remaining = {"count": budget}
        latencies: List[float] = []
        failures: List[str] = []
        mismatches: List[str] = []
        lock = asyncio.Lock()

        async def session(index: int) -> None:
            rng = random.Random(f"{seed}:{index}")
            client = _Client(host, port, timeout)
            try:
                await client.connect()
                while True:
                    async with lock:
                        if remaining["count"] <= 0:
                            return
                        remaining["count"] -= 1
                    document_id = rng.choice(verifiable_ids)
                    query = rng.choice(queries)
                    started = time.perf_counter()
                    try:
                        status, payload = await client.request(
                            "POST",
                            "/answer",
                            {
                                "query": query,
                                "document": document_id,
                                "include_nodes": False,
                            },
                        )
                    except Exception as exc:  # noqa: BLE001
                        failures.append(f"{type(exc).__name__}: {exc}")
                        continue
                    latencies.append(time.perf_counter() - started)
                    if status != 200:
                        failures.append(f"HTTP {status}: {payload}")
                        continue
                    if verify and payload["node_ids"] != expected_ids(
                        document_id, query
                    ):
                        mismatches.append(
                            f"{document_id} {query!r}: "
                            f"server={payload['node_ids']} "
                            f"oracle={expected_ids(document_id, query)}"
                        )
            finally:
                await client.close()

        started = time.perf_counter()
        await asyncio.gather(*(session(index) for index in range(concurrency)))
        elapsed = time.perf_counter() - started
        if oracle is not None:
            oracle.close()

        ordered = sorted(latencies)
        completed = len(latencies)
        return {
            "budget": budget,
            "concurrency": concurrency,
            "seed": seed,
            "verified": bool(verify),
            "documents": len(verifiable_ids),
            "query_pool": len(queries),
            "requests": completed,
            "failures": len(failures),
            "failure_samples": failures[:5],
            "mismatches": len(mismatches),
            "mismatch_samples": mismatches[:5],
            "elapsed_seconds": elapsed,
            "rps": (completed / elapsed) if elapsed > 0 else None,
            "p50_ms": _percentile_ms(ordered, 0.50),
            "p99_ms": _percentile_ms(ordered, 0.99),
            "ok": not failures and not mismatches and completed == budget,
        }

    return asyncio.run(_run())
