"""The multiprocess serving tier: N worker processes behind one facade.

BENCH_3 showed the thread-pool batch path is a dead end for this workload:
translation and the in-memory executor are pure-Python CPU work, so under
the GIL four threads deliver *less* than one (memory-backend "speedup"
<1x).  :class:`ProcessQueryService` breaks that wall the only way CPython
allows — separate processes:

* each worker process is initialized **once** with the DTD text and a
  JSON-safe :class:`~repro.api.EngineConfig` dict, builds its own
  :class:`~repro.service.QueryService` (own warmed
  :class:`~repro.core.plancache.PlanCache`, own prepared document stores,
  own process-local metrics registry), and then answers requests from a
  ``multiprocessing`` queue;
* documents are *sharded*: every document id hashes (together with the DTD
  fingerprint) onto ``replicas`` owning workers, and requests route to an
  owner — stores are rebuilt inside each owner rather than shipped,
  because backends may be process-affine
  (:attr:`~repro.backends.base.Backend.process_affine`);
* each worker sizes its cyclic garbage collector for bulk relational
  allocation once at start (:data:`WORKER_GC_THRESHOLD`) and meters every
  collection into ``worker.gc_collections.gen<N>`` / ``worker.gc_seconds``;
* registration ships a document to all its owners at once, and drops it
  again from the owners that built it when another owner failed;
* worker crashes are detected (per-worker receiver threads notice the
  process dying), the worker is respawned, its documents re-registered
  from the recipes the parent retains — with every retained mutation
  script replayed on top, so live documents recover their updated state —
  and the in-flight request retried once;
* workers ship their metrics ``snapshot(include_reservoirs=True)`` home on
  demand and at shutdown, and :meth:`ProcessQueryService.stats` merges
  them with :func:`repro.obs.merge_snapshots`, so counters and latency
  percentiles stay truthful across the fleet.

Only *recipes* ever cross the process boundary: DTD text, config dicts,
query strings, picklable XML trees or :class:`~repro.fuzz.cases.DocumentSpec`
generator knobs, and plain-data :class:`PoolAnswer` results.  Backends,
connections and caches never do.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import itertools
import multiprocessing
import os
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import errors as _errors
from repro import obs
from repro.api.config import EngineConfig
from repro.core.plancache import dtd_fingerprint
from repro.dtd.model import DTD
from repro.errors import (
    ConfigError,
    DuplicateDocumentError,
    MutationError,
    ReproError,
    SessionClosedError,
    UnknownDocumentError,
    WorkerCrashError,
    WorkerError,
)
from repro.fuzz.cases import DocumentSpec
from repro.live.mutations import mutation_to_dict
from repro.xmltree.tree import XMLTree

__all__ = ["PoolAnswer", "ProcessQueryService", "default_start_method"]

#: Generation-0 threshold of a pool worker's cyclic garbage collector.
#: Cold execution allocates row tuples by the hundred thousand, and every
#: collection re-traverses the live relations.  Registering an
#: 8,000-element document on two workers and answering the five paper
#: queries cold took 0.63-0.75 s at CPython's default of 700 (961
#: collections, 7 full, 0.24-0.29 s) and 0.55-0.62 s at 10,000 (65
#: collections, none full, 0.11 s); at 50,000 the 12 collections took the
#: same 0.10-0.11 s.  The collector stays enabled because deleting a subtree leaves cyclic
#: garbage (``XMLNode.parent``), and only workers set it: a library
#: ``QueryService`` leaves its host's collector alone.
WORKER_GC_THRESHOLD = 10_000


def default_start_method() -> str:
    """``fork`` where the platform offers it (fast startup), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


@dataclass(frozen=True)
class PoolAnswer:
    """One answered query, reduced to plain picklable data.

    ``node_ids`` are the matched nodes in document order — the field
    equivalence checks compare.  ``labels``/``values`` carry the rendered
    nodes when the request asked for them (``include_nodes=True``) and are
    ``None`` otherwise, keeping high-volume benchmark traffic lean.
    """

    document_id: str
    query: str
    node_ids: Tuple[int, ...]
    labels: Optional[Tuple[str, ...]]
    values: Optional[Tuple[Optional[str], ...]]
    elapsed_seconds: float
    worker: int

    @property
    def count(self) -> int:
        """Number of matched nodes."""
        return len(self.node_ids)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering (the HTTP front end's response body)."""
        payload: Dict[str, Any] = {
            "document": self.document_id,
            "query": self.query,
            "count": self.count,
            "node_ids": list(self.node_ids),
            "elapsed_seconds": self.elapsed_seconds,
            "worker": self.worker,
        }
        if self.labels is not None:
            payload["labels"] = list(self.labels)
        if self.values is not None:
            payload["values"] = list(self.values)
        return payload


# ---------------------------------------------------------------------------
# Worker process side
# ---------------------------------------------------------------------------


def _answer_one(service, worker_index, document_id, query, include_nodes):
    start = time.perf_counter()
    nodes = service.answer(query, document_id)
    elapsed = time.perf_counter() - start
    obs.registry().histogram("worker.answer_seconds").observe(elapsed)
    return PoolAnswer(
        document_id=document_id,
        query=str(query),
        node_ids=tuple(node.node_id for node in nodes),
        labels=tuple(node.label for node in nodes) if include_nodes else None,
        values=tuple(node.value for node in nodes) if include_nodes else None,
        elapsed_seconds=elapsed,
        worker=worker_index,
    )


class _CollectorMeter:
    """Counts and times the worker's garbage collections.

    ``gc.callbacks`` run inside whatever allocation triggered a collection,
    possibly while that thread holds a metric instrument's lock, so the
    callback only appends to a deque; the worker loop calls :meth:`flush`
    as each message arrives, which moves the records into the registry.
    """

    def __init__(self, registry: obs.MetricsRegistry) -> None:
        self._collections = [
            registry.counter(f"worker.gc_collections.gen{generation}")
            for generation in range(len(gc.get_count()))
        ]
        self._seconds = registry.histogram("worker.gc_seconds")
        self._pending: "collections.deque[Tuple[int, float]]" = collections.deque()
        self._started = 0.0
        gc.callbacks.append(self._observe)

    def _observe(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self._pending.append(
                (info["generation"], time.perf_counter() - self._started)
            )

    def flush(self) -> None:
        pending = self._pending
        while pending:
            generation, seconds = pending.popleft()
            self._collections[generation].inc()
            self._seconds.observe(seconds)


def _worker_main(
    worker_index: int,
    dtd_text: str,
    dtd_name: str,
    config_dict: Dict[str, Any],
    warmup: Tuple[str, ...],
    request_queue,
    response_queue,
) -> None:
    """The worker loop: one process-local engine, requests in, answers out.

    Must stay a module-level function — ``spawn`` pickles the target by
    qualified name and re-imports this module in the child.
    """
    from repro.dtd.parser import parse_dtd
    from repro.service.service import QueryService

    # A fresh process-local registry: under fork the child would otherwise
    # inherit (and double-count) every metric the parent recorded.
    obs.set_registry(obs.MetricsRegistry())
    registry = obs.registry()
    gc.set_threshold(WORKER_GC_THRESHOLD, *gc.get_threshold()[1:])
    collector = _CollectorMeter(registry)
    registry.counter("worker.starts").inc()
    registry.gauge("worker.pid").set(os.getpid())
    dtd = parse_dtd(dtd_text, name=dtd_name)
    service = QueryService(dtd, config=EngineConfig.from_dict(config_dict))
    for query in warmup:
        try:
            service.plan(query)
        except ReproError:
            pass  # warmup is best-effort; real requests report real errors
    while True:
        message = request_queue.get()
        collector.flush()
        kind, request_id = message[0], message[1]
        if kind == "shutdown":
            response_queue.put(
                (request_id, "ok", registry.snapshot(include_reservoirs=True))
            )
            break
        try:
            if kind == "register_tree":
                document_id, tree = message[2], message[3]
                service.register_document(document_id, tree)
                registry.gauge("worker.documents").add(1)
                payload: Any = document_id
            elif kind == "register_spec":
                document_id, spec = message[2], message[3]
                service.register_document(document_id, spec.generate(dtd))
                registry.gauge("worker.documents").add(1)
                payload = document_id
            elif kind == "unregister":
                document_id = message[2]
                service.unregister_document(document_id)
                registry.gauge("worker.documents").add(-1)
                payload = document_id
            elif kind == "answer":
                document_id, query, include_nodes = message[2:5]
                payload = _answer_one(
                    service, worker_index, document_id, query, include_nodes
                )
            elif kind == "batch":
                document_id, queries, include_nodes = message[2:5]
                payload = [
                    _answer_one(
                        service, worker_index, document_id, query, include_nodes
                    )
                    for query in queries
                ]
            elif kind == "update":
                document_id, script = message[2], message[3]
                payload = service.update_document(script, document_id)
            elif kind == "snapshot":
                payload = registry.snapshot(include_reservoirs=True)
            else:
                raise ValueError(f"unknown pool message kind {kind!r}")
        except BaseException as exc:  # ship *every* failure home
            response_queue.put((request_id, "error", type(exc).__name__, str(exc)))
        else:
            response_queue.put((request_id, "ok", payload))
    service.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _Pending:
    """One awaited response slot."""

    __slots__ = ("event", "outcome")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.outcome: Optional[Tuple[str, ...]] = None


class _Worker:
    """Parent-side handle: process + queues + receiver thread + pending map."""

    __slots__ = (
        "index",
        "process",
        "request_queue",
        "response_queue",
        "pending",
        "lock",
        "failed",
        "stopped",
        "final_snapshot",
        "receiver",
    )

    def __init__(self, index: int, context, target_args) -> None:
        self.index = index
        self.request_queue = context.Queue()
        self.response_queue = context.Queue()
        self.pending: Dict[int, _Pending] = {}
        self.lock = threading.Lock()
        self.failed = False
        self.stopped = False
        self.final_snapshot: Optional[Dict[str, Any]] = None
        self.process = context.Process(
            target=_worker_main,
            args=(index, *target_args, self.request_queue, self.response_queue),
            daemon=True,
            name=f"repro-pool-worker-{index}",
        )
        self.process.start()
        self.receiver = threading.Thread(
            target=self._receive_loop, daemon=True, name=f"repro-pool-recv-{index}"
        )
        self.receiver.start()

    def _receive_loop(self) -> None:
        while True:
            try:
                message = self.response_queue.get(timeout=0.05)
            except queue.Empty:
                if self.stopped and not self.pending:
                    return
                if not self.process.is_alive():
                    self._fail_all()
                    return
                continue
            request_id, status = message[0], message[1]
            with self.lock:
                pending = self.pending.pop(request_id, None)
            if pending is not None:
                pending.outcome = message[1:]
                pending.event.set()

    def _fail_all(self) -> None:
        with self.lock:
            self.failed = True
            pending, self.pending = dict(self.pending), {}
        for slot in pending.values():
            slot.outcome = (
                "error",
                "WorkerCrashError",
                f"pool worker {self.index} (pid {self.process.pid}) died "
                f"with exit code {self.process.exitcode}",
            )
            slot.event.set()

    def submit(self, request_id: int, message: Tuple[Any, ...]) -> _Pending:
        pending = _Pending()
        with self.lock:
            if self.failed or self.stopped:
                raise WorkerCrashError(
                    f"pool worker {self.index} is not running"
                )
            self.pending[request_id] = pending
        self.request_queue.put(message)
        return pending


class ProcessQueryService:
    """Answer XPath queries from a pool of worker processes.

    Parameters
    ----------
    dtd:
        The DTD every worker is initialized with (shipped as text).
    config:
        The :class:`~repro.api.EngineConfig` each worker builds its
        :class:`~repro.service.QueryService` from (shipped as its JSON
        dict).  Defaults to ``EngineConfig()``.
    workers:
        Pool size; defaults to the machine's CPU count (capped at 4 so the
        zero-config default stays polite on large hosts).
    replicas:
        How many workers own (and can answer for) each document, clamped
        to ``workers``.  ``1`` shards documents disjointly — maximum
        capacity; ``replicas == workers`` puts every document everywhere —
        maximum parallelism for single-document traffic (what the serving
        benchmark measures).
    start_method:
        ``fork``/``spawn``/``forkserver``; default
        :func:`default_start_method`.
    warmup:
        Queries each worker translates at initialization (and again after
        a respawn), so first requests hit a warm plan cache.
    """

    def __init__(
        self,
        dtd: DTD,
        config: Optional[EngineConfig] = None,
        workers: Optional[int] = None,
        replicas: int = 1,
        start_method: Optional[str] = None,
        warmup: Sequence[str] = (),
    ) -> None:
        if workers is None:
            workers = max(1, min(4, os.cpu_count() or 1))
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {replicas}")
        self._dtd = dtd
        self._config = config or EngineConfig()
        self._replicas = min(replicas, workers)
        self._start_method = start_method or default_start_method()
        self._context = multiprocessing.get_context(self._start_method)
        self._warmup = tuple(str(query) for query in warmup)
        self._fingerprint = dtd_fingerprint(dtd)
        self._target_args = (
            dtd.to_text(),
            dtd.name,
            self._config.to_dict(),
            self._warmup,
        )
        # document id -> (payload kind, payload, owner worker indices)
        self._documents: "OrderedDict[str, Tuple[str, Any, Tuple[int, ...]]]"
        self._documents = OrderedDict()
        # Ids whose registration is in flight: a second registration of the
        # same id fails at once instead of racing the first on the owners.
        self._registering: Set[str] = set()
        # document id -> applied mutation scripts (JSON-safe dicts), in
        # order.  Retained for the document's lifetime: a respawned worker
        # replays registration first, then these scripts, so its rebuilt
        # store converges on the same live state as the surviving replicas.
        self._mutation_log: Dict[str, List[List[Dict[str, Any]]]] = {}
        self._request_ids = itertools.count(1)
        self._lock = threading.Lock()  # guards workers list + registry + close
        self._closed = False
        self._final_snapshots: List[Dict[str, Any]] = []
        self._metrics = obs.MetricsRegistry()  # parent-side, pool-local
        self._workers: List[_Worker] = [
            _Worker(index, self._context, self._target_args)
            for index in range(workers)
        ]

    # -- introspection -----------------------------------------------------------

    @property
    def dtd(self) -> DTD:
        """The DTD the pool answers queries over."""
        return self._dtd

    @property
    def config(self) -> EngineConfig:
        """The configuration every worker engine runs under."""
        return self._config

    @property
    def workers(self) -> int:
        """Number of worker processes."""
        return len(self._workers)

    @property
    def start_method(self) -> str:
        """The multiprocessing start method workers launch with."""
        return self._start_method

    def document_ids(self) -> List[str]:
        """Ids of all registered documents, in registration order."""
        with self._lock:
            return list(self._documents)

    def owners(self, document_id: str) -> Tuple[int, ...]:
        """The worker indices holding ``document_id``'s store."""
        with self._lock:
            try:
                return self._documents[document_id][2]
            except KeyError:
                raise UnknownDocumentError(
                    f"unknown document {document_id!r}"
                ) from None

    # -- registration ------------------------------------------------------------

    def _owner_indices(self, document_id: str) -> Tuple[int, ...]:
        digest = hashlib.sha256(
            f"{self._fingerprint}:{document_id}".encode("utf-8")
        ).hexdigest()
        base = int(digest, 16) % len(self._workers)
        return tuple(
            (base + offset) % len(self._workers) for offset in range(self._replicas)
        )

    def _register(self, document_id: str, kind: str, payload: Any) -> Tuple[int, ...]:
        self._check_open()
        with self._lock:
            if document_id in self._documents or document_id in self._registering:
                raise DuplicateDocumentError(
                    f"document {document_id!r} is already registered"
                )
            self._registering.add(document_id)
        try:
            owner_indices = self._owner_indices(document_id)
            # All owners build their stores at once.  The document is
            # recorded only when every owner succeeded; otherwise the owners
            # that succeeded drop their store again, so a retry can succeed,
            # and the first failure in owner order is raised.
            with ThreadPoolExecutor(max_workers=len(owner_indices)) as executor:
                futures = [
                    executor.submit(self._call, index, kind, document_id, payload)
                    for index in owner_indices
                ]
            failures = [future.exception() for future in futures]
            first = next((exc for exc in failures if exc is not None), None)
            if first is not None:
                for index, failure in zip(owner_indices, failures):
                    if failure is None:
                        try:
                            self._call(index, "unregister", document_id)
                        except ReproError:
                            pass  # a respawned owner lost the store anyway
                raise first
            with self._lock:
                self._documents[document_id] = (kind, payload, owner_indices)
        finally:
            with self._lock:
                self._registering.discard(document_id)
        self._metrics.gauge("pool.documents").add(1)
        return owner_indices

    def register_document(self, document_id: str, tree: XMLTree) -> Tuple[int, ...]:
        """Ship ``tree`` to its owning workers; returns the owner indices."""
        return self._register(document_id, "register_tree", tree)

    def register_generated(
        self, document_id: str, spec: Optional[DocumentSpec] = None
    ) -> Tuple[int, ...]:
        """Register a document by *recipe*: owners regenerate it locally.

        Cheaper than shipping a tree (five ints cross the queue) and the
        form crash-recovery re-registration always uses for spec documents.
        """
        return self._register(document_id, "register_spec", spec or DocumentSpec())

    # -- live updates ------------------------------------------------------------

    def update_document(
        self,
        mutations: Sequence[Any],
        document_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Apply a mutation script to *every* replica owning the document.

        Mutations may be :mod:`repro.live.mutations` records or their JSON
        object forms; the script crosses the queue as plain dicts.  Replica
        consistency holds because workers are deterministic: every owner
        starts from the same registered document and applies the same
        scripts in the same order (updates on one pool serialize through
        this method), so even a script that fails validation mid-way fails
        identically everywhere, leaving every replica with the same applied
        prefix.  Every owner is sent the script even when another one
        failed.  The script joins the retained mutation log when at least
        one owner applied it, or its valid prefix: a respawned owner replays
        registration plus the log and converges on the state of the owners
        that applied it.  A script no owner applied stays out of the log, so
        replaying it cannot stop a respawn.  The first failure in owner
        order is raised once every owner has run.

        Returns the last owner's summary dict plus the owner indices.
        """
        self._check_open()
        document_id = self._resolve_document(document_id)
        script: List[Dict[str, Any]] = [
            mutation if isinstance(mutation, dict) else mutation_to_dict(mutation)
            for mutation in mutations
        ]
        owner_indices = self.owners(document_id)
        start = time.perf_counter()
        summary: Dict[str, Any] = {}
        failure: Optional[Exception] = None
        applied = False
        for index in owner_indices:
            try:
                summary = self._call(index, "update", document_id, script)
            except MutationError as exc:
                applied = True  # its valid prefix stands, on every owner
                failure = failure or exc
            except Exception as exc:  # a crash after the retry, say
                failure = failure or exc
            else:
                applied = True
        if applied:
            with self._lock:
                self._mutation_log.setdefault(document_id, []).append(script)
        self._metrics.counter("pool.updates").inc()
        self._metrics.histogram("pool.update_seconds").observe(
            time.perf_counter() - start
        )
        if failure is not None:
            raise failure
        summary = dict(summary)
        summary["workers"] = list(owner_indices)
        return summary

    # -- request plumbing --------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("process query service is closed")

    def _raise_remote(self, outcome: Tuple[str, ...]) -> None:
        _, name, message = outcome
        if name == "WorkerCrashError":
            raise WorkerCrashError(message)
        exc_class = getattr(_errors, name, None)
        if isinstance(exc_class, type) and issubclass(exc_class, ReproError):
            raise exc_class(message)
        raise WorkerError(f"{name} in pool worker: {message}")

    def _request(self, worker: _Worker, kind: str, *rest: Any) -> Any:
        request_id = next(self._request_ids)
        pending = worker.submit(request_id, (kind, request_id, *rest))
        self._metrics.counter("pool.requests").inc()
        pending.event.wait()
        outcome = pending.outcome
        assert outcome is not None
        if outcome[0] == "ok":
            return outcome[1]
        self._raise_remote(outcome)

    def _call(self, worker_index: int, kind: str, *rest: Any) -> Any:
        """Send one request, respawning the worker and retrying once on a crash."""
        for attempt in (0, 1):
            worker = self._workers[worker_index]
            try:
                return self._request(worker, kind, *rest)
            except WorkerCrashError:
                self._metrics.counter("pool.crashes").inc()
                if attempt or self._closed:
                    raise
                self._respawn(worker_index)

    def _respawn(self, worker_index: int) -> None:
        """Replace a dead worker and rebuild its document stores."""
        with self._lock:
            worker = self._workers[worker_index]
            if not worker.failed and worker.process.is_alive():
                return  # another thread already respawned it
            replacement = _Worker(worker_index, self._context, self._target_args)
            self._workers[worker_index] = replacement
            to_restore = [
                (document_id, kind, payload)
                for document_id, (kind, payload, owner_indices) in self._documents.items()
                if worker_index in owner_indices
            ]
            replay_logs = {
                document_id: list(self._mutation_log.get(document_id, ()))
                for document_id, _, _ in to_restore
            }
        self._metrics.counter("pool.respawns").inc()
        for document_id, kind, payload in to_restore:
            self._request(replacement, kind, document_id, payload)
            for script in replay_logs.get(document_id, ()):
                try:
                    self._request(replacement, "update", document_id, script)
                except MutationError:
                    # A script that failed validation originally fails the
                    # same (deterministic) way on replay; its applied prefix
                    # is what keeps the replica consistent.
                    pass

    def _resolve_document(self, document_id: Optional[str]) -> str:
        with self._lock:
            if document_id is None:
                if len(self._documents) == 1:
                    return next(iter(self._documents))
                raise UnknownDocumentError(
                    f"document_id is required: "
                    f"{len(self._documents)} document(s) registered"
                )
            if document_id not in self._documents:
                known = ", ".join(sorted(self._documents)) or "<none>"
                raise UnknownDocumentError(
                    f"unknown document {document_id!r} (registered: {known})"
                )
            return document_id

    # -- answering ---------------------------------------------------------------

    def answer(
        self,
        query: str,
        document_id: Optional[str] = None,
        include_nodes: bool = True,
    ) -> PoolAnswer:
        """Answer one query on a replica of the owning worker set.

        Among replicas the query text picks the worker, so repeated
        identical queries land on the same (result-cache-warm) engine.
        """
        self._check_open()
        document_id = self._resolve_document(document_id)
        owner_indices = self.owners(document_id)
        chosen = owner_indices[
            int(hashlib.sha256(str(query).encode("utf-8")).hexdigest(), 16)
            % len(owner_indices)
        ]
        start = time.perf_counter()
        answer = self._call(chosen, "answer", document_id, str(query), include_nodes)
        self._metrics.histogram("pool.answer_seconds").observe(
            time.perf_counter() - start
        )
        return answer

    def answer_batch(
        self,
        queries: Sequence[str],
        document_id: Optional[str] = None,
        include_nodes: bool = True,
    ) -> List[PoolAnswer]:
        """Answer many queries, fanned out across the document's replicas.

        Queries are chunked round-robin over the owning workers and
        dispatched concurrently; results come back in input order.  One
        queue round-trip per worker (not per query) keeps IPC overhead
        amortized for large batches.
        """
        self._check_open()
        document_id = self._resolve_document(document_id)
        texts = [str(query) for query in queries]
        if not texts:
            return []
        owner_indices = self.owners(document_id)
        chunks: Dict[int, List[Tuple[int, str]]] = {}
        for position, text in enumerate(texts):
            owner = owner_indices[position % len(owner_indices)]
            chunks.setdefault(owner, []).append((position, text))
        results: List[Optional[PoolAnswer]] = [None] * len(texts)

        def run_chunk(owner: int, chunk: List[Tuple[int, str]]) -> None:
            answers = self._call(
                owner, "batch", document_id, [text for _, text in chunk],
                include_nodes,
            )
            for (position, _), answer in zip(chunk, answers):
                results[position] = answer

        start = time.perf_counter()
        if len(chunks) == 1:
            owner, chunk = next(iter(chunks.items()))
            run_chunk(owner, chunk)
        else:
            with ThreadPoolExecutor(max_workers=len(chunks)) as executor:
                futures = [
                    executor.submit(run_chunk, owner, chunk)
                    for owner, chunk in chunks.items()
                ]
                for future in futures:
                    future.result()
        self._metrics.histogram("pool.batch_seconds").observe(
            time.perf_counter() - start
        )
        return results  # type: ignore[return-value]

    # -- observability -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Pool-wide statistics with *merged* worker metrics.

        Live pools broadcast a snapshot request to every worker; closed
        pools merge the final snapshots collected at shutdown.  Either
        way counters sum and histogram percentiles are recomputed over the
        concatenated reservoirs (:func:`repro.obs.merge_snapshots`).
        """
        if self._closed:
            worker_snapshots = list(self._final_snapshots)
        else:
            worker_snapshots = [
                self._call(index, "snapshot") for index in range(len(self._workers))
            ]
        merged = obs.merge_snapshots(
            worker_snapshots + [self._metrics.snapshot(include_reservoirs=True)]
        )
        with self._lock:
            documents = {
                document_id: list(owner_indices)
                for document_id, (_, _, owner_indices) in self._documents.items()
            }
        return {
            "workers": len(self._workers),
            "replicas": self._replicas,
            "start_method": self._start_method,
            "closed": self._closed,
            "documents": documents,
            "metrics": merged,
        }

    # -- lifecycle ---------------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Drain and stop every worker, keeping their final metric snapshots."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        for worker in workers:
            try:
                snapshot = self._request(worker, "shutdown")
                self._final_snapshots.append(snapshot)
            except (WorkerCrashError, WorkerError):
                pass  # already dead: nothing to collect
            with worker.lock:
                worker.stopped = True
        for worker in workers:
            worker.process.join(timeout=timeout)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=timeout)

    def _kill_worker(self, worker_index: int) -> None:
        """Test hook: kill a worker abruptly (simulates a crash)."""
        self._workers[worker_index].process.kill()
        self._workers[worker_index].process.join(timeout=10)

    def __enter__(self) -> "ProcessQueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ProcessQueryService(dtd={self._dtd.name!r}, "
            f"workers={len(self._workers)}, replicas={self._replicas}, "
            f"start_method={self._start_method!r}, "
            f"documents={self.document_ids()})"
        )
