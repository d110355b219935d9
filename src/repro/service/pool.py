"""The multiprocess serving tier: N worker processes behind one facade.

* each worker process is initialized **once** with the DTD text and a
  JSON-safe :class:`~repro.api.EngineConfig` dict, builds its own
  :class:`~repro.service.QueryService` (own warmed
  :class:`~repro.core.plancache.PlanCache`, own prepared document stores,
  own process-local metrics registry), and then answers requests in
  arrival order from its end of one duplex ``multiprocessing`` pipe;
* callers send on the parent's end under a per-worker lock, and one reader
  thread per worker resolves a :class:`concurrent.futures.Future` per
  request id; a fan-out sends to every worker before it waits on any;
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
* updates hold one lock from sending a script to every owner to logging
  it, so all owners apply scripts in the mutation log's order;
* worker crashes are detected (end of file on the worker's pipe fails
  every request pending on it), the worker is respawned, its documents
  re-registered from the recipes the parent retains — with every retained
  mutation script replayed on top, so live documents recover their
  updated state — and the in-flight request retried once;
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
import contextlib
import functools
import gc
import hashlib
import itertools
import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler
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

    ``node_ids`` is the backend's answer as is (see
    :meth:`~repro.backends.base.BackendResult.node_ids`) — the field
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
    node_ids = service.execute(query, document_id).node_ids()
    labels = values = None
    if include_nodes:
        nodes = service.store(document_id).shredded.nodes_for_ids(node_ids)
        labels = tuple(node.label for node in nodes)
        values = tuple(node.value for node in nodes)
    elapsed = time.perf_counter() - start
    obs.registry().histogram("worker.answer_seconds").observe(elapsed)
    return PoolAnswer(
        document_id=document_id,
        query=str(query),
        node_ids=node_ids,
        labels=labels,
        values=values,
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
    connection,
) -> None:
    """The worker loop: one process-local engine, requests in, replies out.

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
        try:
            kind, request_id, *args = connection.recv()
        except EOFError:
            break  # the parent is gone
        collector.flush()
        try:
            if kind in ("register_tree", "register_spec"):
                document_id, source = args
                tree = source if kind == "register_tree" else source.generate(dtd)
                service.register_document(document_id, tree)
                registry.gauge("worker.documents").add(1)
                payload: Any = document_id
            elif kind == "unregister":
                service.unregister_document(args[0])
                registry.gauge("worker.documents").add(-1)
                payload = args[0]
            elif kind == "answer":
                payload = _answer_one(service, worker_index, *args)
            elif kind == "batch":
                document_id, queries, include_nodes = args
                payload = [
                    _answer_one(
                        service, worker_index, document_id, query, include_nodes
                    )
                    for query in queries
                ]
            elif kind == "update":
                document_id, script = args
                payload = service.update_document(script, document_id)
            elif kind in ("snapshot", "shutdown"):
                payload = registry.snapshot(include_reservoirs=True)
            else:
                raise ValueError(f"unknown pool message kind {kind!r}")
        except BaseException as exc:  # ship *every* failure home
            connection.send((request_id, "error", type(exc).__name__, str(exc)))
        else:
            connection.send((request_id, "ok", payload))
        if kind == "shutdown":
            break
    service.close()
    connection.close()


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def _remote_error(name: str, message: str) -> ReproError:
    """The parent-side exception for a failure a worker shipped home."""
    exc_class = getattr(_errors, name, None)
    if isinstance(exc_class, type) and issubclass(exc_class, ReproError):
        return exc_class(message)
    return WorkerError(f"{name} in pool worker: {message}")


def _raise_first(failures: Sequence[Optional[Exception]]) -> None:
    for failure in failures:
        if failure is not None:
            raise failure


class _Worker:
    """Parent-side handle: a worker process and the parent's end of its pipe.

    Callers send under :attr:`send_lock`; the reader thread resolves each
    reply's future and, at end of file, fails every pending one.  It never
    sends, takes :attr:`send_lock` or respawns, so it keeps draining replies
    while a caller is blocked sending a request the pipe cannot hold.
    """

    def __init__(self, index: int, context, target_args) -> None:
        self.index = index
        self.send_lock = threading.Lock()
        self.lock = threading.Lock()  # guards pending and failed
        self.pending: Dict[int, "Future[Any]"] = {}
        self.failed = False
        self._ids = itertools.count(1)
        self.connection, child_end = context.Pipe()
        self.process = context.Process(
            target=_worker_main,
            args=(index, *target_args, child_end),
            daemon=True,
            name=f"repro-pool-worker-{index}",
        )
        self.process.start()
        child_end.close()  # now end of file on ours means the worker is gone
        self.reader = threading.Thread(
            target=self._read_replies, daemon=True, name=f"repro-pool-reader-{index}"
        )
        self.reader.start()

    def _read_replies(self) -> None:
        try:
            while True:
                request_id, status, *reply = self.connection.recv()
                with self.lock:
                    future = self.pending.pop(request_id)
                if status == "ok":
                    future.set_result(reply[0])
                else:
                    future.set_exception(_remote_error(*reply))
        except (EOFError, OSError):
            pass  # the worker exited, or its pipe was closed
        finally:
            with self.lock:
                self.failed = True
                pending, self.pending = self.pending, {}
            for future in pending.values():
                future.set_exception(self._crash())

    def _crash(self) -> WorkerCrashError:
        return WorkerCrashError(
            f"pool worker {self.index} (pid {self.process.pid}) died "
            f"with exit code {self.process.exitcode}"
        )

    def submit(self, kind: str, *rest: Any) -> "Future[Any]":
        """Send one request; the future resolves to the worker's reply."""
        request_id = next(self._ids)
        # Pickled first, so a payload that cannot cross fails this call alone.
        data = ForkingPickler.dumps((kind, request_id, *rest))
        future: "Future[Any]" = Future()
        future.set_running_or_notify_cancel()  # only the reply may finish it
        with self.lock:
            if self.failed:
                future.set_exception(self._crash())
                return future
            self.pending[request_id] = future
        # A dead worker's reader fails the request at end of file.
        with self.send_lock, contextlib.suppress(OSError):
            self.connection.send_bytes(data)
        return future

    def close(self, timeout: float) -> None:
        """Reap the process, then close the pipe once the reader is done."""
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        self.reader.join(timeout)
        with self.send_lock:
            self.connection.close()


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
        self._fingerprint = dtd_fingerprint(dtd)
        self._target_args = (
            dtd.to_text(),
            dtd.name,
            self._config.to_dict(),
            tuple(str(query) for query in warmup),
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
        self._lock = threading.Lock()  # guards workers list + registry + close
        # Orders updates and respawn replays; reentrant, as an update that
        # meets a crashed owner respawns it.
        self._update_lock = threading.RLock()
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
        return self._resolve_document(document_id)[1]

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
            _, failures = self._fan_out(
                [(index, kind, document_id, payload) for index in owner_indices]
            )
            if any(failure is not None for failure in failures):
                self._fan_out(
                    [
                        (index, "unregister", document_id)
                        for index, failure in zip(owner_indices, failures)
                        if failure is None
                    ]
                )
                _raise_first(failures)
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

        Cheaper than shipping a tree (five ints cross the pipe) and the
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
        object forms.  Workers are deterministic, and every owner applies
        the scripts in the mutation log's order (one lock, which reads do
        not take, spans sending a script to every owner, waiting for each
        and logging it), so even a script that fails validation mid-way
        leaves every replica with the same applied prefix.  The script is
        logged when at least one owner applied it, or its valid prefix, so
        a respawned owner that replays registration plus the log converges
        on the others' state; one no owner applied stays out of the log.
        The first failure in owner order is raised once every owner ran.

        Returns the last owner's summary dict plus the owner indices.
        """
        from repro.live.mutations import mutation_to_dict

        self._check_open()
        document_id, owner_indices = self._resolve_document(document_id)
        script: List[Dict[str, Any]] = [
            mutation if isinstance(mutation, dict) else mutation_to_dict(mutation)
            for mutation in mutations
        ]
        with self._update_lock:
            start = time.perf_counter()
            summaries, failures = self._fan_out(
                [(index, "update", document_id, script) for index in owner_indices]
            )
            if any(
                failure is None or isinstance(failure, MutationError)
                for failure in failures
            ):
                with self._lock:
                    self._mutation_log.setdefault(document_id, []).append(script)
        self._metrics.counter("pool.updates").inc()
        self._observe("pool.update_seconds", start)
        _raise_first(failures)
        summary = dict(summaries[-1])
        summary["workers"] = list(owner_indices)
        return summary

    # -- request plumbing --------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("process query service is closed")

    def _observe(self, histogram: str, start: float, done: Any = None) -> None:
        if done is None or done.exception() is None:  # time successes only
            self._metrics.histogram(histogram).observe(time.perf_counter() - start)

    def _submit(self, worker_index: int, kind: str, *rest: Any) -> "Future[Any]":
        """Send one request to a worker; the future resolves to its reply."""
        self._metrics.counter("pool.requests").inc()
        return self._workers[worker_index].submit(kind, *rest)

    def _wait(
        self, future: "Future[Any]", worker_index: int, kind: str, *rest: Any
    ) -> Any:
        """A submitted request's reply; after a crash, respawn and send it once more."""
        for attempt in (0, 1):
            try:
                return future.result()
            except WorkerCrashError:
                self._metrics.counter("pool.crashes").inc()
                if attempt or self._closed:
                    raise
            self._respawn(worker_index)
            future = self._submit(worker_index, kind, *rest)

    def _call(self, worker_index: int, kind: str, *rest: Any) -> Any:
        """Send one request and wait; after a crash, respawn the worker and retry."""
        future = self._submit(worker_index, kind, *rest)
        return self._wait(future, worker_index, kind, *rest)

    def _request(self, worker: _Worker, kind: str, *rest: Any) -> Any:
        """Send one request to ``worker`` and wait for the reply, with no retry."""
        self._metrics.counter("pool.requests").inc()
        return worker.submit(kind, *rest).result()

    def _fan_out(
        self, requests: Sequence[Tuple[Any, ...]]
    ) -> Tuple[List[Any], List[Optional[Exception]]]:
        """Send each ``(index, kind, *rest)`` request, then wait: replies, failures."""
        futures = [self._submit(*request) for request in requests]
        replies: List[Any] = []
        failures: List[Optional[Exception]] = []
        for request, future in zip(requests, futures):
            try:
                replies.append(self._wait(future, *request))
                failures.append(None)
            except Exception as exc:  # noqa: BLE001 - the caller raises it
                replies.append(None)
                failures.append(exc)
        return replies, failures

    def _respawn(self, worker_index: int) -> None:
        """Replace a dead worker and rebuild its stores, under the update lock."""
        with self._update_lock:
            worker = self._workers[worker_index]
            if not worker.failed and worker.process.is_alive():
                return  # another thread already respawned it
            replacement = _Worker(worker_index, self._context, self._target_args)
            with self._lock:
                self._workers[worker_index] = replacement
                log = self._mutation_log
                to_restore = [
                    (document_id, kind, payload, list(log.get(document_id, ())))
                    for document_id, (kind, payload, owners) in self._documents.items()
                    if worker_index in owners
                ]
            worker.close(timeout=10.0)
            self._metrics.counter("pool.respawns").inc()
            for document_id, kind, payload, scripts in to_restore:
                self._request(replacement, kind, document_id, payload)
                for script in scripts:
                    try:
                        self._request(replacement, "update", document_id, script)
                    except MutationError:
                        # A script that failed validation originally fails
                        # the same (deterministic) way on replay; its
                        # applied prefix keeps the replica consistent.
                        pass

    def _resolve_document(
        self, document_id: Optional[str]
    ) -> Tuple[str, Tuple[int, ...]]:
        """The document id (the sole one when ``None``) and its owners."""
        with self._lock:
            if document_id is None:
                if len(self._documents) != 1:
                    raise UnknownDocumentError(
                        f"document_id is required: "
                        f"{len(self._documents)} document(s) registered"
                    )
                document_id = next(iter(self._documents))
            if document_id not in self._documents:
                known = ", ".join(sorted(self._documents)) or "<none>"
                raise UnknownDocumentError(
                    f"unknown document {document_id!r} (registered: {known})"
                )
            return document_id, self._documents[document_id][2]

    # -- answering ---------------------------------------------------------------

    def _route(
        self, query: str, document_id: Optional[str], include_nodes: bool
    ) -> Tuple[Any, ...]:
        """The request that answers ``query``: the replica's index first.

        Among replicas the query text picks the worker, so repeated
        identical queries land on the same (result-cache-warm) engine.
        """
        self._check_open()
        document_id, owner_indices = self._resolve_document(document_id)
        text = str(query)
        digest = int(hashlib.sha256(text.encode("utf-8")).hexdigest(), 16)
        chosen = owner_indices[digest % len(owner_indices)]
        return chosen, "answer", document_id, text, include_nodes

    def answer(
        self,
        query: str,
        document_id: Optional[str] = None,
        include_nodes: bool = True,
    ) -> PoolAnswer:
        """Answer one query on a replica of the owning worker set."""
        request = self._route(query, document_id, include_nodes)
        start = time.perf_counter()
        answer = self._wait(self._submit(*request), *request)
        self._observe("pool.answer_seconds", start)
        return answer

    def submit_answer(
        self,
        query: str,
        document_id: Optional[str] = None,
        include_nodes: bool = True,
    ) -> "Future[PoolAnswer]":
        """Send :meth:`answer`'s request; return its future without waiting.

        An event loop can await it (:func:`asyncio.wrap_future`) with no
        thread parked; only a full pipe blocks this call.  A crash fails it
        with :class:`~repro.errors.WorkerCrashError`, unretried.
        """
        request = self._route(query, document_id, include_nodes)
        start = time.perf_counter()
        future = self._submit(*request)
        future.add_done_callback(
            functools.partial(self._observe, "pool.answer_seconds", start)
        )
        return future

    def answer_batch(
        self,
        queries: Sequence[str],
        document_id: Optional[str] = None,
        include_nodes: bool = True,
    ) -> List[PoolAnswer]:
        """Answer many queries, fanned out across the document's replicas.

        Queries are chunked round-robin over the owning workers, every
        chunk is sent before any reply is awaited, and results come back
        in input order.  One round trip per worker (not per query) keeps
        IPC overhead amortized for large batches.
        """
        self._check_open()
        document_id, owner_indices = self._resolve_document(document_id)
        texts = [str(query) for query in queries]
        if not texts:
            return []
        stride = len(owner_indices)
        start = time.perf_counter()
        replies, failures = self._fan_out(
            [
                (owner, "batch", document_id, texts[offset::stride], include_nodes)
                for offset, owner in enumerate(owner_indices[: len(texts)])
            ]
        )
        _raise_first(failures)
        results: List[Any] = [None] * len(texts)
        for offset, answers in enumerate(replies):
            results[offset::stride] = answers
        self._observe("pool.batch_seconds", start)
        return results

    # -- observability -----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Pool-wide statistics with *merged* worker metrics.

        Live pools send a snapshot request to every worker at once; closed
        pools merge the final snapshots collected at shutdown.  Either
        way counters sum and histogram percentiles are recomputed over the
        concatenated reservoirs (:func:`repro.obs.merge_snapshots`).
        """
        if self._closed:
            worker_snapshots = list(self._final_snapshots)
        else:
            worker_snapshots, failures = self._fan_out(
                [(index, "snapshot") for index in range(len(self._workers))]
            )
            _raise_first(failures)
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
        snapshots, failures = self._fan_out(
            [(index, "shutdown") for index in range(len(self._workers))]
        )
        # A worker that is already dead has nothing to collect.
        self._final_snapshots = [s for s, f in zip(snapshots, failures) if f is None]
        for worker in self._workers:
            worker.close(timeout)

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
