""":class:`QueryService` — answer XPath queries over long-lived documents.

One service owns one DTD (plus strategy/options/mapping) and any number of
registered documents.  Against the stateless one-shot path
(:func:`repro.core.pipeline.answer_xpath`) it changes three things:

* **plans are cached** — an LRU :class:`~repro.core.plancache.PlanCache`
  sits behind the translator (the :class:`~repro.core.pipeline.XPathToSQLTranslator`
  ``plan_cache`` hook), keyed by DTD fingerprint × canonical query ×
  (resolved) strategy × options × dialect × optimizer level, so a repeated
  query skips both translation steps and the optimizer passes;
* **documents are stores, not arguments** — :meth:`register_document`
  shreds a document once and keeps its execution backend loaded (the
  in-memory relations stay resident; the SQLite store keeps a persistent
  connection with DDL applied and rows bulk-loaded exactly once), and every
  store memoizes the *prepared* form of each plan it has executed;
* **results are cached too** — a registered document only changes through
  :meth:`QueryService.update_document`, so each store keeps a bounded LRU
  of (plan key -> backend result): answering a repeated query over the
  same document is a lookup, not an execution.  An update drops the
  store's result LRU (version-aware invalidation) but keeps plans and
  prepared programs, which depend only on the DTD.  This is the layer that
  makes warm serving fast; disable it with ``result_cache=False`` to
  measure the plan cache alone;
* **answering is thread-safe** — the plan cache and store registry take
  locks only around dictionary operations, the memory engine's reads are
  lock-free, and the SQLite backend hands each thread its own connection,
  so :meth:`answer_batch` can fan a workload out over a thread pool.

The cache is semantically invisible: for any query, document and
configuration, :meth:`answer` returns node-for-node what a fresh
translator-plus-shred would (the property suite pins this).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Union

from repro import obs
from repro.api.config import EngineConfig, resolve_engine_config
from repro.backends import create_backend
from repro.backends.base import Backend, BackendResult, PreparedProgram
from repro.core.expath_to_sql import TranslationOptions
from repro.core.pipeline import QueryLike, TranslationResult, XPathToSQLTranslator
from repro.core.plancache import CacheInfo, PlanCache, PlanKey
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd.model import DTD
from repro.errors import (
    ConfigError,
    DuplicateDocumentError,
    MutationError,
    SessionClosedError,
    UnknownDocumentError,
)
from repro.live.delta import ShredDelta, merge_deltas
from repro.live.mutations import DocumentMutator, Mutation, mutation_from_dict
from repro.shredding.inlining import SimpleMapping
from repro.shredding.shredder import ShreddedDocument
from repro.xmltree.tree import XMLNode, XMLTree
from repro.xpath.parser import parse_xpath

__all__ = ["DocumentStore", "QueryService"]


class DocumentStore:
    """One registered document: shredded once, backend kept loaded.

    The store also memoizes prepared programs and — because the document
    only changes through the service's ``update_document``, which clears
    them — finished backend results.  Both are
    :class:`PlanCache` instances (one LRU implementation repo-wide) sized
    by the service's plan-cache capacity.  Results are immutable
    (:class:`~repro.backends.base.BackendResult` is frozen), so cache hits
    are safe to hand to many threads at once.
    """

    def __init__(
        self,
        document_id: str,
        shredded: ShreddedDocument,
        backend: Backend,
        prepared_capacity: int,
        result_capacity: int,
    ) -> None:
        self.document_id = document_id
        self.shredded = shredded
        self.backend = backend
        self._prepared = PlanCache(prepared_capacity, name="prepared")
        self._results = PlanCache(result_capacity, name="result")
        # Live-update state: the mutator is created on the first update (it
        # snapshots the interval numbering), and updates serialize on the
        # lock so two concurrent mutation scripts cannot interleave.
        self._mutator: Optional[DocumentMutator] = None
        self._update_lock = threading.Lock()
        # Bumped by every invalidation: a result computed while the
        # generation moved may predate the update, so it is not memoized.
        self._generation = 0
        self._results_lock = threading.Lock()

    def mutator(self, dtd: DTD) -> DocumentMutator:
        """This store's document mutator (created on first use)."""
        if self._mutator is None:
            self._mutator = DocumentMutator(
                self.shredded.tree, dtd, mapping=self.shredded.mapping
            )
        return self._mutator

    def invalidate_results(self) -> None:
        """Drop every memoized result (the document just changed).

        Prepared programs survive: preparation is pruning plus statement
        rendering, both functions of the plan alone — a mutation changes
        the data the statements run over, not the statements.  The result
        generation moves, so :meth:`store_result` refuses any answer whose
        execution began before this call.
        """
        with self._results_lock:
            self._generation += 1
            self._results.clear()

    @property
    def generation(self) -> int:
        """The result generation: read it before executing, pass it to
        :meth:`store_result`."""
        return self._generation

    @property
    def tree(self) -> XMLTree:
        """The source document."""
        return self.shredded.tree

    def prepared_program(
        self, key: Optional[PlanKey], result: TranslationResult
    ) -> PreparedProgram:
        """The prepared form of ``result``'s program on this store's backend."""
        if key is None:
            return self.backend.prepare(result.program)
        return self._prepared.get_or_create(
            key, lambda: self.backend.prepare(result.program)
        )

    def cached_result(self, key: Optional[PlanKey]) -> Optional[BackendResult]:
        """The memoized result for ``key``, or ``None`` (counts hit/miss)."""
        if key is None:
            return None
        return self._results.get(key)

    def store_result(
        self, key: Optional[PlanKey], result: BackendResult, generation: int
    ) -> None:
        """Memoize ``result`` under ``key``, unless the results were
        invalidated since ``generation`` was read (the answer may be stale)."""
        if key is None:
            return
        with self._results_lock:
            if generation == self._generation:
                self._results.put(key, result)

    def result_cache_info(self) -> CacheInfo:
        """Counters of this store's result cache."""
        return self._results.cache_info()

    def close(self) -> None:
        """Release the store's backend resources."""
        self.backend.close()

    def __repr__(self) -> str:
        return (
            f"DocumentStore(id={self.document_id!r}, "
            f"backend={self.backend.name!r}, "
            f"elements={self.tree.size()})"
        )


class QueryService:
    """Answer XPath queries over one DTD with cached plans and warm stores.

    Parameters
    ----------
    dtd:
        The DTD all queries and documents range over.
    config:
        The preferred way to configure the service: one
        :class:`~repro.api.EngineConfig` supplying strategy, lowering
        options, backend, optimizer level and cache sizing
        (``plan_cache_size`` sizes plans and prepared programs,
        ``result_cache_size`` the per-store result LRU; ``0`` disables a
        layer).  Mutually exclusive with the legacy per-knob arguments.
    strategy / options:
        *(legacy shims; prefer ``config``.)*  Forwarded to the underlying
        translator (same defaults).
    mapping:
        Storage mapping forwarded to the translator (an object, so
        orthogonal to ``config``).
    backend:
        *(legacy shim; prefer ``config``.)*  Execution backend name for
        document stores (``memory`` default).
    cache_capacity:
        *(legacy shim; prefer ``config``.)*  Sizes every cache layer
        (plans, prepared programs, results); ``0`` disables all of them —
        every call translates, prepares and executes afresh, the fully
        stateless baseline for benchmarks.
    plan_cache:
        Pass an existing :class:`PlanCache` to share one cache across
        services (e.g. several services over the same DTD, or all sessions
        of one :class:`~repro.api.Engine`); overrides the configured
        plan-cache sizing.
    result_cache:
        *(legacy shim; prefer ``config``.)*  Memoize finished backend
        results per store (default on; registered documents are immutable,
        so this is semantically invisible).  Off means every answer
        executes on the backend — the mode that isolates plan-cache gains
        in benchmarks.
    optimize_level:
        *(legacy shim; prefer ``config``.)*  Program-optimizer level
        (0/1/2) forwarded to the translator; part of every plan-cache key,
        so services at different levels never alias plans.

    Example
    -------
    >>> from repro.dtd.samples import dept_dtd
    >>> from repro.xmltree.generator import generate_document
    >>> dtd = dept_dtd()
    >>> service = QueryService(dtd)
    >>> store = service.register_document("d1", generate_document(dtd, seed=1))
    >>> nodes = service.answer("dept//project")
    >>> service.cache_info().misses
    1
    >>> nodes == service.answer("dept//project")  # warm: a cache hit
    True
    """

    def __init__(
        self,
        dtd: DTD,
        strategy: Optional[DescendantStrategy] = None,
        options: Optional[TranslationOptions] = None,
        mapping: Optional[SimpleMapping] = None,
        backend: Optional[str] = None,
        cache_capacity: Optional[int] = None,
        plan_cache: Optional[PlanCache] = None,
        result_cache: Optional[bool] = None,
        optimize_level: Optional[int] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        if cache_capacity is not None and cache_capacity < 0:
            raise ConfigError(f"cache_capacity must be >= 0, got {cache_capacity}")
        legacy_mode = config is None
        if not legacy_mode and (cache_capacity is not None or result_cache is not None):
            raise ConfigError(
                "pass either config= or the legacy cache keyword(s), not both"
            )
        config = resolve_engine_config(
            config,
            strategy=strategy,
            options=options,
            backend=backend,
            optimize_level=optimize_level,
            # Legacy sizing: one capacity for every layer, result cache
            # on/off; the config captures the resolved numbers.
            plan_cache_size=cache_capacity,
            result_cache_size=(
                None
                if result_cache is None and cache_capacity is None
                else (0 if result_cache is False else (128 if cache_capacity is None else cache_capacity))
            ),
        )
        self._config = config
        self._dtd = dtd
        self._backend_name = config.backend
        if plan_cache is not None:
            self._plan_cache: Optional[PlanCache] = plan_cache
        elif config.plan_cache_size > 0:
            self._plan_cache = PlanCache(config.plan_cache_size)
        else:
            self._plan_cache = None
        self._translator = XPathToSQLTranslator(
            dtd,
            mapping=mapping,
            plan_cache=self._plan_cache,
            config=config,
        )
        self._prepared_capacity = (
            self._plan_cache.capacity if self._plan_cache is not None else 0
        )
        if legacy_mode:
            # Pre-config contract: results sized like the (possibly shared)
            # plan cache, switched off by result_cache=False.
            self._result_capacity = (
                0 if result_cache is False else self._prepared_capacity
            )
        else:
            self._result_capacity = config.result_cache_size
        # Re-anchor the config on the capacities actually in effect (a
        # shared plan_cache instance brings its own size), so that
        # rebuilding a service from self.config reproduces this one.
        self._config = config.with_(
            plan_cache_size=self._prepared_capacity,
            result_cache_size=self._result_capacity,
        )
        self._stores: "OrderedDict[str, DocumentStore]" = OrderedDict()
        self._lock = threading.Lock()
        self._closed = False

    # -- accessors ---------------------------------------------------------------

    @property
    def config(self) -> EngineConfig:
        """The (resolved) engine configuration this service runs under."""
        return self._config

    @property
    def dtd(self) -> DTD:
        """The DTD this service answers queries over."""
        return self._dtd

    @property
    def backend_name(self) -> str:
        """The execution backend document stores run on."""
        return self._backend_name

    @property
    def translator(self) -> XPathToSQLTranslator:
        """The (cache-backed) translator; exposed for inspection and tests."""
        return self._translator

    def cache_info(self) -> CacheInfo:
        """Plan-cache counters (all zeros, capacity 0, when caching is off)."""
        if self._plan_cache is None:
            return CacheInfo(hits=0, misses=0, evictions=0, size=0, capacity=0)
        return self._plan_cache.cache_info()

    def result_cache_info(self) -> CacheInfo:
        """Result-cache counters aggregated across all registered stores."""
        hits = misses = evictions = size = 0
        with self._lock:
            stores = list(self._stores.values())
        for store in stores:
            info = store.result_cache_info()
            hits += info.hits
            misses += info.misses
            evictions += info.evictions
            size += info.size
        return CacheInfo(
            hits=hits,
            misses=misses,
            evictions=evictions,
            size=size,
            capacity=self._result_capacity,
        )

    def document_ids(self) -> List[str]:
        """Ids of all registered documents, in registration order."""
        with self._lock:
            return list(self._stores)

    # -- document registry -------------------------------------------------------

    def register_document(self, document_id: str, tree: XMLTree) -> DocumentStore:
        """Shred ``tree`` once and keep it loaded as a reusable store."""
        self._check_open()
        with self._lock:
            if document_id in self._stores:
                raise DuplicateDocumentError(
                    f"document {document_id!r} is already registered"
                )
        shredded = self._translator.shred(tree)
        store = DocumentStore(
            document_id=document_id,
            shredded=shredded,
            backend=create_backend(self._config, shredded.database),
            prepared_capacity=self._prepared_capacity,
            result_capacity=self._result_capacity,
        )
        with self._lock:
            if self._closed or document_id in self._stores:
                store.close()
                error = (
                    SessionClosedError if self._closed else DuplicateDocumentError
                )
                raise error(
                    f"cannot register {document_id!r}: "
                    + ("service is closed" if self._closed else "already registered")
                )
            self._stores[document_id] = store
        return store

    def unregister_document(self, document_id: str) -> None:
        """Drop a store and release its backend."""
        with self._lock:
            store = self._stores.pop(document_id, None)
        if store is None:
            raise UnknownDocumentError(f"unknown document {document_id!r}")
        store.close()

    def update_document(
        self,
        mutations: Sequence[Union[Mutation, Dict]],
        document_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """Apply a mutation script to a registered document and invalidate.

        Each mutation (a :mod:`repro.live.mutations` record or its JSON
        object form) is DTD-validated and applied to the store's tree; the
        merged :class:`~repro.live.delta.ShredDelta` then reaches the
        backend through ``apply_delta`` in one shot, so the relational side
        tracks the tree without re-shredding.  Invalidation is
        version-aware: the store's result LRU is dropped (its entries were
        computed over the old rows), while the plan cache and the store's
        prepared programs survive — both are functions of the DTD and the
        query alone, never of the data.

        A mutation that fails validation raises :class:`MutationError`
        *after* the preceding mutations of the script were applied and
        flushed to the backend (the tree and the relational store never
        diverge); callers wanting all-or-nothing should validate scripts on
        a scratch copy first.  Updates on one store serialize on a lock;
        interleaving an update with in-flight queries on the *same* store
        from other threads is the caller's race to avoid (the process pool
        serializes per worker, so the serving tier is safe).  The result
        cache is safe either way: an answer whose execution began before
        the invalidation is never memoized (:meth:`DocumentStore.store_result`).

        Returns a summary dict: applied mutation count and delta row counts.
        """
        self._check_open()
        store = self.store(document_id)
        normalized = [
            mutation_from_dict(m) if isinstance(m, dict) else m for m in mutations
        ]
        with store._update_lock, obs.span(
            "update", document=store.document_id, mutations=len(normalized)
        ) as update_sp:
            mutator = store.mutator(self._dtd)
            delta = ShredDelta()
            error: Optional[MutationError] = None
            applied = 0
            # Defer DOC_ORDER diffing: one renumbering pass per script, not
            # one per mutation (the flush covers exactly the applied prefix).
            mutator.defer_order()
            try:
                for mutation in normalized:
                    try:
                        delta = merge_deltas(delta, mutator.apply(mutation))
                        applied += 1
                    except MutationError as exc:
                        error = exc
                        break
            finally:
                delta = merge_deltas(delta, mutator.flush_order())
            if not delta.is_empty():
                store.backend.apply_delta(delta)
            store.invalidate_results()
            obs.registry().counter("service.invalidations").inc()
            if update_sp:
                update_sp.set(
                    applied=applied,
                    rows_deleted=delta.delete_count(),
                    rows_inserted=delta.insert_count(),
                )
        if error is not None:
            raise error
        summary: Dict[str, object] = dict(delta.summary())
        summary["document"] = store.document_id
        summary["applied"] = applied
        return summary

    def store(self, document_id: Optional[str] = None) -> DocumentStore:
        """Resolve a document id (or the sole registered document)."""
        self._check_open()
        with self._lock:
            if document_id is None:
                if len(self._stores) == 1:
                    return next(iter(self._stores.values()))
                raise UnknownDocumentError(
                    f"document_id is required: {len(self._stores)} document(s) registered"
                )
            try:
                return self._stores[document_id]
            except KeyError:
                known = ", ".join(sorted(self._stores)) or "<none>"
                raise UnknownDocumentError(
                    f"unknown document {document_id!r} (registered: {known})"
                ) from None

    # -- answering ---------------------------------------------------------------

    def plan(self, query: QueryLike) -> TranslationResult:
        """Translate ``query`` (through the plan cache when enabled)."""
        self._check_open()
        return self._translator.translate(query)

    def execute(
        self, query: QueryLike, document_id: Optional[str] = None
    ) -> BackendResult:
        """Answer ``query`` on a store, returning the raw backend result."""
        return self._execute(self.store(document_id), query)

    def _execute(self, store: DocumentStore, query: QueryLike) -> BackendResult:
        """Answer ``query`` on an already-resolved store.

        The query is parsed exactly once; on the fully warm path the call
        is one key computation plus one result-cache lookup.
        """
        obs.registry().counter("service.queries").inc()
        with obs.span(
            "answer", document=store.document_id, backend=store.backend.name
        ) as answer_sp:
            parsed = parse_xpath(query) if isinstance(query, str) else query
            if answer_sp:
                answer_sp.set(query=str(parsed))
            key = (
                self._translator.plan_key(parsed)
                if self._plan_cache is not None
                else None
            )
            cached = store.cached_result(key)
            if cached is not None:
                answer_sp.set(result_cache_hit=True)
                return cached
            answer_sp.set(result_cache_hit=False)
            generation = store.generation
            prepared = store.prepared_program(key, self.plan(parsed))
            result = store.backend.execute_prepared(prepared)
            store.store_result(key, result, generation)
            return result

    def answer(
        self, query: QueryLike, document_id: Optional[str] = None
    ) -> List[XMLNode]:
        """Answer ``query``, returning matching XML nodes in document order."""
        store = self.store(document_id)
        executed = self._execute(store, query)
        return store.shredded.nodes_for_ids(executed.node_ids())

    def answer_batch(
        self,
        queries: Sequence[QueryLike],
        document_id: Optional[str] = None,
        threads: int = 1,
    ) -> List[List[XMLNode]]:
        """Answer many queries over one store; optionally across threads.

        Results come back in input order regardless of thread count.  With
        ``threads > 1`` queries run on a thread pool: safe because plans are
        immutable once cached, the memory engine's reads are lock-free, and
        the SQLite backend gives each pool thread its own connection.
        """
        if threads < 1:
            raise ConfigError(f"threads must be >= 1, got {threads}")
        store = self.store(document_id)

        def one(query: QueryLike) -> List[XMLNode]:
            executed = self._execute(store, query)
            return store.shredded.nodes_for_ids(executed.node_ids())

        if threads == 1 or len(queries) <= 1:
            return [one(query) for query in queries]
        with obs.span("batch", queries=len(queries), threads=threads):
            # Pool workers have no thread-local trace of their own; they
            # adopt the dispatching thread's batch span so their work lands
            # under its tree (child appends are GIL-atomic).
            parent = obs.current_span()

            def traced(query: QueryLike) -> List[XMLNode]:
                with obs.attach(parent):
                    return one(query)

            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(traced, queries))

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Close every store's backend; the service rejects further calls."""
        with self._lock:
            self._closed = True
            stores, self._stores = list(self._stores.values()), OrderedDict()
        for store in stores:
            store.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("query service is closed")

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"QueryService(dtd={self._dtd.name!r}, backend={self._backend_name!r}, "
            f"documents={self.document_ids()}, cache={self.cache_info()})"
        )
