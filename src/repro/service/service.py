""":class:`QueryService` — answer XPath queries over long-lived documents.

One service owns one DTD and one :class:`~repro.api.EngineConfig`, and any
number of registered documents.  It is the one route from a query to an
answer (the process pool and the :class:`~repro.api.Engine` facade both
run on it), and it differs from translating and executing by hand in four
ways:

* **plans are cached** — the service's
  :class:`~repro.core.pipeline.XPathToSQLTranslator` keeps an LRU
  :class:`~repro.core.plancache.PlanCache` keyed by the canonical query
  text, so a repeated query skips both translation steps and the optimizer
  passes;
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
  makes warm serving fast; disable it with
  ``EngineConfig(result_cache_size=0)`` to measure the plan cache alone;
* **answering is thread-safe** — the plan cache and store registry take
  locks only around dictionary operations, the memory engine's reads are
  lock-free, and each SQLite store runs one call at a time on its one
  connection, so many threads may call :meth:`answer` on one service at
  once.

The caches are semantically invisible: for any query, document and
configuration, :meth:`answer` returns node-for-node what the XPath
evaluator returns on the document (the property suite pins this).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro import obs
from repro.api.config import EngineConfig
from repro.backends import create_backend
from repro.backends.base import Backend, BackendResult, PreparedProgram
from repro.core.pipeline import QueryLike, TranslationResult, XPathToSQLTranslator
from repro.core.plancache import CacheInfo, PlanCache
from repro.dtd.model import DTD
from repro.errors import (
    ConfigError,
    DuplicateDocumentError,
    ReproError,
    SessionClosedError,
    UnknownDocumentError,
)
from repro.shredding.shredder import ShreddedDocument, shred_document
from repro.xmltree.tree import XMLNode, XMLTree

if TYPE_CHECKING:
    from repro.live.mutations import DocumentMutator, Mutation

__all__ = ["DocumentStore", "QueryService"]


class DocumentStore:
    """One registered document: shredded once, backend kept loaded.

    ``shredded`` is what the document was registered from.  Its tree is
    the live document, which updates mutate in place; its database stays
    the registration input, and the live rows are the backend's.

    The store also memoizes prepared programs and — because the document
    only changes through the service's ``update_document``, which clears
    them — finished backend results: each answer's node ids plus its
    execution stats.  Both are :class:`PlanCache` instances (one LRU
    implementation repo-wide) sized by the service's plan-cache capacity.
    Results are immutable (:class:`~repro.backends.base.BackendResult` is
    frozen), so cache hits are safe to hand to many threads at once.
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
            from repro.live.mutations import DocumentMutator

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
        self, key: Optional[str], result: TranslationResult
    ) -> PreparedProgram:
        """The prepared form of ``result``'s program on this store's backend."""
        if key is None:
            return self.backend.prepare(result.program)
        return self._prepared.get_or_create(
            key, lambda: self.backend.prepare(result.program)
        )

    def cached_result(self, key: Optional[str]) -> Optional[BackendResult]:
        """The memoized result for ``key``, or ``None`` (counts hit/miss)."""
        if key is None:
            return None
        return self._results.get(key)

    def store_result(
        self, key: Optional[str], result: BackendResult, generation: int
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
        One :class:`~repro.api.EngineConfig` supplying strategy, lowering
        options, backend, optimizer level and cache sizing
        (``plan_cache_size`` sizes plans and prepared programs,
        ``result_cache_size`` the per-store result LRU; ``0`` disables a
        layer, and both at ``0`` give the fully stateless baseline);
        ``None`` means ``EngineConfig()``.
    translator:
        The translator to plan with, built over ``dtd`` and ``config``;
        ``None`` builds one.  Services that share a translator share its
        plans (every session of one :class:`~repro.api.Engine` does).

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
        config: Optional[EngineConfig] = None,
        translator: Optional[XPathToSQLTranslator] = None,
    ) -> None:
        config = config or EngineConfig()
        if translator is None:
            translator = XPathToSQLTranslator(dtd, config)
        elif translator.dtd is not dtd or translator.config != config:
            raise ConfigError(
                "a shared translator must be built over the service's DTD and config"
            )
        self._dtd = dtd
        self._config = config
        self._backend_name = config.backend
        self._translator = translator
        self._result_capacity = config.result_cache_size
        self._stores: "OrderedDict[str, DocumentStore]" = OrderedDict()
        self._lock = threading.Lock()
        self._closed = False

    # -- accessors ---------------------------------------------------------------

    @property
    def config(self) -> EngineConfig:
        """The engine configuration this service runs under."""
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
        """The translator that plans every query, with its plan cache."""
        return self._translator

    def cache_info(self) -> CacheInfo:
        """Plan-cache counters (all zeros, capacity 0, when caching is off)."""
        plan_cache = self._translator.plan_cache
        if plan_cache is None:
            return CacheInfo(hits=0, misses=0, evictions=0, size=0, capacity=0)
        return plan_cache.cache_info()

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
        shredded = shred_document(tree, self._dtd, self._translator.mapping)
        store = DocumentStore(
            document_id=document_id,
            shredded=shredded,
            backend=create_backend(self._config, shredded.database),
            prepared_capacity=self._config.plan_cache_size,
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
        object form) is DTD-validated and applied to the store's tree by
        :meth:`~repro.live.mutations.DocumentMutator.apply_script`, which
        commits the merged :class:`~repro.live.delta.ShredDelta` to the
        backend through ``apply_delta``, so the backend's store tracks the
        tree without re-shredding.  The script applies whole or not at all:
        a rejected mutation (:class:`~repro.errors.MutationError`) or a
        failed backend write leaves the tree, the store and its result cache
        as they were, and the error propagates.

        After a script applied, invalidation is version-aware: the store's
        result LRU is dropped (its entries were computed over the old rows),
        while the plan cache and the store's prepared programs survive —
        both are functions of the DTD and the query alone, never of the
        data.  Updates on one store serialize on a lock; interleaving an
        update with in-flight queries on the *same* store from other
        threads is the caller's race to avoid (the process pool serializes
        per worker, so the serving tier is safe).  The result cache is safe
        either way: an answer whose execution began before the invalidation
        is never memoized (:meth:`DocumentStore.store_result`).

        Returns a summary dict: applied mutation count and delta row counts.
        """
        # Imported here, not at module level: only updates need the live
        # subsystem, so answering never loads it.
        from repro.live.mutations import mutation_from_dict

        self._check_open()
        store = self.store(document_id)
        normalized = [
            mutation_from_dict(m) if isinstance(m, dict) else m for m in mutations
        ]
        with store._update_lock, obs.span(
            "update", document=store.document_id, mutations=len(normalized)
        ) as update_sp:
            delta = store.mutator(self._dtd).apply_script(
                normalized, commit=store.backend.apply_delta
            )
            store.invalidate_results()
            obs.registry().counter("service.invalidations").inc()
            if update_sp:
                update_sp.set(
                    applied=len(normalized),
                    rows_deleted=delta.delete_count(),
                    rows_inserted=delta.insert_count(),
                )
        summary: Dict[str, object] = dict(delta.summary())
        summary["document"] = store.document_id
        summary["applied"] = len(normalized)
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

    def warm(
        self, queries: Sequence[QueryLike], document_id: Optional[str] = None
    ) -> None:
        """Make the first answers to ``queries`` on a store warm.

        Each query is executed once: that leaves its plan prepared, its
        temporaries in the backend's shared table (both backends keep them
        for the next plan) and, with a result cache, its answer.  A query
        that raises :class:`~repro.errors.ReproError` is skipped: a real
        request for it reports the error.
        """
        store = self.store(document_id)
        for query in queries:
            try:
                self._execute(store, query)
            except ReproError:
                continue

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

    def _key(self, query: QueryLike) -> Optional[str]:
        """The plan key stores cache ``query`` under; ``None`` without a plan cache."""
        if self._translator.plan_cache is None:
            return None
        return self._translator.plan_key(query)

    def _execute(self, store: DocumentStore, query: QueryLike) -> BackendResult:
        """Answer ``query`` on an already-resolved store.

        With a plan cache, a query text the translator has seen before is
        not parsed again: on the fully warm path the call is one key lookup
        plus one result-cache lookup.
        """
        obs.registry().counter("service.queries").inc()
        with obs.span(
            "answer", document=store.document_id, backend=store.backend.name
        ) as answer_sp:
            key = self._key(query)
            if answer_sp:
                answer_sp.set(
                    query=key if key is not None else self._translator.plan_key(query)
                )
            cached = store.cached_result(key)
            if cached is not None:
                answer_sp.set(result_cache_hit=True)
                return cached
            answer_sp.set(result_cache_hit=False)
            generation = store.generation
            prepared = store.prepared_program(key, self.plan(query))
            result = store.backend.execute_prepared(prepared)
            store.store_result(key, result, generation)
            return result

    def answer(
        self, query: QueryLike, document_id: Optional[str] = None
    ) -> List[XMLNode]:
        """Answer ``query``, returning the matching XML nodes.

        The nodes come in the answer's order, ascending node ids (see
        :meth:`~repro.backends.base.BackendResult.node_ids`).  Callers
        that need only the ids read :meth:`execute` instead, which builds
        no node.
        """
        store = self.store(document_id)
        executed = self._execute(store, query)
        return store.shredded.nodes_for_ids(executed.node_ids())

    def answer_batch(
        self, queries: Sequence[QueryLike], document_id: Optional[str] = None
    ) -> List[List[XMLNode]]:
        """Answer many queries over one store; results in input order."""
        store = self.store(document_id)
        return [
            store.shredded.nodes_for_ids(self._execute(store, query).node_ids())
            for query in queries
        ]

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
