"""The :class:`Engine`/:class:`Session` facade — answer XPath over one DTD.

This is the top-down contract over every layer built underneath: an
:class:`Engine` owns one DTD plus one frozen
:class:`~repro.api.config.EngineConfig` (and the translator, with its plan
cache, that every session shares), a :class:`Session` owns registered
documents (shredded once, backend kept warm, results memoized) and answers
queries as typed :class:`QueryResult` objects.  Both are context managers;
everything they raise is rooted at :class:`~repro.errors.ReproError`.

Compared to driving :class:`~repro.core.pipeline.XPathToSQLTranslator` or
:class:`~repro.service.QueryService` directly, the facade adds no
semantics — the property suite pins ``Engine``/``Session`` answers to the
underlying layers node-for-node — it only removes the kwarg threading:
every knob enters exactly once, through the config.
"""

from __future__ import annotations

from typing import (
    Callable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import obs
from repro.api.config import EngineConfig
from repro.backends import backend_dialect
from repro.backends.base import BackendResult
from repro.core.pipeline import QueryLike, TranslationResult, XPathToSQLTranslator
from repro.core.plancache import PlanCache
from repro.dtd.model import DTD
from repro.errors import ConfigError, SessionClosedError
from repro.relational.sqlgen import SQLDialect
from repro.service import QueryService
from repro.shredding.shredder import ShreddedDocument
from repro.xmltree.tree import XMLNode, XMLTree

__all__ = ["Engine", "Session", "QueryResult"]

DocumentsLike = Union[XMLTree, Mapping[str, XMLTree], Sequence[XMLTree]]

DEFAULT_DOCUMENT_ID = "doc"


def _named_documents(documents: DocumentsLike) -> List[Tuple[str, XMLTree]]:
    """Normalize the accepted document shapes to ``(id, tree)`` pairs.

    A bare tree gets the id ``"doc"``; a sequence always gets ``doc0``,
    ``doc1``, ... (also for one element, so ids never shift with length).
    """
    if isinstance(documents, XMLTree):
        named = [(DEFAULT_DOCUMENT_ID, documents)]
    elif isinstance(documents, Mapping):
        named = list(documents.items())
    elif isinstance(documents, Sequence):
        named = [
            (f"{DEFAULT_DOCUMENT_ID}{index}", tree)
            for index, tree in enumerate(documents)
        ]
    else:
        raise ConfigError(
            f"open_session expects an XMLTree, a mapping or a sequence, "
            f"got {type(documents).__name__}"
        )
    for document_id, tree in named:
        if not isinstance(tree, XMLTree):
            raise ConfigError(
                f"document {document_id!r} is not an XMLTree "
                f"(got {type(tree).__name__})"
            )
    return named


class QueryResult:
    """The typed answer to one query: plan metadata plus lazy nodes.

    The backend's raw result (the matched node ids, execution stats) is
    attached eagerly; the translation plan and the mapping from node ids
    back to :class:`~repro.xmltree.tree.XMLNode` objects are both deferred
    — the plan until :attr:`plan` is read (a plan-cache lookup when caching
    is on; only then a re-translation when it is off), the nodes until the
    result is iterated (or :meth:`nodes` is called) — so callers that only
    need counts or ids (``len``, ``bool``, :meth:`node_ids`) pay for
    neither.
    """

    def __init__(
        self,
        query: str,
        document_id: str,
        plan_factory: "Callable[[], TranslationResult]",
        raw: BackendResult,
        shredded: ShreddedDocument,
        trace: Optional[obs.Span] = None,
    ) -> None:
        self._query = query
        self._document_id = document_id
        self._plan_factory = plan_factory
        self._plan: Optional[TranslationResult] = None
        self._raw = raw
        self._shredded = shredded
        self._nodes: Optional[List[XMLNode]] = None
        self._trace = trace

    # -- plan metadata ----------------------------------------------------------

    @property
    def query(self) -> str:
        """The query text answered."""
        return self._query

    @property
    def document_id(self) -> str:
        """Id of the document the query ran over."""
        return self._document_id

    @property
    def plan(self) -> TranslationResult:
        """The translation plan the answer was computed with (lazy)."""
        if self._plan is None:
            self._plan = self._plan_factory()
        return self._plan

    @property
    def backend(self) -> str:
        """Name of the backend that executed the plan."""
        return self._raw.backend

    @property
    def trace(self) -> Optional[obs.Span]:
        """The span tree recorded while answering (``None`` unless the
        engine was configured with ``observability=True``).

        The tree covers the whole path — plan-cache lookup, translation
        with its optimizer passes on a cold plan, prepare and execute —
        and serializes exactly via :meth:`repro.obs.Span.to_dict`.
        """
        return self._trace

    @property
    def stats(self) -> Mapping[str, float]:
        """Backend execution counters (at least ``rows``/``elapsed_seconds``)."""
        return self._raw.stats

    def node_ids(self) -> Tuple[int, ...]:
        """The answer: matched node ids, ascending (see
        :meth:`~repro.backends.base.BackendResult.node_ids`)."""
        return self._raw.node_ids()

    # -- lazy node materialization ----------------------------------------------

    def nodes(self) -> List[XMLNode]:
        """The matching XML nodes in :meth:`node_ids` order (materialized once)."""
        if self._nodes is None:
            self._nodes = self._shredded.nodes_for_ids(self._raw.node_ids())
        return self._nodes

    def values(self) -> List[Optional[str]]:
        """Text values of the matching nodes, in :meth:`nodes` order."""
        return [node.value for node in self.nodes()]

    def __iter__(self) -> Iterator[XMLNode]:
        return iter(self.nodes())

    def __len__(self) -> int:
        return len(self._raw.node_ids())

    def __bool__(self) -> bool:
        return bool(self._raw.node_ids())

    def __repr__(self) -> str:
        return (
            f"QueryResult(query={self._query!r}, document={self._document_id!r}, "
            f"backend={self.backend!r}, nodes={len(self)})"
        )


class Session:
    """Registered documents under one engine; context-managed answering.

    Created with :meth:`Engine.open_session`; not constructed directly.
    The session shares its engine's translator and its plan cache
    (translating a query in any session of an engine warms them all) and
    keeps each registered document's execution backend loaded for its
    lifetime.
    """

    def __init__(self, engine: "Engine", service: QueryService) -> None:
        self._engine = engine
        self._service = service
        self._closed = False

    # -- registry ---------------------------------------------------------------

    @property
    def engine(self) -> "Engine":
        """The engine this session answers under."""
        return self._engine

    @property
    def config(self) -> EngineConfig:
        """The engine configuration (shared with the engine, frozen)."""
        return self._engine.config

    def document_ids(self) -> List[str]:
        """Ids of this session's documents, in registration order."""
        return self._service.document_ids()

    def add_document(self, document_id: str, tree: XMLTree) -> None:
        """Shred and register one more document under ``document_id``."""
        self._check_open()
        self._service.register_document(document_id, tree)

    # -- answering --------------------------------------------------------------

    def answer(
        self, query: QueryLike, document_id: Optional[str] = None
    ) -> QueryResult:
        """Answer ``query`` over one document (the sole one by default).

        Returns a :class:`QueryResult`; iterate it for the matching nodes,
        read ``.plan``/``.stats`` for how the answer was computed, and —
        with ``observability=True`` in the config — ``.trace`` for the
        span tree of this very call.
        """
        self._check_open()
        store = self._service.store(document_id)
        trace_root: Optional[obs.Span] = None
        if self._engine.config.observability:
            obs.start_trace(
                "session.answer", query=str(query), document=store.document_id
            )
            try:
                raw = self._service.execute(query, store.document_id)
            finally:
                trace_root = obs.end_trace()
        else:
            raw = self._service.execute(query, store.document_id)
        # The factory binds the (stateless, plan-cache-backed) translator,
        # not the service, so a returned result stays fully usable after
        # the session closes.  A plan-cache hit when caching is on; with
        # caching off the translation only re-runs if the plan is read.
        translator = self._service.translator
        return QueryResult(
            query=str(query),
            document_id=store.document_id,
            plan_factory=lambda: translator.translate(query),
            raw=raw,
            shredded=store.shredded,
            trace=trace_root,
        )

    def answer_batch(
        self, queries: Sequence[QueryLike], document_id: Optional[str] = None
    ) -> List[QueryResult]:
        """Answer many queries over one document; results in input order."""
        self._check_open()
        store = self._service.store(document_id)
        return [self.answer(query, store.document_id) for query in queries]

    def stream(
        self, query: QueryLike, document_id: Optional[str] = None
    ) -> Iterator[XMLNode]:
        """Answer ``query`` and iterate the matching nodes in node-id order."""
        return iter(self.answer(query, document_id))

    def explain(self, query: QueryLike, timing: bool = False) -> str:
        """The engine's plan explanation for ``query`` (see :meth:`Engine.explain`)."""
        self._check_open()
        return self._engine.explain(query, timing=timing)

    def sql(self, query: QueryLike, dialect: Optional[SQLDialect] = None) -> str:
        """The SQL text ``query`` translates to (the backend's dialect by default)."""
        self._check_open()
        return self._engine.sql(query, dialect)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Release every document store's backend; idempotent."""
        if not self._closed:
            self._closed = True
            self._service.close()
            self._engine._forget_session(self)

    @property
    def closed(self) -> bool:
        """True once the session has been closed."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("session is closed")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"Session(documents={self.document_ids() if not self._closed else []}, "
            f"backend={self.config.backend!r}, {state})"
        )


class Engine:
    """A query engine: one DTD, one frozen config, one shared translator.

    Build one with :meth:`from_dtd` (accepts a :class:`~repro.dtd.model.DTD`,
    a paper-sample name like ``"dept"``, or DTD grammar text), translate
    and inspect queries directly (:meth:`translate`, :meth:`sql`,
    :meth:`explain`), and open :class:`Session` objects over documents to
    answer them.  Engines are context managers; closing an engine closes
    every session it opened.

    Example
    -------
    >>> from repro.api import Engine
    >>> from repro.xmltree.generator import generate_document
    >>> engine = Engine.from_dtd("dept", optimize_level=2)
    >>> document = generate_document(engine.dtd, seed=1)
    >>> with engine.open_session(document) as session:
    ...     count = len(session.answer("dept//project"))
    """

    def __init__(self, dtd: DTD, config: Optional[EngineConfig] = None) -> None:
        self._dtd = dtd
        self._config = config or EngineConfig()
        self._translator = XPathToSQLTranslator(dtd, self._config)
        self._sessions: List[Session] = []
        self._closed = False

    @classmethod
    def from_dtd(
        cls,
        source: Union[DTD, str],
        config: Optional[EngineConfig] = None,
        **knobs: object,
    ) -> "Engine":
        """Build an engine from a DTD object, a sample name or grammar text.

        ``config`` carries the engine knobs; any extra keyword arguments
        are applied on top via :meth:`EngineConfig.with_` (so
        ``Engine.from_dtd("dept", optimize_level=0)`` works without
        spelling out a config).
        """
        from repro.dtd import samples
        from repro.dtd.parser import parse_dtd

        resolved = (config or EngineConfig()).with_(**knobs) if knobs else (
            config or EngineConfig()
        )
        if isinstance(source, DTD):
            return cls(source, resolved)
        if not isinstance(source, str):
            raise ConfigError(
                f"from_dtd expects a DTD, a sample name or grammar text, "
                f"got {type(source).__name__}"
            )
        named = samples.paper_dtds()
        if source in named:
            return cls(named[source], resolved)
        # Only strings that can actually be grammar text fall through to
        # the parser; a bare word is a mistyped sample name and deserves a
        # name error, not a confusing grammar-syntax one.
        if "\n" not in source and "->" not in source:
            raise ConfigError(
                f"unknown sample DTD {source!r} "
                f"(known: {', '.join(sorted(named))}; "
                "pass a DTD object or grammar text otherwise)"
            )
        return cls(parse_dtd(source), resolved)

    # -- accessors --------------------------------------------------------------

    @property
    def dtd(self) -> DTD:
        """The DTD this engine translates and answers queries over."""
        return self._dtd

    @property
    def config(self) -> EngineConfig:
        """The engine's frozen configuration."""
        return self._config

    @property
    def plan_cache(self) -> Optional[PlanCache]:
        """The shared translation-plan cache (``None`` when disabled)."""
        return self._translator.plan_cache

    # -- translation ------------------------------------------------------------

    def translate(self, query: QueryLike) -> TranslationResult:
        """Translate ``query`` (through the shared plan cache)."""
        self._check_open()
        return self._translator.translate(query)

    def sql(self, query: QueryLike, dialect: Optional[SQLDialect] = None) -> str:
        """The SQL script ``query`` translates to: one statement per
        temporary, then the result SELECT.

        ``dialect`` defaults to the one the configured backend executes.
        """
        dialect = dialect or backend_dialect(self._config.backend)
        return self.translate(query).sql(dialect)

    def explain(self, query: QueryLike, timing: bool = False) -> str:
        """A human-readable plan summary: strategy, level, operator profile.

        With ``timing=True`` the query is additionally translated fresh
        (bypassing the plan cache) under a trace, and the summary ends
        with the per-phase span tree — where translation time actually
        went.

        On the ``sqlite`` backend the summary also includes SQLite's
        ``EXPLAIN QUERY PLAN`` of every statement the query runs, headed
        by the temporary it creates (``<result>`` for the final SELECT).
        """
        self._check_open()
        timing_root: Optional[obs.Span] = None
        if timing:
            obs.start_trace("explain", query=str(query))
            try:
                result = self._translator.translate_uncached(query)
            finally:
                timing_root = obs.end_trace()
        else:
            result = self.translate(query)
        profile = result.operator_profile()
        strategy = result.strategy.value if result.strategy else self._config.strategy.value
        lines = [
            f"query:     {query}",
            f"strategy:  {self._config.strategy.value}"
            + (f" -> {strategy}" if self._config.strategy.value != strategy else ""),
            f"optimizer: level {result.optimize_level}",
            f"dialect:   {backend_dialect(self._config.backend).value}",
            f"profile:   {profile.joins} joins, {profile.unions} unions, "
            f"{profile.lfps} LFPs, {profile.recursive_unions} SQL'99 recursions",
            "program:",
        ]
        lines.extend(f"  {line}" for line in str(result.program).splitlines())
        if self._config.backend == "sqlite":
            lines.append("sqlite plan (per statement):")
            lines.extend(f"  {line}" for line in self._sqlite_plan(result.program))
        if timing_root is not None:
            lines.append("timing:")
            lines.extend(
                f"  {line}" for line in obs.render_span_tree(timing_root).splitlines()
            )
        return "\n".join(lines)

    def _sqlite_plan(self, program) -> List[str]:
        """SQLite's ``EXPLAIN QUERY PLAN`` rows, under one header per statement.

        Runs against an empty database with this DTD's schema — plan
        shapes (scans, index use, recursion) are visible without any
        document loaded.
        """
        from repro.backends.sqlite import SqliteBackend
        from repro.errors import ExecutionError
        from repro.relational.database import Database
        from repro.shredding.inlining import SimpleMapping

        backend = SqliteBackend(Database(SimpleMapping(self._dtd).database_schema()))
        try:
            lines: List[str] = []
            for target, rows in backend.explain(program):
                lines.append(f"{target}:")
                lines.extend(f"  {row}" for row in rows)
            return lines
        except ExecutionError as exc:
            return [f"unavailable: {exc}"]
        finally:
            backend.close()

    # -- sessions ---------------------------------------------------------------

    def open_session(self, documents: DocumentsLike) -> Session:
        """Shred and register ``documents``; return a :class:`Session`.

        ``documents`` is one :class:`~repro.xmltree.tree.XMLTree` (id
        ``"doc"``), a mapping of id -> tree, or a sequence of trees (ids
        ``doc0``, ``doc1``, ...).
        """
        self._check_open()
        named = _named_documents(documents)
        service = QueryService(self._dtd, self._config, translator=self._translator)
        try:
            for document_id, tree in named:
                service.register_document(document_id, tree)
        except Exception:
            service.close()
            raise
        session = Session(self, service)
        self._sessions.append(session)
        return session

    def _forget_session(self, session: Session) -> None:
        if session in self._sessions:
            self._sessions.remove(session)

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Close the engine and every session it opened; idempotent."""
        if not self._closed:
            self._closed = True
            for session in list(self._sessions):
                session.close()

    @property
    def closed(self) -> bool:
        """True once the engine has been closed."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("engine is closed")

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"sessions={len(self._sessions)}"
        return f"Engine(dtd={self._dtd.name!r}, config={self._config.describe()}, {state})"
