"""End-to-end XPath-to-SQL translation and query answering (Fig. 5).

:class:`XPathToSQLTranslator` wires the two translation steps together:

1. XPath over a (possibly recursive) DTD -> extended XPath (XPathToEXp),
   with the descendant axis expanded by CycleEX (default), CycleE, or the
   SQLGen-R recursive-union baseline;
2. extended XPath -> a relational program with the simple LFP operator
   (EXpToSQL), optionally with the Sect. 5.2 optimisations.

It can also *answer* queries: shred a document, run the translated program
on the in-memory backend, and map the resulting node ids back to XML nodes —
which is how the test suite checks the central invariant
``Q(T) = Q'(tau_d(T))`` against the direct XPath evaluator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union as TUnion

from typing import TYPE_CHECKING

from repro import obs
from repro.backends.base import BackendResult
from repro.backends.memory import MemoryBackend
from repro.core.expath_to_sql import ExtendedToSQL, TranslationOptions
from repro.core.optimize import (
    DEFAULT_OPTIMIZE_LEVEL,
    ProgramOptimizer,
    select_strategy,
)
from repro.core.plancache import (
    PlanCache,
    PlanKey,
    dtd_fingerprint,
    mapping_fingerprint,
    options_fingerprint,
)
from repro.core.xpath_to_expath import DescendantStrategy, XPathToExtended
from repro.dtd.graph import DTDGraph
from repro.dtd.model import DTD
from repro.expath.ast import ExtendedXPathQuery
from repro.expath.metrics import OperatorCounts, count_operators
from repro.relational.algebra import OperatorProfile, Program
from repro.relational.sqlgen import SQLDialect, program_to_sql
from repro.shredding.inlining import SimpleMapping
from repro.shredding.shredder import ShreddedDocument, shred_document
from repro.xmltree.tree import XMLNode, XMLTree
from repro.xpath.ast import Path
from repro.xpath.parser import parse_xpath

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.config import EngineConfig

__all__ = ["TranslationResult", "XPathToSQLTranslator", "answer_xpath"]

QueryLike = TUnion[str, Path]


@dataclass
class TranslationResult:
    """Everything produced while translating one query.

    Attributes
    ----------
    xpath:
        The parsed input query.
    extended:
        The intermediate extended XPath query.
    program:
        The relational program (SQL with the simple LFP operator).
    translation_seconds:
        Wall-clock time spent translating (both steps).
    """

    xpath: Path
    extended: ExtendedXPathQuery
    program: Program
    translation_seconds: float
    strategy: Optional[DescendantStrategy] = None
    optimize_level: int = DEFAULT_OPTIMIZE_LEVEL

    def operator_profile(self) -> OperatorProfile:
        """Operator counts of the relational program (Table 5 quantities)."""
        return self.program.operator_profile()

    def extended_operator_counts(self) -> OperatorCounts:
        """Operator counts of the extended XPath query."""
        return count_operators(self.extended)

    def sql(
        self, dialect: SQLDialect = SQLDialect.GENERIC, emission: str = "multi"
    ) -> str:
        """The program rendered as SQL text.

        ``emission="single"`` fuses the whole program into one
        ``WITH [RECURSIVE]`` statement instead of per-assignment statements.
        """
        return program_to_sql(self.program, dialect, emission=emission)


class XPathToSQLTranslator:
    """Translate and answer XPath queries over one DTD.

    Parameters
    ----------
    dtd:
        The DTD queries range over.
    config:
        One :class:`~repro.api.EngineConfig` supplying the descendant-axis
        strategy, lowering options, optimizer level and the dialect
        recorded in cache keys (plans destined for different dialects must
        not alias once rendered); ``None`` means ``EngineConfig()``.
    mapping:
        Storage mapping; defaults to the simplified per-type mapping.
        (Orthogonal to ``config``: mappings are objects, not serializable
        knobs.)
    plan_cache:
        Optional :class:`~repro.core.plancache.PlanCache`.  When set,
        :meth:`translate` becomes a cache lookup keyed by (DTD fingerprint,
        canonical query, strategy, options, dialect, mapping fingerprint) —
        the hook :class:`~repro.service.QueryService` hangs its serving
        cache on.  Caching is semantically invisible: a hit returns the
        same :class:`TranslationResult` a fresh translation would produce.

    Example
    -------
    >>> from repro.dtd.samples import dept_dtd
    >>> translator = XPathToSQLTranslator(dept_dtd())
    >>> result = translator.translate("dept//project")
    >>> result.operator_profile().lfps >= 1
    True
    """

    def __init__(
        self,
        dtd: DTD,
        config: Optional["EngineConfig"] = None,
        mapping: Optional[SimpleMapping] = None,
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        if config is None:
            # Imported here, not at module level: repro.api.config is the
            # top of the layering and importing it from this (lower) module
            # at import time would close an import cycle through repro.core.
            from repro.api.config import EngineConfig

            config = EngineConfig()
        strategy = config.strategy
        level = (
            DEFAULT_OPTIMIZE_LEVEL
            if config.optimize_level is None
            else config.optimize_level
        )
        self._config = config
        self._dtd = dtd
        self._mapping = mapping or SimpleMapping(dtd)
        self._strategy = strategy
        self._options = config.translation_options()
        # Front ends are created lazily per concrete strategy: the AUTO
        # strategy resolves per query and may use several of them.
        self._front_ends: Dict[DescendantStrategy, XPathToExtended] = {}
        self._graph: Optional[DTDGraph] = None
        # Per-canonical-query memo of AUTO resolutions: selection is
        # deterministic per (DTD, query), and without this every warm-path
        # plan_key() would re-run the SCC/reachability analysis.  Bounded so
        # an unbounded query stream cannot grow it without limit.
        self._resolved_strategies: Dict[str, DescendantStrategy] = {}
        if strategy is not DescendantStrategy.AUTO:
            self._front_ends[strategy] = XPathToExtended(dtd, strategy=strategy)
        self._back_end = ExtendedToSQL(self._mapping, self._options)
        self._optimize_level = level
        self._optimizer = ProgramOptimizer(
            dtd=dtd, mapping=self._mapping, level=level
        )
        self._plan_cache = plan_cache
        self._cache_dialect = config.resolved_dialect()
        self._dtd_fingerprint: Optional[str] = None
        self._options_fingerprint: Optional[str] = None
        self._mapping_fingerprint: Optional[str] = None

    # -- accessors --------------------------------------------------------------

    @property
    def config(self) -> "EngineConfig":
        """The engine configuration this translator runs under."""
        return self._config

    @property
    def dtd(self) -> DTD:
        """The DTD queries are translated over."""
        return self._dtd

    @property
    def mapping(self) -> SimpleMapping:
        """The storage mapping used by the lowering."""
        return self._mapping

    @property
    def strategy(self) -> DescendantStrategy:
        """The descendant-axis expansion strategy."""
        return self._strategy

    @property
    def options(self) -> TranslationOptions:
        """The lowering options."""
        return self._options

    @property
    def optimize_level(self) -> int:
        """The program-optimizer level applied after lowering."""
        return self._optimize_level

    @property
    def plan_cache(self) -> Optional[PlanCache]:
        """The plan cache consulted by :meth:`translate` (``None`` = uncached)."""
        return self._plan_cache

    # -- translation -------------------------------------------------------------

    @staticmethod
    def _parse(query: QueryLike) -> Path:
        return parse_xpath(query) if isinstance(query, str) else query

    _RESOLUTION_MEMO_LIMIT = 4096

    def resolve_strategy(self, query: QueryLike) -> DescendantStrategy:
        """The concrete strategy used for ``query`` (resolves ``AUTO``)."""
        if self._strategy is not DescendantStrategy.AUTO:
            return self._strategy
        path = self._parse(query)
        canonical = str(path)
        resolved = self._resolved_strategies.get(canonical)
        if resolved is None:
            if self._graph is None:
                self._graph = DTDGraph(self._dtd)
            resolved = select_strategy(self._dtd, path, graph=self._graph)
            if len(self._resolved_strategies) >= self._RESOLUTION_MEMO_LIMIT:
                self._resolved_strategies.clear()
            self._resolved_strategies[canonical] = resolved
        return resolved

    def _front_end_for(self, strategy: DescendantStrategy) -> XPathToExtended:
        front_end = self._front_ends.get(strategy)
        if front_end is None:
            front_end = XPathToExtended(self._dtd, strategy=strategy)
            self._front_ends[strategy] = front_end
        return front_end

    def to_extended(self, query: QueryLike) -> ExtendedXPathQuery:
        """Step 1 only: rewrite to extended XPath."""
        path = self._parse(query)
        return self._front_end_for(self.resolve_strategy(path)).translate(path)

    def lower_extended(self, extended: ExtendedXPathQuery) -> Program:
        """Step 2 only: lower an extended XPath query to a relational program."""
        return self._back_end.translate(extended)

    def plan_key(self, query: QueryLike) -> PlanKey:
        """The cache key of ``query`` under this translator's configuration.

        The query component is the *canonical* rendering of the parsed path,
        so whitespace variants of one query share an entry; the fingerprints
        are computed once per translator.
        """
        if self._dtd_fingerprint is None:
            self._dtd_fingerprint = dtd_fingerprint(self._dtd)
        if self._options_fingerprint is None:
            self._options_fingerprint = options_fingerprint(self._options)
        if self._mapping_fingerprint is None:
            self._mapping_fingerprint = mapping_fingerprint(self._mapping)
        path = self._parse(query)
        return PlanKey(
            dtd=self._dtd_fingerprint,
            query=str(path),
            strategy=self.resolve_strategy(path).value,
            options=self._options_fingerprint,
            dialect=self._cache_dialect.value,
            mapping=self._mapping_fingerprint,
            optimize=str(self._optimize_level),
            emission=self._config.emission,
        )

    def translate(self, query: QueryLike) -> TranslationResult:
        """Run both translation steps and return all intermediate artifacts.

        With a ``plan_cache`` configured this consults the cache first and
        only translates on a miss.
        """
        path = self._parse(query)
        if self._plan_cache is None:
            return self._translate_fresh(path)
        missed = []
        with obs.span("plan-cache", cache=self._plan_cache.name) as sp:
            result = self._plan_cache.get_or_create(
                self.plan_key(path),
                lambda: missed.append(True) or self._translate_fresh(path),
            )
            sp.set(hit=not missed)
        return result

    def translate_uncached(self, query: QueryLike) -> TranslationResult:
        """Translate bypassing the plan cache.

        The diagnostic path behind ``explain --timing``: phase spans only
        exist on a fresh translation, so timing modes must not be answered
        from the cache.  The result is *not* inserted into the cache (the
        cached entry, if any, stays authoritative).
        """
        return self._translate_fresh(self._parse(query))

    def _translate_fresh(self, path: Path) -> TranslationResult:
        start = time.perf_counter()
        with obs.span("translate", query=str(path)) as translate_sp:
            with obs.span("resolve-strategy"):
                strategy = self.resolve_strategy(path)
            translate_sp.set(strategy=strategy.value)
            with obs.span("xpath-to-extended"):
                extended = self._front_end_for(strategy).translate(path)
            with obs.span("lower") as sp:
                program = self._back_end.translate(extended)
                if sp:
                    sp.set(operators=program.operator_profile().total)
            with obs.span("optimize", level=self._optimize_level) as sp:
                program = self._optimizer.run(program)
                if sp:
                    sp.set(operators=program.operator_profile().total)
        elapsed = time.perf_counter() - start
        return TranslationResult(
            xpath=path,
            extended=extended,
            program=program,
            translation_seconds=elapsed,
            strategy=strategy,
            optimize_level=self._optimize_level,
        )

    def to_sql(self, query: QueryLike, dialect: SQLDialect = SQLDialect.GENERIC) -> str:
        """Translate and render as SQL text."""
        return self.translate(query).sql(dialect)

    # -- query answering ------------------------------------------------------------

    def shred(self, tree: XMLTree) -> ShreddedDocument:
        """Shred a document with this translator's mapping."""
        return shred_document(tree, self._dtd, self._mapping)

    def execute(self, query: QueryLike, shredded: ShreddedDocument) -> BackendResult:
        """Translate and execute on the in-memory backend.

        The :class:`~repro.backends.memory.MemoryBackend` runs the columnar
        executor; the result's ``stats`` carry the executor's counters.
        """
        backend = MemoryBackend(shredded.database)
        return backend.execute(self.translate(query).program)

    def answer(self, query: QueryLike, shredded: ShreddedDocument) -> List[XMLNode]:
        """Answer a query over a shredded document, returning XML nodes.

        The answer is the set of nodes whose ids appear in the ``T`` column
        of the translated program's result relation, in document order.
        """
        result = self.execute(query, shredded)
        return shredded.nodes_for_ids(result.node_ids())


def answer_xpath(
    query: QueryLike,
    tree: XMLTree,
    dtd: DTD,
    config: Optional["EngineConfig"] = None,
) -> List[XMLNode]:
    """One-shot helper: shred ``tree`` and answer ``query`` through the RDBMS path."""
    translator = XPathToSQLTranslator(dtd, config=config)
    shredded = translator.shred(tree)
    return translator.answer(query, shredded)
