"""End-to-end XPath-to-SQL translation and query answering (Fig. 5).

:class:`XPathToSQLTranslator` wires the two translation steps together:

1. XPath over a (possibly recursive) DTD -> extended XPath (XPathToEXp),
   with the descendant axis expanded by CycleEX (default), CycleE, or the
   SQLGen-R recursive-union baseline;
2. extended XPath -> a relational program with the simple LFP operator
   (EXpToSQL), optionally with the Sect. 5.2 optimisations.

It only translates.  Answering a query over a document is
:class:`~repro.service.QueryService`'s job (and the pool's and the
:class:`~repro.api.Engine` facade's, both built on it).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union as TUnion

from repro import obs
from repro.core.expath_to_sql import ExtendedToSQL, TranslationOptions
from repro.core.optimize import (
    DEFAULT_OPTIMIZE_LEVEL,
    ProgramOptimizer,
    select_strategy,
)
from repro.core.plancache import PlanCache
from repro.core.xpath_to_expath import DescendantStrategy, XPathToExtended
from repro.dtd.graph import DTDGraph
from repro.dtd.model import DTD
from repro.expath.ast import ExtendedXPathQuery
from repro.expath.metrics import OperatorCounts, count_operators
from repro.relational.algebra import OperatorProfile, Program
from repro.relational.sqlgen import SQLDialect, program_to_sql
from repro.shredding.inlining import SimpleMapping
from repro.xpath.ast import Path
from repro.xpath.parser import parse_xpath

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.config import EngineConfig

__all__ = ["TranslationResult", "XPathToSQLTranslator"]

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

    def sql(self, dialect: SQLDialect = SQLDialect.GENERIC) -> str:
        """The program rendered as a SQL script in ``dialect``."""
        return program_to_sql(self.program, dialect)


class XPathToSQLTranslator:
    """Translate XPath queries over one DTD to relational programs.

    Parameters
    ----------
    dtd:
        The DTD queries range over.  Programs read the relations of its
        simplified per-type mapping (:attr:`mapping`).
    config:
        One :class:`~repro.api.EngineConfig` supplying the descendant-axis
        strategy, lowering options, optimizer level and plan-cache size;
        ``None`` means ``EngineConfig()``.

    With ``plan_cache_size > 0`` the translator keeps a private
    :class:`~repro.core.plancache.PlanCache` of that capacity, and
    :meth:`translate` becomes a lookup keyed by :meth:`plan_key`.  Caching
    is semantically invisible: a hit returns the same
    :class:`TranslationResult` a fresh translation would produce.  The
    translator then also remembers, for as many query texts as the cache
    holds plans, each text's key and parsed form, so a repeated query text
    is not parsed again.

    Example
    -------
    >>> from repro.dtd.samples import dept_dtd
    >>> translator = XPathToSQLTranslator(dept_dtd())
    >>> result = translator.translate("dept//project")
    >>> result.operator_profile().lfps >= 1
    True
    """

    def __init__(self, dtd: DTD, config: Optional["EngineConfig"] = None) -> None:
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
        self._mapping = SimpleMapping(dtd)
        self._strategy = strategy
        self._options = config.translation_options()
        # Front ends are created lazily per concrete strategy: the AUTO
        # strategy resolves per query and may use several of them.
        self._front_ends: Dict[DescendantStrategy, XPathToExtended] = {}
        self._graph: Optional[DTDGraph] = None
        if strategy is not DescendantStrategy.AUTO:
            self._front_ends[strategy] = XPathToExtended(dtd, strategy=strategy)
        self._back_end = ExtendedToSQL(self._mapping, self._options)
        self._optimize_level = level
        self._optimizer = ProgramOptimizer(
            dtd=dtd, mapping=self._mapping, level=level
        )
        self._plan_cache = (
            PlanCache(config.plan_cache_size) if config.plan_cache_size > 0 else None
        )
        # Query text -> (key, parsed query), oldest first; bounded by the
        # plan cache's capacity.
        self._texts: Dict[str, Tuple[str, Path]] = {}
        self._texts_lock = threading.Lock()

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

    def resolve_strategy(self, query: QueryLike) -> DescendantStrategy:
        """The concrete strategy used for ``query`` (resolves ``AUTO``)."""
        if self._strategy is not DescendantStrategy.AUTO:
            return self._strategy
        if self._graph is None:
            self._graph = DTDGraph(self._dtd)
        return select_strategy(self._dtd, self._parse(query), graph=self._graph)

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

    def _canonical(self, query: QueryLike) -> Tuple[str, Path]:
        """``query``'s canonical text and parsed form.

        With a plan cache, a query text seen before is looked up instead of
        parsed again.
        """
        if not isinstance(query, str):
            return str(query), query
        known = self._texts.get(query)
        if known is None:
            path = parse_xpath(query)
            known = (str(path), path)
            if self._plan_cache is not None:
                with self._texts_lock:
                    if len(self._texts) >= self._plan_cache.capacity:
                        del self._texts[next(iter(self._texts))]
                    self._texts[query] = known
        return known

    def plan_key(self, query: QueryLike) -> str:
        """The cache key of ``query``: its canonical text.

        Everything else a plan depends on (DTD, mapping, strategy, lowering
        options, optimizer level) is fixed for this translator, and an
        ``auto`` strategy resolves one query the same way every time, so
        whitespace variants of one query share an entry.
        """
        return self._canonical(query)[0]

    def translate(self, query: QueryLike) -> TranslationResult:
        """Run both translation steps and return all intermediate artifacts.

        With a plan cache this consults the cache first and only translates
        on a miss.
        """
        key, path = self._canonical(query)
        if self._plan_cache is None:
            return self._translate_fresh(path)
        missed = []
        with obs.span("plan-cache", cache=self._plan_cache.name) as sp:
            result = self._plan_cache.get_or_create(
                key, lambda: missed.append(True) or self._translate_fresh(path)
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
