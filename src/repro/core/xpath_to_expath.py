"""Algorithm XPathToEXp: rewrite XPath over a (recursive) DTD to extended XPath.

Given an XPath query ``Q`` and a DTD ``D``, the algorithm (Fig. 8) computes,
by dynamic programming over the sub-queries of ``Q`` (in post-order) and the
element types of ``D``, local translations ``x2e(p, A, B)``: an extended
XPath expression equivalent to ``p`` when evaluated at an ``A`` element and
restricted to ``B``-typed results.  Composing the local translations yields
an extended XPath query equivalent to ``Q`` over every DTD containing ``D``.

Qualifiers are rewritten by ``RewQual`` (Fig. 9), which folds qualifiers to
constants when the DTD structure alone decides them (e.g. ``[//project]`` is
statically false at element types that cannot reach ``project``); this is
the structural-join elimination the paper highlights.

The descendant axis is delegated to a pluggable strategy:

* ``CYCLEEX`` (default) — ``rec(A, B)`` variables from :class:`CycleEXIndex`
  (polynomial, the paper's contribution);
* ``CYCLEE`` — the plain regular expressions of Tarjan's CycleE
  (exponential worst case, baseline "E");
* ``RECURSIVE_UNION`` — opaque :class:`~repro.expath.ast.EDescendants`
  markers that EXpToSQL later maps to SQL'99 multi-relation recursion
  (baseline "R", SQLGen-R-style);
* ``INTERVAL`` — opaque :class:`~repro.expath.ast.EIntervals` markers that
  EXpToSQL maps to range-predicate joins over the shredded document's
  pre/size (interval) numbering — the XPath-accelerator encoding; no
  recursion at all.

A *virtual root* context (``VIRTUAL_ROOT``) whose only child is the DTD root
is used for whole-document queries, so a query beginning with the root
element's label matches the document root exactly as in the paper's
examples.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Set, Tuple, Union as TUnion

from repro.core.cycleex import CycleEXIndex
from repro.core.tarjan import CycleE
from repro.dtd.graph import DTDGraph
from repro.dtd.model import DTD
from repro.errors import XPathTranslationError
from repro.expath.ast import (
    EAnd,
    EDescendants,
    EIntervals,
    EEmpty,
    EEmptySet,
    ELabel,
    ENot,
    EOr,
    EPathQual,
    EQualified,
    EQualifier,
    ETextEquals,
    EVar,
    Equation,
    Expr,
    ExtendedXPathQuery,
    eslash,
    eunion,
)
from repro.expath.simplify import simplify_query
from repro.xpath.ast import (
    And,
    Descendant,
    EmptyPath,
    EmptySet,
    Label,
    Not,
    Or,
    Path,
    PathQual,
    Qualified,
    Qualifier,
    Slash,
    TextEquals,
    Union,
    Wildcard,
    iter_subpaths,
)

__all__ = ["DescendantStrategy", "VIRTUAL_ROOT", "XPathToExtended", "xpath_to_extended"]

# Sentinel element type for the virtual root above the document root.
VIRTUAL_ROOT = "__virtual_root__"

# Sentinel results of qualifier rewriting.
_TRUE = True
_FALSE = False


class DescendantStrategy(enum.Enum):
    """How the descendant axis ``//`` is expanded over the DTD.

    ``AUTO`` is resolved *per query* by the pipeline
    (:func:`repro.core.optimize.select_strategy`): Tarjan SCC stats of the
    DTD region the query's ``//`` steps touch pick cyclic-reach (CycleEX)
    or bounded unfolding (CycleE).  :class:`XPathToExtended` itself only
    accepts concrete strategies.
    """

    CYCLEEX = "cycleex"
    CYCLEE = "cyclee"
    RECURSIVE_UNION = "recursive-union"
    INTERVAL = "interval"
    AUTO = "auto"


class XPathToExtended:
    """Translator from the XPath fragment to extended XPath over one DTD.

    The translator caches the DTD graph, the CycleEX/CycleE tables and the
    reachability relation, so translating many queries over the same DTD is
    cheap (this is how the experiment harness uses it).
    """

    def __init__(
        self,
        dtd: DTD,
        strategy: DescendantStrategy = DescendantStrategy.CYCLEEX,
        simplify: bool = True,
    ) -> None:
        if strategy is DescendantStrategy.AUTO:
            raise ValueError(
                "DescendantStrategy.AUTO must be resolved per query by the "
                "pipeline (XPathToSQLTranslator); pass a concrete strategy"
            )
        self._dtd = dtd
        self._graph = DTDGraph(dtd)
        self._strategy = strategy
        self._simplify = simplify
        self._cycleex: Optional[CycleEXIndex] = None
        self._cyclee: Optional[CycleE] = None
        if strategy is DescendantStrategy.CYCLEEX:
            self._cycleex = CycleEXIndex(self._graph)
        elif strategy is DescendantStrategy.CYCLEE:
            self._cyclee = CycleE(self._graph)
        # descendant-or-self closure over element types, computed once.
        self._dos: Dict[str, Set[str]] = {
            a: {a} | self._graph.reachable(a) for a in self._graph.nodes
        }
        self._dos[VIRTUAL_ROOT] = {VIRTUAL_ROOT} | set(self._graph.nodes)

    # -- public API -------------------------------------------------------------

    @property
    def dtd(self) -> DTD:
        """The DTD the translator works over."""
        return self._dtd

    @property
    def strategy(self) -> DescendantStrategy:
        """The descendant-axis expansion strategy."""
        return self._strategy

    def translate(self, query: Path) -> ExtendedXPathQuery:
        """Translate ``query`` (evaluated at the virtual root) to extended XPath."""
        return _Translation(self, query).run()

    def translate_at(self, query: Path, context_type: str) -> ExtendedXPathQuery:
        """Translate ``query`` as evaluated at elements of ``context_type``.

        This is the query-answering entry point of Sect. 3.4: the result is
        equivalent to ``query`` w.r.t. ``context_type`` over every DTD that
        contains this translator's DTD.
        """
        if context_type != VIRTUAL_ROOT and not self._dtd.has_type(context_type):
            raise XPathTranslationError(f"unknown context type {context_type!r}")
        return _Translation(self, query, context_type).run()

    # -- DTD structure helpers ----------------------------------------------------

    def children_of(self, element_type: str) -> List[str]:
        """Children of ``element_type`` in the DTD graph (root for the virtual root)."""
        if element_type == VIRTUAL_ROOT:
            return [self._dtd.root]
        return self._graph.successors(element_type)

    def descendant_or_self(self, element_type: str) -> Set[str]:
        """Element types reachable from ``element_type`` via zero or more edges."""
        return self._dos[element_type]

    def is_text_type(self, element_type: str) -> bool:
        """True when ``element_type`` carries a PCDATA value."""
        return element_type in self._dtd.text_types

    # -- descendant-axis expansion -------------------------------------------------

    def rec_operand(self, source: str, target: str) -> Tuple[Expr, List[Equation]]:
        """Expression (plus extra equations) for all paths ``source -> target``.

        The expression has descendant-or-self semantics: evaluated at a
        ``source`` element it reaches every ``target`` descendant, and the
        element itself when ``source == target``.
        """
        if source == VIRTUAL_ROOT:
            if target == VIRTUAL_ROOT:
                return EEmpty(), []
            inner, equations = self.rec_operand(self._dtd.root, target)
            return eslash(ELabel(self._dtd.root), inner), equations
        if target == VIRTUAL_ROOT:
            return EEmptySet(), []
        if target not in self.descendant_or_self(source):
            return EEmptySet(), []

        if self._strategy is DescendantStrategy.CYCLEEX:
            assert self._cycleex is not None
            return self._cycleex.result_expression(source, target), []
        if self._strategy is DescendantStrategy.CYCLEE:
            assert self._cyclee is not None
            return self._cyclee.rec(source, target), []
        if self._strategy is DescendantStrategy.INTERVAL:
            # Interval encoding: opaque range-join marker, eps for self.
            marker: Expr = EIntervals(source, target)
            if source == target:
                marker = eunion(EEmpty(), marker)
            return marker, []
        # SQLGen-R style: opaque marker, plus eps for the self case.
        marker = EDescendants(source, target)
        if source == target:
            marker = eunion(EEmpty(), marker)
        return marker, []

    def shared_equations(self) -> List[Equation]:
        """Equations shared by every query (the CycleEX elimination table)."""
        if self._strategy is DescendantStrategy.CYCLEEX and self._cycleex is not None:
            return self._cycleex.equations
        return []


class _Translation:
    """One run of the dynamic program for a single query."""

    def __init__(
        self, translator: XPathToExtended, query: Path, context: str = VIRTUAL_ROOT
    ) -> None:
        self._t = translator
        self._query = query
        self._context = context
        # x2e[(id(p), A, B)] -> operand expression (variable or small expr)
        self._x2e: Dict[Tuple[int, str, str], Expr] = {}
        # reach[(id(p), A)] -> set of target types
        self._reach: Dict[Tuple[int, str], Set[str]] = {}
        self._equations: List[Equation] = []
        self._counter = 0

    # -- bookkeeping ------------------------------------------------------------

    def _types(self) -> List[str]:
        return [VIRTUAL_ROOT] + self._t.dtd.element_types

    def _operand(self, expression: Expr, hint: str) -> Expr:
        """Bind a non-trivial expression to a fresh variable and return the operand."""
        if isinstance(expression, (EEmpty, EEmptySet, ELabel, EVar, EDescendants, EIntervals)):
            return expression
        self._counter += 1
        name = f"Q{self._counter}_{hint}"
        self._equations.append(Equation(name, expression))
        return EVar(name)

    def _set(self, path: Path, context: str, target: str, expression: Expr) -> None:
        if isinstance(expression, EEmptySet):
            return
        key = (id(path), context, target)
        self._x2e[key] = expression
        self._reach.setdefault((id(path), context), set()).add(target)

    def _get(self, path: Path, context: str, target: str) -> Expr:
        return self._x2e.get((id(path), context, target), EEmptySet())

    def _targets(self, path: Path, context: str) -> Set[str]:
        return self._reach.get((id(path), context), set())

    # -- the dynamic program -------------------------------------------------------

    def run(self) -> ExtendedXPathQuery:
        # Keep only distinct object identities in post-order; equal sub-trees
        # at different positions are translated independently (their results
        # are identical, the duplication is harmless and keeps indexing by id
        # simple).
        ordered: List[Path] = []
        seen_ids: Set[int] = set()
        for path in iter_subpaths(self._query):
            if id(path) not in seen_ids:
                seen_ids.add(id(path))
                ordered.append(path)

        types = self._types()
        for path in ordered:
            for context in types:
                self._translate_local(path, context)

        result_targets = sorted(self._targets(self._query, self._context))
        result: Expr = EEmptySet()
        for target in result_targets:
            result = eunion(result, self._get(self._query, self._context, target))

        equations = self._t.shared_equations() + self._equations
        query = ExtendedXPathQuery(equations, result).pruned()
        if self._t._simplify:
            query = simplify_query(query)
        return query

    def _translate_local(self, path: Path, context: str) -> None:
        if isinstance(path, EmptySet):
            return
        if isinstance(path, EmptyPath):
            self._set(path, context, context, EEmpty())
            return
        if isinstance(path, Label):
            if path.name in self._t.children_of(context):
                self._set(path, context, path.name, ELabel(path.name))
            return
        if isinstance(path, Wildcard):
            for child in self._t.children_of(context):
                self._set(path, context, child, ELabel(child))
            return
        if isinstance(path, Slash):
            self._translate_slash(path, context)
            return
        if isinstance(path, Descendant):
            self._translate_descendant(path, context)
            return
        if isinstance(path, Union):
            self._translate_union(path, context)
            return
        if isinstance(path, Qualified):
            self._translate_qualified(path, context)
            return
        raise XPathTranslationError(f"unsupported path expression {path!r}")

    def _translate_slash(self, path: Slash, context: str) -> None:
        by_target: Dict[str, Expr] = {}
        for middle in sorted(self._targets(path.left, context)):
            left_operand = self._get(path.left, context, middle)
            for target in sorted(self._targets(path.right, middle)):
                right_operand = self._get(path.right, middle, target)
                piece = eslash(left_operand, right_operand)
                by_target[target] = eunion(by_target.get(target, EEmptySet()), piece)
        for target, expression in by_target.items():
            self._set(
                path, context, target, self._operand(expression, f"{context}_{target}")
            )

    def _translate_descendant(self, path: Descendant, context: str) -> None:
        by_target: Dict[str, Expr] = {}
        for middle in sorted(self._t.descendant_or_self(context)):
            targets = self._targets(path.inner, middle)
            if not targets:
                continue
            rec_expr, extra = self._t.rec_operand(context, middle)
            if isinstance(rec_expr, EEmptySet):
                continue
            self._equations.extend(extra)
            rec_operand = self._operand(rec_expr, f"rec_{context}_{middle}")
            for target in sorted(targets):
                inner_operand = self._get(path.inner, middle, target)
                piece = eslash(rec_operand, inner_operand)
                by_target[target] = eunion(by_target.get(target, EEmptySet()), piece)
        for target, expression in by_target.items():
            self._set(
                path, context, target, self._operand(expression, f"{context}_{target}")
            )

    def _translate_union(self, path: Union, context: str) -> None:
        targets = self._targets(path.left, context) | self._targets(path.right, context)
        for target in sorted(targets):
            expression = eunion(
                self._get(path.left, context, target),
                self._get(path.right, context, target),
            )
            self._set(
                path, context, target, self._operand(expression, f"{context}_{target}")
            )

    def _translate_qualified(self, path: Qualified, context: str) -> None:
        for target in sorted(self._targets(path.path, context)):
            base = self._get(path.path, context, target)
            rewritten = self._rewrite_qualifier(path.qualifier, target)
            if rewritten is _FALSE:
                continue
            if rewritten is _TRUE:
                self._set(path, context, target, base)
                continue
            expression = EQualified(base, rewritten)
            self._set(
                path, context, target, self._operand(expression, f"{context}_{target}")
            )

    # -- RewQual -------------------------------------------------------------------

    def _rewrite_qualifier(self, qualifier: Qualifier, at_type: str):
        """Rewrite a qualifier at elements of ``at_type``.

        Returns ``True`` when the qualifier is statically true given the DTD
        structure, ``False`` when statically false, and an extended XPath
        qualifier otherwise (Fig. 9).
        """
        if isinstance(qualifier, PathQual):
            return self._rewrite_path_qualifier(qualifier.path, at_type)
        if isinstance(qualifier, TextEquals):
            if not self._t.is_text_type(at_type):
                return _FALSE
            return ETextEquals(qualifier.value)
        if isinstance(qualifier, Not):
            inner = self._rewrite_qualifier(qualifier.inner, at_type)
            if inner is _TRUE:
                return _FALSE
            if inner is _FALSE:
                return _TRUE
            return ENot(inner)
        if isinstance(qualifier, And):
            left = self._rewrite_qualifier(qualifier.left, at_type)
            right = self._rewrite_qualifier(qualifier.right, at_type)
            if left is _FALSE or right is _FALSE:
                return _FALSE
            if left is _TRUE:
                return right
            if right is _TRUE:
                return left
            return EAnd(left, right)
        if isinstance(qualifier, Or):
            left = self._rewrite_qualifier(qualifier.left, at_type)
            right = self._rewrite_qualifier(qualifier.right, at_type)
            if left is _TRUE or right is _TRUE:
                return _TRUE
            if left is _FALSE:
                return right
            if right is _FALSE:
                return left
            return EOr(left, right)
        raise XPathTranslationError(f"unsupported qualifier {qualifier!r}")

    def _rewrite_path_qualifier(self, path: Path, at_type: str):
        targets = sorted(self._targets(path, at_type))
        if not targets:
            return _FALSE
        # [p] is statically true when the empty path is contained in p, i.e.
        # the context node itself is among the results regardless of data.
        if self._contains_empty_path(path):
            return _TRUE
        expression: Expr = EEmptySet()
        for target in targets:
            expression = eunion(expression, self._get(path, at_type, target))
        if isinstance(expression, EEmptySet):
            return _FALSE
        return EPathQual(expression)

    @staticmethod
    def _contains_empty_path(path: Path) -> bool:
        if isinstance(path, EmptyPath):
            return True
        if isinstance(path, Union):
            return _Translation._contains_empty_path(path.left) or _Translation._contains_empty_path(
                path.right
            )
        return False


def xpath_to_extended(
    query: Path,
    dtd: DTD,
    strategy: DescendantStrategy = DescendantStrategy.CYCLEEX,
    simplify: bool = True,
) -> ExtendedXPathQuery:
    """Translate one query over ``dtd``; convenience wrapper around the class."""
    return XPathToExtended(dtd, strategy=strategy, simplify=simplify).translate(query)
