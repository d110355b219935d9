"""Evaluation of extended XPath queries over XML trees.

The semantics (Sect. 3.2) extend the XPath semantics with:

* variables — a variable denotes its defining expression, so evaluating
  ``X`` at a set of context nodes evaluates the bound expression there;
* general Kleene closure ``E*`` — zero or more applications of ``E``
  starting from the context nodes, computed as a fixpoint.

This evaluator is the native-engine realisation of extended XPath alluded to
in Sect. 3.4 (regular-XPath-style evaluation in XML engines) and doubles as
the oracle for the extended-XPath-to-SQL translation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.errors import ExtendedXPathError
from repro.expath.ast import (
    EAnd,
    EDescendants,
    EEmpty,
    EEmptySet,
    EIntervals,
    ELabel,
    ENot,
    EOr,
    EPathQual,
    EQualified,
    EQualifier,
    ESlash,
    EStar,
    ETextEquals,
    EUnion,
    EVar,
    Expr,
    ExtendedXPathQuery,
)
from repro.xmltree.tree import XMLNode, XMLTree

__all__ = ["ExtendedXPathEvaluator", "evaluate_extended"]


class ExtendedXPathEvaluator:
    """Evaluate extended XPath expressions/queries over a fixed XML tree."""

    def __init__(self, tree: XMLTree, query: Optional[ExtendedXPathQuery] = None) -> None:
        self._tree = tree
        self._query = query

    # -- public API -------------------------------------------------------------

    def evaluate_query(self, query: ExtendedXPathQuery) -> List[XMLNode]:
        """Evaluate a full query at the virtual root (node-id order)."""
        self._query = query
        result = self._eval_at_virtual_root(query.result)
        return sorted(result, key=lambda node: node.node_id)

    def evaluate_at(self, node: XMLNode, expr: Expr) -> List[XMLNode]:
        """Evaluate an expression with ``node`` as the context node."""
        return sorted(self._eval(expr, {node}), key=lambda n: n.node_id)

    # -- internals --------------------------------------------------------------

    def _definition(self, name: str) -> Expr:
        if self._query is None:
            raise ExtendedXPathError(
                f"variable {name!r} used but no equation system is in scope"
            )
        return self._query.definition(name)

    def _eval_at_virtual_root(self, expr: Expr) -> Set[XMLNode]:
        root = self._tree.root
        if isinstance(expr, EEmptySet):
            return set()
        if isinstance(expr, EEmpty):
            return {root}
        if isinstance(expr, ELabel):
            return {root} if root.label == expr.name else set()
        if isinstance(expr, EVar):
            return self._eval_at_virtual_root(self._definition(expr.name))
        if isinstance(expr, ESlash):
            return self._eval(expr.right, self._eval_at_virtual_root(expr.left))
        if isinstance(expr, EUnion):
            return self._eval_at_virtual_root(expr.left) | self._eval_at_virtual_root(
                expr.right
            )
        if isinstance(expr, EStar):
            # E* at the virtual root: zero applications yields the virtual
            # root itself, which is not a document node; one-or-more
            # applications start from the document root's level.  Queries
            # produced by the translators never place a bare E* at the top
            # level, but we give it the natural closure-over-children meaning.
            return self._closure(expr.inner, {root})
        if isinstance(expr, (EDescendants, EIntervals)):
            # Proper descendants of the virtual root = every document node;
            # EIntervals denotes the same node set, only lowered differently.
            return {
                node for node in self._tree.nodes() if node.label == expr.target
            }
        if isinstance(expr, EQualified):
            nodes = self._eval_at_virtual_root(expr.expr)
            return {node for node in nodes if self._holds(expr.qualifier, node)}
        raise TypeError(f"unknown extended XPath expression {expr!r}")

    def _eval(self, expr: Expr, context: Set[XMLNode]) -> Set[XMLNode]:
        if not context:
            return set()
        if isinstance(expr, EEmptySet):
            return set()
        if isinstance(expr, EEmpty):
            return set(context)
        if isinstance(expr, ELabel):
            return {
                child
                for node in context
                for child in node.children
                if child.label == expr.name
            }
        if isinstance(expr, EVar):
            return self._eval(self._definition(expr.name), context)
        if isinstance(expr, ESlash):
            return self._eval(expr.right, self._eval(expr.left, context))
        if isinstance(expr, EUnion):
            return self._eval(expr.left, context) | self._eval(expr.right, context)
        if isinstance(expr, EStar):
            return self._closure(expr.inner, context)
        if isinstance(expr, (EDescendants, EIntervals)):
            out: Set[XMLNode] = set()
            for node in context:
                for descendant in node.iter_descendants():
                    if descendant is not node and descendant.label == expr.target:
                        out.add(descendant)
            return out
        if isinstance(expr, EQualified):
            nodes = self._eval(expr.expr, context)
            return {node for node in nodes if self._holds(expr.qualifier, node)}
        raise TypeError(f"unknown extended XPath expression {expr!r}")

    def _closure(self, inner: Expr, context: Set[XMLNode]) -> Set[XMLNode]:
        """Least fixpoint of applying ``inner`` zero or more times."""
        result: Set[XMLNode] = set(context)
        frontier: Set[XMLNode] = set(context)
        while frontier:
            step = self._eval(inner, frontier)
            new = step - result
            result |= new
            frontier = new
        return result

    def _holds(self, qualifier: EQualifier, node: XMLNode) -> bool:
        if isinstance(qualifier, EPathQual):
            return bool(self._eval(qualifier.expr, {node}))
        if isinstance(qualifier, ETextEquals):
            return node.value == qualifier.value
        if isinstance(qualifier, ENot):
            return not self._holds(qualifier.inner, node)
        if isinstance(qualifier, EAnd):
            return self._holds(qualifier.left, node) and self._holds(qualifier.right, node)
        if isinstance(qualifier, EOr):
            return self._holds(qualifier.left, node) or self._holds(qualifier.right, node)
        raise TypeError(f"unknown qualifier {qualifier!r}")


def evaluate_extended(tree: XMLTree, query: ExtendedXPathQuery) -> List[XMLNode]:
    """Evaluate an extended XPath query over ``tree`` at the virtual root."""
    return ExtendedXPathEvaluator(tree).evaluate_query(query)
