"""Simplification of extended XPath expressions and equation systems.

Implements the pruning applied by the translation algorithms (Sect. 4):

* empty-set elimination — ``EMPTYSET UNION E = E`` and ``E/EMPTYSET = EMPTYSET``;
* identity elimination — ``eps/E = E``;
* duplicate-union elimination;
* equation pruning — drop ``X = EMPTYSET``, inline trivial aliases
  ``X = Y`` / ``X = A``, and drop equations the result does not depend on
  (the three pruning rules listed for CycleEX).

Each rule rewrites one node whose children are already simplified; the
rebuilding is :meth:`~repro._support.Node.map_children`'s, so a
subexpression no rule changes is kept as it is.
"""

from __future__ import annotations

from typing import Dict, List, Union

from repro.expath.ast import (
    EAnd,
    EEmpty,
    EEmptySet,
    ELabel,
    ENot,
    EOr,
    EPathQual,
    EQualified,
    EQualifier,
    EStar,
    EUnion,
    EVar,
    Equation,
    Expr,
    ExtendedXPathQuery,
    folded,
    substitute,
)

__all__ = ["simplify_expression", "simplify_query"]

# Statically true and false qualifiers, ``[eps]`` and ``[EMPTYSET]``.  While
# simplifying, a qualifier that folds to a constant folds to one of these
# forms; EQualified's rule then removes it.
_TRUE = EPathQual(EEmpty())
_FALSE = EPathQual(EEmptySet())


def _is_true(qualifier: EQualifier) -> bool:
    return isinstance(qualifier, EPathQual) and isinstance(qualifier.expr, EEmpty)


def _is_false(qualifier: EQualifier) -> bool:
    return isinstance(qualifier, EPathQual) and isinstance(qualifier.expr, EEmptySet)


def _strip_empty_branches(expr: Expr) -> Expr:
    """Remove ``eps`` branches from a union (used under a Kleene closure).

    ``(E UNION eps)* == E*``, and dropping the ``eps`` keeps the identity
    relation out of the LFP operator's input.
    """
    if isinstance(expr, EEmpty):
        return EEmptySet()
    if isinstance(expr, EUnion):
        return folded(expr.map_children(_strip_empty_branches))
    return expr


def _simplify(node: Union[Expr, EQualifier]) -> Union[Expr, EQualifier]:
    node = node.map_children(_simplify)
    if isinstance(node, EStar):
        inner = _strip_empty_branches(node.inner)
        if isinstance(inner, (EEmptySet, EEmpty)):
            return EEmpty()
        if isinstance(inner, EStar):
            return inner  # (E*)* == E*
        return node if inner is node.inner else EStar(inner)
    if isinstance(node, EQualified):
        if isinstance(node.expr, EEmptySet) or _is_false(node.qualifier):
            return EEmptySet()
        if _is_true(node.qualifier):
            return node.expr
        return node
    if isinstance(node, EQualifier):
        return _simplify_qualifier_node(node)
    return folded(node)


def _simplify_qualifier_node(node: EQualifier) -> EQualifier:
    if isinstance(node, ENot):
        if _is_true(node.inner):
            return _FALSE
        if _is_false(node.inner):
            return _TRUE
    elif isinstance(node, EAnd):
        if _is_false(node.left) or _is_false(node.right):
            return _FALSE
        if _is_true(node.left):
            return node.right
        if _is_true(node.right):
            return node.left
    elif isinstance(node, EOr):
        if _is_true(node.left) or _is_true(node.right):
            return _TRUE
        if _is_false(node.left):
            return node.right
        if _is_false(node.right):
            return node.left
    return node


def simplify_expression(expr: Expr) -> Expr:
    """Return an equivalent expression with trivial sub-expressions folded."""
    return _simplify(expr)


def simplify_query(query: ExtendedXPathQuery) -> ExtendedXPathQuery:
    """Simplify every equation, inline trivial aliases, and prune dead equations.

    Alias inlining covers the CycleEX pruning rules: equations whose
    right-hand side is the empty set, a bare variable or a single label are
    substituted away rather than kept as separate equations/temporary tables.
    """
    aliases: Dict[str, Expr] = {}
    equations: List[Equation] = []

    def simplify(expr: Expr) -> Expr:
        return _simplify(substitute(expr, aliases))

    for equation in query.equations:
        equation = equation.map_children(simplify)
        if isinstance(equation.expression, (EEmptySet, EEmpty, EVar, ELabel)):
            aliases[equation.variable] = equation.expression
            continue
        equations.append(equation)
    return ExtendedXPathQuery(equations, simplify(query.result)).pruned()
