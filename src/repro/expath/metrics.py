"""Operator counting for extended XPath queries (used by Table 5 / Exp-5).

The paper compares CycleE and CycleEX by the number of operators their
outputs require: the number of Kleene closures (which become LFP operators
in SQL), '/'-operators (joins), and unions.  :func:`count_operators` counts
them on an :class:`~repro.expath.ast.ExtendedXPathQuery`; the relational
layer offers the analogous counts on translated programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.expath.ast import (
    EQualified,
    ESlash,
    EStar,
    EUnion,
    EVar,
    Expr,
    ExtendedXPathQuery,
    iter_subexpressions,
)

__all__ = ["OperatorCounts", "count_operators"]


@dataclass
class OperatorCounts:
    """Operator totals of an extended XPath expression or query."""

    slashes: int = 0
    unions: int = 0
    stars: int = 0
    variables: int = 0
    qualifiers: int = 0

    @property
    def lfp(self) -> int:
        """Number of Kleene closures — each becomes one LFP operator in SQL."""
        return self.stars

    @property
    def total(self) -> int:
        """Total operator count ('ALL' column of Table 5)."""
        return self.slashes + self.unions + self.stars + self.qualifiers

    def __add__(self, other: "OperatorCounts") -> "OperatorCounts":
        return OperatorCounts(
            slashes=self.slashes + other.slashes,
            unions=self.unions + other.unions,
            stars=self.stars + other.stars,
            variables=self.variables + other.variables,
            qualifiers=self.qualifiers + other.qualifiers,
        )


def _count_expr(expr: Expr) -> OperatorCounts:
    counts = OperatorCounts()
    for node in iter_subexpressions(expr):
        if isinstance(node, ESlash):
            counts.slashes += 1
        elif isinstance(node, EUnion):
            counts.unions += 1
        elif isinstance(node, EStar):
            counts.stars += 1
        elif isinstance(node, EQualified):
            counts.qualifiers += 1
        elif isinstance(node, EVar):
            counts.variables += 1
    return counts


def count_operators(target: Union[Expr, ExtendedXPathQuery]) -> OperatorCounts:
    """Count operators in an expression or in every equation of a query.

    For a query, the counts of all equations plus the result expression are
    summed — each equation contributes the operators of its right-hand side
    exactly once, which is what makes the CycleEX representation compact.
    """
    if isinstance(target, ExtendedXPathQuery):
        counts = OperatorCounts()
        for equation in target.equations:
            counts += _count_expr(equation.expression)
        counts += _count_expr(target.result)
        return counts
    return _count_expr(target)
