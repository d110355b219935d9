"""AST for extended XPath expressions and equation systems.

The grammar (Sect. 3.2)::

    E ::= eps | A | X | E/E | E UNION E | E* | E[q]
    q ::= E | text() = c | not q | q and q | q or q

plus the special empty-set expression used for pruning.  An extended XPath
*query* is a sequence of equations ``X_i = E_i`` together with a result
expression; we store equations in dependency order (every variable is
defined before it is used), which is the order EXpToSQL materialises
temporary tables in.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set

from repro._support import Node
from repro.errors import ExtendedXPathError

__all__ = [
    "Expr",
    "EQualifier",
    "EEmpty",
    "EEmptySet",
    "ELabel",
    "EVar",
    "ESlash",
    "EUnion",
    "EStar",
    "EDescendants",
    "EIntervals",
    "EQualified",
    "EPathQual",
    "ETextEquals",
    "ENot",
    "EAnd",
    "EOr",
    "Equation",
    "ExtendedXPathQuery",
    "eslash",
    "eunion",
    "folded",
    "iter_subexpressions",
    "substitute",
]


class Expr(Node):
    """Base class of extended XPath expressions.

    A class's ``_child_fields`` name its sub-expressions and, on
    :class:`EQualified`, its qualifier.  :meth:`children` returns both and
    :meth:`map_children` applies its function to both, so a rewrite's
    function takes expressions and qualifiers alike.
    """

    def variables(self) -> Set[str]:
        """All variable names occurring in this expression (including qualifiers)."""
        names: Set[str] = set()
        stack: List[Node] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, EVar):
                names.add(node.name)
            elif node._child_fields:
                stack.extend(node.children())
        return names

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


class EQualifier(Node):
    """Base class of extended XPath qualifiers.

    Their children are expressions (:class:`EPathQual`) or qualifiers.
    """

    variables = Expr.variables

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class EEmpty(Expr):
    """The empty path ``eps`` (identity on the context node)."""

    def __str__(self) -> str:
        return "."


class EEmptySet(Expr):
    """The empty-set expression; ``EMPTYSET UNION E == E`` and ``E/EMPTYSET == EMPTYSET``."""

    def __str__(self) -> str:
        return "EMPTYSET"


class ELabel(Expr):
    """A label step ``A``."""

    name: str

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def __str__(self) -> str:
        return self.name


class EVar(Expr):
    """A variable reference ``X``."""

    name: str

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def variables(self) -> Set[str]:
        return {self.name}

    def __str__(self) -> str:
        return self.name


class ESlash(Expr):
    """Concatenation ``E1/E2``."""

    left: Expr
    right: Expr

    _child_fields = ("left", "right")

    def __init__(self, left: Expr, right: Expr) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __str__(self) -> str:
        return f"{self.left}/{self.right}"


class EUnion(Expr):
    """Union ``E1 UNION E2``."""

    left: Expr
    right: Expr

    _child_fields = ("left", "right")

    def __init__(self, left: Expr, right: Expr) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


class EStar(Expr):
    """General Kleene closure ``E*`` (zero or more applications of ``E``)."""

    inner: Expr

    _child_fields = ("inner",)

    def __init__(self, inner: Expr) -> None:
        object.__setattr__(self, "inner", inner)

    def __str__(self) -> str:
        return f"({self.inner})*"


class EDescendants(Expr):
    """Opaque descendant marker used by the SQLGen-R baseline.

    ``EDescendants(source, target)`` denotes the proper-descendant relation
    from ``source``-typed nodes to ``target``-typed nodes (one or more
    edges).  It is *not* part of the paper's extended XPath; the CycleE and
    CycleEX strategies expand ``//`` into closures instead.  The SQLGen-R
    baseline keeps the marker so that EXpToSQL can translate it into a
    SQL'99 multi-relation recursive union (Sect. 3.1).
    """

    source: str
    target: str

    def __init__(self, source: str, target: str) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    def __str__(self) -> str:
        return f"DESC({self.source}, {self.target})"


class EIntervals(Expr):
    """Opaque descendant marker for the interval (pre/size) strategy.

    ``EIntervals(source, target)`` denotes the same proper-descendant
    relation as :class:`EDescendants`, but the lowering answers it with a
    range-predicate join over the ``DOC_ORDER`` numbering instead of a
    fixpoint or recursive union — the XPath-accelerator encoding.
    """

    source: str
    target: str

    def __init__(self, source: str, target: str) -> None:
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)

    def __str__(self) -> str:
        return f"INTERVAL({self.source}, {self.target})"


class EQualified(Expr):
    """A qualified expression ``E[q]``."""

    expr: Expr
    qualifier: "EQualifier"

    _child_fields = ("expr", "qualifier")

    def __init__(self, expr: Expr, qualifier: "EQualifier") -> None:
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "qualifier", qualifier)

    def __str__(self) -> str:
        return f"{self.expr}[{self.qualifier}]"


# ---------------------------------------------------------------------------
# Qualifiers
# ---------------------------------------------------------------------------


class EPathQual(EQualifier):
    """Existential qualifier ``[E]``."""

    expr: Expr

    _child_fields = ("expr",)

    def __init__(self, expr: Expr) -> None:
        object.__setattr__(self, "expr", expr)

    def __str__(self) -> str:
        return str(self.expr)


class ETextEquals(EQualifier):
    """Value qualifier ``[text() = 'c']``."""

    value: str

    def __init__(self, value: str) -> None:
        object.__setattr__(self, "value", value)

    def __str__(self) -> str:
        return f'text() = "{self.value}"'


class ENot(EQualifier):
    """Negation ``[not q]``."""

    inner: EQualifier

    _child_fields = ("inner",)

    def __init__(self, inner: EQualifier) -> None:
        object.__setattr__(self, "inner", inner)

    def __str__(self) -> str:
        return f"not({self.inner})"


class EAnd(EQualifier):
    """Conjunction ``[q1 and q2]``."""

    left: EQualifier
    right: EQualifier

    _child_fields = ("left", "right")

    def __init__(self, left: EQualifier, right: EQualifier) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


class EOr(EQualifier):
    """Disjunction ``[q1 or q2]``."""

    left: EQualifier
    right: EQualifier

    _child_fields = ("left", "right")

    def __init__(self, left: EQualifier, right: EQualifier) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


# ---------------------------------------------------------------------------
# Constructors that fold the empty set away (the pruning of Sect. 2.2 / 4.2)
# ---------------------------------------------------------------------------


def eslash(left: Expr, right: Expr, node: Optional[Expr] = None) -> Expr:
    """Concatenate two expressions, short-circuiting the empty set and ``eps``.

    When nothing folds, ``node`` (an existing ``left/right``) is returned
    in place of a new one.
    """
    if isinstance(left, EEmptySet) or isinstance(right, EEmptySet):
        return EEmptySet()
    if isinstance(left, EEmpty):
        return right
    if isinstance(right, EEmpty):
        return left
    return ESlash(left, right) if node is None else node


def eunion(left: Expr, right: Expr, node: Optional[Expr] = None) -> Expr:
    """Union of two expressions, dropping empty-set operands and duplicates.

    When nothing folds, ``node`` (an existing ``left | right``) is returned
    in place of a new one.
    """
    if isinstance(left, EEmptySet):
        return right
    if isinstance(right, EEmptySet):
        return left
    if left == right:
        return left
    return EUnion(left, right) if node is None else node


def folded(expr: Expr) -> Expr:
    """``expr`` after :func:`eslash`'s or :func:`eunion`'s folding at its root.

    Returns ``expr`` itself when nothing folds, so a rewrite that ends in
    this keeps the smart constructors' results without rebuilding nodes.
    """
    if isinstance(expr, ESlash):
        return eslash(expr.left, expr.right, expr)
    if isinstance(expr, EUnion):
        return eunion(expr.left, expr.right, expr)
    return expr


# ---------------------------------------------------------------------------
# Equations and queries
# ---------------------------------------------------------------------------


class Equation(Node):
    """A single binding ``X = E``.

    Its one child is ``expression``, so a pass rewrites an equation with
    :meth:`map_children` and keeps it when the expression comes back
    unchanged.
    """

    variable: str
    expression: Expr

    _child_fields = ("expression",)

    def __init__(self, variable: str, expression: Expr) -> None:
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "expression", expression)

    def __str__(self) -> str:
        return f"{self.variable} = {self.expression}"


class ExtendedXPathQuery:
    """An extended XPath query: equations in dependency order plus a result.

    Parameters
    ----------
    equations:
        Bindings ``X_i = E_i``; every variable used by an equation (or by the
        result) must have been defined by an *earlier* equation, and no
        variable may be defined twice.
    result:
        The result expression (commonly a variable or a union of variables).
    """

    def __init__(self, equations: Sequence[Equation], result: Expr) -> None:
        self._equations: List[Equation] = list(equations)
        self._result = result
        self._by_name: Dict[str, Expr] = {}
        defined: Set[str] = set()
        for equation in self._equations:
            if equation.variable in defined:
                raise ExtendedXPathError(
                    f"variable {equation.variable!r} is defined more than once"
                )
            undefined = equation.expression.variables() - defined
            if undefined:
                raise ExtendedXPathError(
                    f"equation for {equation.variable!r} uses undefined variables "
                    f"{sorted(undefined)}"
                )
            defined.add(equation.variable)
            self._by_name[equation.variable] = equation.expression
        undefined = result.variables() - defined
        if undefined:
            raise ExtendedXPathError(
                f"result expression uses undefined variables {sorted(undefined)}"
            )

    # -- accessors --------------------------------------------------------------

    @property
    def equations(self) -> List[Equation]:
        """The equations in dependency order."""
        return list(self._equations)

    @property
    def result(self) -> Expr:
        """The result expression."""
        return self._result

    def definition(self, variable: str) -> Expr:
        """Return the defining expression of ``variable``."""
        try:
            return self._by_name[variable]
        except KeyError:
            raise ExtendedXPathError(f"unknown variable {variable!r}") from None

    def variables(self) -> List[str]:
        """Defined variable names in definition order."""
        return [eq.variable for eq in self._equations]

    def __len__(self) -> int:
        return len(self._equations)

    def __str__(self) -> str:
        lines = [str(eq) for eq in self._equations]
        lines.append(f"RESULT = {self._result}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ExtendedXPathQuery(equations={len(self._equations)}, result={self._result})"

    # -- transformations ----------------------------------------------------------

    def pruned(self) -> "ExtendedXPathQuery":
        """Drop equations that the result does not (transitively) depend on."""
        needed: Set[str] = set(self._result.variables())
        for equation in reversed(self._equations):
            if equation.variable in needed:
                needed |= equation.expression.variables()
        equations = [eq for eq in self._equations if eq.variable in needed]
        return ExtendedXPathQuery(equations, self._result)

    def inline(self) -> Expr:
        """Expand all variables, producing a (possibly huge) regular-XPath expression.

        This realises the observation of Sect. 3.2 that a query is equivalent
        to a variable-free expression; it is exponential in the worst case
        and is provided for testing and for the CycleE baseline comparison.
        """
        bindings: Dict[str, Expr] = {}
        for equation in self._equations:
            bindings[equation.variable] = substitute(equation.expression, bindings)
        return substitute(self._result, bindings)


def substitute(expr: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """``expr`` with every variable bound in ``bindings`` replaced by its binding.

    Unbound variables are left alone.  Qualifiers are rewritten too.  Every
    slash and union folds as :func:`eslash` and :func:`eunion` do, and a
    closure over the empty set becomes ``eps``.  A subtree that none of this
    changes is returned as it is.
    """

    def visit(node: Expr) -> Expr:
        if isinstance(node, EVar):
            return bindings.get(node.name, node)
        node = node.map_children(visit)
        if isinstance(node, EStar) and isinstance(node.inner, EEmptySet):
            return EEmpty()
        return folded(node)

    return visit(expr)


def iter_subexpressions(expr: Expr) -> Iterator[Expr]:
    """Yield every sub-expression of ``expr`` in post-order (qualifiers included)."""
    for child in expr.children():
        yield from iter_subexpressions(child)
    if isinstance(expr, Expr):
        yield expr
