"""Relational-algebra AST for translated programs.

A translated query is a :class:`Program`: an ordered list of assignments
``temp <- expr`` plus a result expression, mirroring the paper's output
``R_e <- e2s(e)`` lists (Sect. 5.1).  Expressions cover:

* ``Scan`` — a base or temporary relation;
* ``Select`` / ``Project`` — selection and projection (with rename);
* ``Compose`` — the composition join ``pi_{L.F, R.T, R.V}(L |><| L.T=R.F R)``
  which is the only join shape the translation emits for path steps;
* ``EquiJoin`` — a general equi-join (used by the SQLGen-R baseline and the
  shared-inlining examples);
* ``SemiJoin`` / ``AntiJoin`` — qualifier and negated-qualifier filtering;
* ``Union`` / ``Difference`` / ``Intersect``;
* ``IdentityRelation`` — the ``R_id`` relation of Sect. 5.1;
* ``Fixpoint`` — the paper's simple LFP operator ``Phi(R)`` with optional
  anchors implementing "pushing selections into the LFP" (Sect. 5.2);
* ``RecursiveUnion`` — the SQL'99 multi-relation fixpoint
  ``phi(R, R1..Rk)`` used by the SQLGen-R baseline (Sect. 3.1).

Programs know how to count their operators (joins / unions / LFPs), which is
what Table 5 and Exp-5 report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro._support import Node

__all__ = [
    "RAExpr",
    "Scan",
    "Condition",
    "Select",
    "Project",
    "Compose",
    "EquiJoin",
    "SemiJoin",
    "AntiJoin",
    "Union",
    "Difference",
    "Intersect",
    "IdentityRelation",
    "EmptyRelation",
    "TagProject",
    "IntervalJoin",
    "Fixpoint",
    "EdgeStep",
    "RecursiveUnion",
    "Assignment",
    "Program",
    "OperatorProfile",
    "rename_scans",
]


class RAExpr(Node):
    """Base class of relational-algebra expressions.

    :meth:`children` lists the immediate sub-expressions and
    :meth:`map_children` rebuilds a node from new ones, both from the
    ``_child_fields`` each class declares.
    """

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


class Scan(RAExpr):
    """Reference to a base or temporary relation by name."""

    name: str

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    def __str__(self) -> str:
        return str(self.name)


@dataclass(frozen=True, eq=False)
class Condition:
    """An atomic selection condition ``column op value``.

    ``op`` is one of ``'='`` and ``'!='``; values are compared for equality
    against stored values (which are strings or ``None``).  Two conditions
    are equal only when their values also have the same type: ``1``,
    ``1.0`` and ``True`` compare equal in Python but are distinct
    constants, so expressions that differ only there stay apart.
    """

    column: str
    op: str
    value: object

    def _identity(self) -> Tuple[object, ...]:
        return (self.column, self.op, type(self.value), self.value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Condition):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __str__(self) -> str:
        return f"{self.column} {self.op} {self.value!r}"


class Select(RAExpr):
    """Selection: keep rows satisfying every condition."""

    input: RAExpr
    conditions: Tuple[Condition, ...]

    _child_fields = ("input",)

    def __init__(self, input: RAExpr, conditions: Tuple[Condition, ...]) -> None:
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "conditions", conditions)

    def __str__(self) -> str:
        conds = " AND ".join(str(c) for c in self.conditions)
        return f"SELECT[{conds}]({self.input})"


class Project(RAExpr):
    """Projection onto ``columns``, optionally renamed to ``aliases``."""

    input: RAExpr
    columns: Tuple[str, ...]
    aliases: Optional[Tuple[str, ...]]

    _child_fields = ("input",)

    def __init__(
        self,
        input: RAExpr,
        columns: Tuple[str, ...],
        aliases: Optional[Tuple[str, ...]] = None,
    ) -> None:
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "aliases", aliases)

    def __str__(self) -> str:
        cols = ", ".join(self.columns)
        return f"PROJECT[{cols}]({self.input})"


class Compose(RAExpr):
    """Composition join: ``pi_{L.F, R.T, R.V}(L |><|_{L.T = R.F} R)``.

    Both inputs must have the node columns ``(F, T, V)``; the output relates
    the origin of the left input to the target of the right input, which is
    exactly how the translation chains path steps (case 4 of EXpToSQL).
    """

    left: RAExpr
    right: RAExpr

    _child_fields = ("left", "right")

    def __init__(self, left: RAExpr, right: RAExpr) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} . {self.right})"


class EquiJoin(RAExpr):
    """General equi-join with explicit output columns.

    ``output`` lists ``(side, column, alias)`` triples where ``side`` is
    ``'L'`` or ``'R'``.
    """

    left: RAExpr
    right: RAExpr
    left_column: str
    right_column: str
    output: Tuple[Tuple[str, str, str], ...]

    _child_fields = ("left", "right")

    def __init__(
        self,
        left: RAExpr,
        right: RAExpr,
        left_column: str,
        right_column: str,
        output: Tuple[Tuple[str, str, str], ...],
    ) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "left_column", left_column)
        object.__setattr__(self, "right_column", right_column)
        object.__setattr__(self, "output", output)

    def __str__(self) -> str:
        return (
            f"({self.left} JOIN {self.right} ON L.{self.left_column} = "
            f"R.{self.right_column})"
        )


class SemiJoin(RAExpr):
    """Keep left rows with at least one matching right row (qualifier check)."""

    left: RAExpr
    right: RAExpr
    left_column: str
    right_column: str

    _child_fields = ("left", "right")

    def __init__(
        self,
        left: RAExpr,
        right: RAExpr,
        left_column: str = "T",
        right_column: str = "F",
    ) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "left_column", left_column)
        object.__setattr__(self, "right_column", right_column)

    def __str__(self) -> str:
        return f"({self.left} SEMIJOIN {self.right})"


class AntiJoin(RAExpr):
    """Keep left rows with no matching right row (negated qualifier)."""

    left: RAExpr
    right: RAExpr
    left_column: str
    right_column: str

    _child_fields = ("left", "right")

    def __init__(
        self,
        left: RAExpr,
        right: RAExpr,
        left_column: str = "T",
        right_column: str = "F",
    ) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "left_column", left_column)
        object.__setattr__(self, "right_column", right_column)

    def __str__(self) -> str:
        return f"({self.left} ANTIJOIN {self.right})"


class Union(RAExpr):
    """Set union of any number of inputs (all with identical columns)."""

    inputs: Tuple[RAExpr, ...]

    _child_fields = ("inputs*",)

    def __init__(self, inputs: Tuple[RAExpr, ...]) -> None:
        object.__setattr__(self, "inputs", inputs)

    def __str__(self) -> str:
        return "(" + " UNION ".join(str(i) for i in self.inputs) + ")"


class Difference(RAExpr):
    """Set difference ``left \\ right``."""

    left: RAExpr
    right: RAExpr

    _child_fields = ("left", "right")

    def __init__(self, left: RAExpr, right: RAExpr) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} EXCEPT {self.right})"


class Intersect(RAExpr):
    """Set intersection."""

    left: RAExpr
    right: RAExpr

    _child_fields = ("left", "right")

    def __init__(self, left: RAExpr, right: RAExpr) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __str__(self) -> str:
        return f"({self.left} INTERSECT {self.right})"


class IdentityRelation(RAExpr):
    """The identity relation ``R_id``: one ``(v, v, v.val)`` tuple per node."""

    def __str__(self) -> str:
        return "R_id"


class EmptyRelation(RAExpr):
    """The constant-empty ``(F, T, V)`` relation.

    Produced by the optimizer's reachability pruning (Sect. 5.2 spirit):
    a sub-program the DTD graph proves can match nothing collapses to this
    node, which costs nothing to evaluate — unlike the lowering's
    ``sigma_{F = '__none__'}(R_id)`` encoding, which still scans the whole
    identity relation.
    """

    def __str__(self) -> str:
        return "EMPTY"


class TagProject(RAExpr):
    """Project ``(F, T, V)`` from the input and append a constant ``TAG`` column.

    Used to build the tagged working relation of the SQL'99 recursive union
    (the ``Rid`` column of Fig. 2).
    """

    input: RAExpr
    tag: str

    _child_fields = ("input",)

    def __init__(self, input: RAExpr, tag: str) -> None:
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "tag", tag)

    def __str__(self) -> str:
        return f"TAG[{self.tag}]({self.input})"


class IntervalJoin(RAExpr):
    """Descendant step as a range join over the interval numbering.

    ``left`` and ``right`` are ``(F, T, V)`` relations and ``order`` is the
    document-order relation ``DOC_ORDER(T, PRE, SIZE)``.  The output
    has columns ``(F, T, V)``: one row per pair ``(a, d)`` where ``a`` is a
    ``T`` of ``left``, ``d`` a ``T`` of ``right`` and ``d``'s ``PRE`` lies
    in the half-open window ``(pre_a, pre_a + size_a]`` — i.e. ``d`` is a *proper*
    descendant of ``a``; ``V`` is ``d``'s value.  This is the interval
    (XPath-accelerator) alternative to unfolding ``//`` into a fixpoint.
    """

    left: RAExpr
    right: RAExpr
    order: RAExpr

    _child_fields = ("left", "right", "order")

    def __init__(self, left: RAExpr, right: RAExpr, order: RAExpr) -> None:
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "order", order)

    def __str__(self) -> str:
        return f"({self.left} IVJOIN {self.right})"


class Fixpoint(RAExpr):
    """The simple LFP operator ``Phi(R)`` of Sect. 3.3 (with push-in anchors).

    Semantics (forward mode)::

        R0 <- base            (restricted to F in pi_T(source_anchor) if given)
        Ri <- Ri-1 UNION  pi_{Ri-1.F, base.T, base.V}(Ri-1 |><|_{Ri-1.T = base.F} base)

    until no new tuples appear; the result is the 1-or-more-step closure.
    When ``target_anchor`` is given (and ``source_anchor`` is not) the
    closure is computed backwards from tuples whose ``T`` appears in
    ``pi_F(target_anchor)`` — the second push-selection case of Sect. 5.2.
    """

    base: RAExpr
    source_anchor: Optional[RAExpr]
    target_anchor: Optional[RAExpr]

    _child_fields = ("base", "source_anchor", "target_anchor")

    def __init__(
        self,
        base: RAExpr,
        source_anchor: Optional[RAExpr] = None,
        target_anchor: Optional[RAExpr] = None,
    ) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "source_anchor", source_anchor)
        object.__setattr__(self, "target_anchor", target_anchor)

    def __str__(self) -> str:
        anchors = []
        if self.source_anchor is not None:
            anchors.append(f"source={self.source_anchor}")
        if self.target_anchor is not None:
            anchors.append(f"target={self.target_anchor}")
        suffix = (", " + ", ".join(anchors)) if anchors else ""
        return f"LFP({self.base}{suffix})"


class EdgeStep(Node):
    """One recursive branch of a SQL'99 recursive union.

    ``relation`` holds the edge tuples; a working tuple with tag
    ``parent_tag`` whose ``T`` matches the edge's ``F`` is extended with the
    edge, producing a tuple ``(origin F, edge T, edge V, child_tag)`` — this
    is the per-edge SELECT of Fig. 2, except that the origin node is kept in
    ``F`` so the recursion yields ancestor/descendant pairs directly.

    A step is a part of its union (see :class:`repro._support.Node`): its
    ``relation`` is one of the union's children.
    """

    relation: RAExpr
    parent_tag: str
    child_tag: str

    _child_fields = ("relation",)
    _part = True

    def __init__(self, relation: RAExpr, parent_tag: str, child_tag: str) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "parent_tag", parent_tag)
        object.__setattr__(self, "child_tag", child_tag)


class RecursiveUnion(RAExpr):
    """The SQL'99 ``WITH ... RECURSIVE`` fixpoint ``phi(R, R1..Rk)`` (Sect. 3.1).

    The working relation has columns ``(F, T, V, TAG)``.  ``init`` seeds it;
    each iteration evaluates every :class:`EdgeStep` against the *entire*
    accumulated relation (the "star join" the paper criticises) and unions
    the results, until the relation stops growing.
    """

    init: RAExpr
    steps: Tuple[EdgeStep, ...]

    _child_fields = ("init", "steps*")

    def __init__(self, init: RAExpr, steps: Tuple[EdgeStep, ...]) -> None:
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "steps", steps)

    def __str__(self) -> str:
        steps = ", ".join(
            f"{step.parent_tag}->{step.child_tag}:{step.relation}" for step in self.steps
        )
        return f"WITH_RECURSIVE(init={self.init}, steps=[{steps}])"


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


class Assignment(Node):
    """One program step ``target <- expression``.

    Its one child is ``expression``, so a pass rewrites an assignment with
    :meth:`map_children` and keeps it when the expression comes back
    unchanged.
    """

    target: str
    expression: RAExpr

    _child_fields = ("expression",)

    def __init__(self, target: str, expression: RAExpr) -> None:
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "expression", expression)

    def __str__(self) -> str:
        return f"{self.target} <- {self.expression}"


@dataclass
class OperatorProfile:
    """Operator totals of a program (the quantities reported in Table 5)."""

    joins: int = 0
    unions: int = 0
    lfps: int = 0
    recursive_unions: int = 0
    selections: int = 0
    projections: int = 0
    differences: int = 0

    @property
    def total(self) -> int:
        """Total operators ('ALL' in Table 5): joins + unions + LFPs + recursions."""
        return self.joins + self.unions + self.lfps + self.recursive_unions

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (handy for reports)."""
        return {
            "joins": self.joins,
            "unions": self.unions,
            "lfps": self.lfps,
            "recursive_unions": self.recursive_unions,
            "selections": self.selections,
            "projections": self.projections,
            "differences": self.differences,
            "total": self.total,
        }


class Program:
    """An ordered list of assignments plus a result expression.

    Assignments are in dependency order: an assignment may only reference
    temporaries defined by earlier assignments (or base relations).  The
    executor may evaluate them eagerly in order, or lazily on demand from
    the result expression (the paper's top-down strategy).
    """

    def __init__(self, assignments: Sequence[Assignment], result: RAExpr) -> None:
        self._assignments = list(assignments)
        self._result = result

    @property
    def assignments(self) -> List[Assignment]:
        """The assignments in dependency order."""
        return list(self._assignments)

    @property
    def result(self) -> RAExpr:
        """The result expression."""
        return self._result

    def temporaries(self) -> List[str]:
        """Names of all temporaries defined by the program."""
        return [a.target for a in self._assignments]

    def expression_for(self, target: str) -> RAExpr:
        """Return the expression assigned to ``target``."""
        for assignment in self._assignments:
            if assignment.target == target:
                return assignment.expression
        raise KeyError(target)

    def __len__(self) -> int:
        return len(self._assignments)

    def __str__(self) -> str:
        lines = [str(a) for a in self._assignments]
        lines.append(f"RESULT <- {self._result}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Program(assignments={len(self._assignments)})"

    # -- analysis ----------------------------------------------------------------

    def iter_expressions(self) -> Iterator[RAExpr]:
        """Yield every expression node in the program (all assignments + result)."""

        def walk(expr: RAExpr) -> Iterator[RAExpr]:
            yield expr
            for child in expr.children():
                yield from walk(child)

        for assignment in self._assignments:
            yield from walk(assignment.expression)
        yield from walk(self._result)

    def operator_profile(self) -> OperatorProfile:
        """Count joins, unions, LFPs etc. across the whole program."""
        profile = OperatorProfile()
        for expr in self.iter_expressions():
            if isinstance(expr, (Compose, EquiJoin, SemiJoin, AntiJoin, IntervalJoin)):
                profile.joins += 1
            elif isinstance(expr, Union):
                profile.unions += max(0, len(expr.inputs) - 1)
            elif isinstance(expr, Fixpoint):
                profile.lfps += 1
            elif isinstance(expr, RecursiveUnion):
                profile.recursive_unions += 1
                # Each edge step contributes one join and one union per
                # iteration; statically we count them once.
                profile.joins += len(expr.steps)
                profile.unions += len(expr.steps)
            elif isinstance(expr, Select):
                profile.selections += 1
            elif isinstance(expr, (Project, TagProject)):
                profile.projections += 1
            elif isinstance(expr, (Difference, Intersect)):
                profile.differences += 1
        return profile

    def pruned(self) -> "Program":
        """Drop assignments whose temporaries the result never (transitively) uses."""
        needed = _scan_names(self._result)
        keep: List[Assignment] = []
        for assignment in reversed(self._assignments):
            if assignment.target in needed:
                keep.append(assignment)
                needed |= _scan_names(assignment.expression)
        keep.reverse()
        return Program(keep, self._result)


def _scan_names(expr: RAExpr) -> Set[str]:
    """The names of the relations ``expr`` scans."""
    names: Set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Scan):
            names.add(node.name)
        else:
            stack.extend(node.children())
    return names


def rename_scans(expr: RAExpr, renames: Mapping[str, Hashable]) -> RAExpr:
    """``expr`` with every ``Scan`` name in ``renames`` substituted.

    This is the canonical form of an assignment's expression: with each
    temporary it reads renamed to a representative, two structurally equal
    results denote the same relation.  The optimizer's common-subexpression
    elimination renames to the first temporary computed the same way; the
    columnar store renames to its shared-table entries (any hashable works,
    because a canonical key is compared, never evaluated).  A subtree that
    reads no renamed scan is returned as it is.
    """

    def rename(node: RAExpr) -> RAExpr:
        if isinstance(node, Scan):
            name = renames.get(node.name)
            return node if name is None else Scan(name)  # type: ignore[arg-type]
        return node.map_children(rename)

    return rename(expr)
