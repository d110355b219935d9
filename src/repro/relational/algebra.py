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
from typing import Dict, Hashable, Iterator, List, Mapping, Optional, Sequence, Tuple

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


class RAExpr:
    """Base class of relational-algebra expressions."""

    def children(self) -> Tuple["RAExpr", ...]:
        """Immediate sub-expressions."""
        return ()

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class Scan(RAExpr):
    """Reference to a base or temporary relation by name."""

    name: str

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


@dataclass(frozen=True)
class Select(RAExpr):
    """Selection: keep rows satisfying every condition."""

    input: RAExpr
    conditions: Tuple[Condition, ...]

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.input,)

    def __str__(self) -> str:
        conds = " AND ".join(str(c) for c in self.conditions)
        return f"SELECT[{conds}]({self.input})"


@dataclass(frozen=True)
class Project(RAExpr):
    """Projection onto ``columns``, optionally renamed to ``aliases``."""

    input: RAExpr
    columns: Tuple[str, ...]
    aliases: Optional[Tuple[str, ...]] = None

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.input,)

    def __str__(self) -> str:
        cols = ", ".join(self.columns)
        return f"PROJECT[{cols}]({self.input})"


@dataclass(frozen=True)
class Compose(RAExpr):
    """Composition join: ``pi_{L.F, R.T, R.V}(L |><|_{L.T = R.F} R)``.

    Both inputs must have the node columns ``(F, T, V)``; the output relates
    the origin of the left input to the target of the right input, which is
    exactly how the translation chains path steps (case 4 of EXpToSQL).
    """

    left: RAExpr
    right: RAExpr

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} . {self.right})"


@dataclass(frozen=True)
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

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return (
            f"({self.left} JOIN {self.right} ON L.{self.left_column} = "
            f"R.{self.right_column})"
        )


@dataclass(frozen=True)
class SemiJoin(RAExpr):
    """Keep left rows with at least one matching right row (qualifier check)."""

    left: RAExpr
    right: RAExpr
    left_column: str = "T"
    right_column: str = "F"

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} SEMIJOIN {self.right})"


@dataclass(frozen=True)
class AntiJoin(RAExpr):
    """Keep left rows with no matching right row (negated qualifier)."""

    left: RAExpr
    right: RAExpr
    left_column: str = "T"
    right_column: str = "F"

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} ANTIJOIN {self.right})"


@dataclass(frozen=True)
class Union(RAExpr):
    """Set union of any number of inputs (all with identical columns)."""

    inputs: Tuple[RAExpr, ...]

    def children(self) -> Tuple[RAExpr, ...]:
        return self.inputs

    def __str__(self) -> str:
        return "(" + " UNION ".join(str(i) for i in self.inputs) + ")"


@dataclass(frozen=True)
class Difference(RAExpr):
    """Set difference ``left \\ right``."""

    left: RAExpr
    right: RAExpr

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} EXCEPT {self.right})"


@dataclass(frozen=True)
class Intersect(RAExpr):
    """Set intersection."""

    left: RAExpr
    right: RAExpr

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} INTERSECT {self.right})"


@dataclass(frozen=True)
class IdentityRelation(RAExpr):
    """The identity relation ``R_id``: one ``(v, v, v.val)`` tuple per node."""

    def __str__(self) -> str:
        return "R_id"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TagProject(RAExpr):
    """Project ``(F, T, V)`` from the input and append a constant ``TAG`` column.

    Used to build the tagged working relation of the SQL'99 recursive union
    (the ``Rid`` column of Fig. 2).
    """

    input: RAExpr
    tag: str

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.input,)

    def __str__(self) -> str:
        return f"TAG[{self.tag}]({self.input})"


@dataclass(frozen=True)
class IntervalJoin(RAExpr):
    """Descendant step as a range join over the interval numbering.

    ``left`` and ``right`` are ``(F, T, V)`` relations and ``order`` is the
    document-order relation ``DOC_ORDER(T, PRE, POST, SIZE)``.  The output
    has columns ``(F, T, V)``: one row per pair ``(a, d)`` where ``a`` is a
    ``T`` of ``left``, ``d`` a ``T`` of ``right`` and ``d``'s ``PRE`` lies
    in the half-open window ``(pre_a, pre_a + size_a]`` — i.e. ``d`` is a *proper*
    descendant of ``a``; ``V`` is ``d``'s value.  This is the interval
    (XPath-accelerator) alternative to unfolding ``//`` into a fixpoint.
    """

    left: RAExpr
    right: RAExpr
    order: RAExpr

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.left, self.right, self.order)

    def __str__(self) -> str:
        return f"({self.left} IVJOIN {self.right})"


@dataclass(frozen=True)
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
    source_anchor: Optional[RAExpr] = None
    target_anchor: Optional[RAExpr] = None

    def children(self) -> Tuple[RAExpr, ...]:
        out: List[RAExpr] = [self.base]
        if self.source_anchor is not None:
            out.append(self.source_anchor)
        if self.target_anchor is not None:
            out.append(self.target_anchor)
        return tuple(out)

    def __str__(self) -> str:
        anchors = []
        if self.source_anchor is not None:
            anchors.append(f"source={self.source_anchor}")
        if self.target_anchor is not None:
            anchors.append(f"target={self.target_anchor}")
        suffix = (", " + ", ".join(anchors)) if anchors else ""
        return f"LFP({self.base}{suffix})"


@dataclass(frozen=True)
class EdgeStep:
    """One recursive branch of a SQL'99 recursive union.

    ``relation`` holds the edge tuples; a working tuple with tag
    ``parent_tag`` whose ``T`` matches the edge's ``F`` is extended with the
    edge, producing a tuple ``(origin F, edge T, edge V, child_tag)`` — this
    is the per-edge SELECT of Fig. 2, except that the origin node is kept in
    ``F`` so the recursion yields ancestor/descendant pairs directly.
    """

    relation: RAExpr
    parent_tag: str
    child_tag: str


@dataclass(frozen=True)
class RecursiveUnion(RAExpr):
    """The SQL'99 ``WITH ... RECURSIVE`` fixpoint ``phi(R, R1..Rk)`` (Sect. 3.1).

    The working relation has columns ``(F, T, V, TAG)``.  ``init`` seeds it;
    each iteration evaluates every :class:`EdgeStep` against the *entire*
    accumulated relation (the "star join" the paper criticises) and unions
    the results, until the relation stops growing.
    """

    init: RAExpr
    steps: Tuple[EdgeStep, ...]

    def children(self) -> Tuple[RAExpr, ...]:
        return (self.init,) + tuple(step.relation for step in self.steps)

    def __str__(self) -> str:
        steps = ", ".join(
            f"{step.parent_tag}->{step.child_tag}:{step.relation}" for step in self.steps
        )
        return f"WITH_RECURSIVE(init={self.init}, steps=[{steps}])"


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assignment:
    """One program step ``target <- expression``."""

    target: str
    expression: RAExpr

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
        needed = {name for name in _scan_names(self._result)}
        keep: List[Assignment] = []
        for assignment in reversed(self._assignments):
            if assignment.target in needed:
                keep.append(assignment)
                needed |= set(_scan_names(assignment.expression))
        keep.reverse()
        return Program(keep, self._result)


def _scan_names(expr: RAExpr) -> Iterator[str]:
    if isinstance(expr, Scan):
        yield expr.name
    for child in expr.children():
        yield from _scan_names(child)


def rename_scans(expr: RAExpr, renames: Mapping[str, Hashable]) -> RAExpr:
    """Rebuild ``expr`` with every ``Scan`` name in ``renames`` substituted.

    This is the canonical form of an assignment's expression: with each
    temporary it reads renamed to a representative, two structurally equal
    results denote the same relation.  The optimizer's common-subexpression
    elimination renames to the first temporary computed the same way; the
    columnar store renames to its shared-table entries (any hashable works,
    because a canonical key is compared, never evaluated).
    """
    if isinstance(expr, Scan):
        name = renames.get(expr.name)
        return expr if name is None else Scan(name)  # type: ignore[arg-type]
    if isinstance(expr, Select):
        return Select(rename_scans(expr.input, renames), expr.conditions)
    if isinstance(expr, Project):
        return Project(rename_scans(expr.input, renames), expr.columns, expr.aliases)
    if isinstance(expr, TagProject):
        return TagProject(rename_scans(expr.input, renames), expr.tag)
    if isinstance(expr, Compose):
        return Compose(rename_scans(expr.left, renames), rename_scans(expr.right, renames))
    if isinstance(expr, EquiJoin):
        return EquiJoin(
            rename_scans(expr.left, renames),
            rename_scans(expr.right, renames),
            expr.left_column,
            expr.right_column,
            expr.output,
        )
    if isinstance(expr, (SemiJoin, AntiJoin)):
        return type(expr)(
            rename_scans(expr.left, renames),
            rename_scans(expr.right, renames),
            expr.left_column,
            expr.right_column,
        )
    if isinstance(expr, Union):
        return Union(tuple(rename_scans(child, renames) for child in expr.inputs))
    if isinstance(expr, (Difference, Intersect)):
        return type(expr)(
            rename_scans(expr.left, renames), rename_scans(expr.right, renames)
        )
    if isinstance(expr, Fixpoint):
        return Fixpoint(
            rename_scans(expr.base, renames),
            None if expr.source_anchor is None else rename_scans(expr.source_anchor, renames),
            None if expr.target_anchor is None else rename_scans(expr.target_anchor, renames),
        )
    if isinstance(expr, RecursiveUnion):
        return RecursiveUnion(
            rename_scans(expr.init, renames),
            tuple(
                EdgeStep(rename_scans(step.relation, renames), step.parent_tag, step.child_tag)
                for step in expr.steps
            ),
        )
    if isinstance(expr, IntervalJoin):
        return IntervalJoin(
            rename_scans(expr.left, renames),
            rename_scans(expr.right, renames),
            rename_scans(expr.order, renames),
        )
    return expr
