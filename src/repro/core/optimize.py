"""The program-optimizer layer: Sect. 5.2 rewrites over translated programs.

The two *data-dependent* optimisations — seeding ``(E)*`` with a small
relation instead of ``R_id``, and pushing selections into the LFP operator —
are implemented inside :class:`~repro.core.expath_to_sql.ExtendedToSQL` and
controlled by :class:`~repro.core.expath_to_sql.TranslationOptions`.  This
module provides the option presets plus the *program-level* pass pipeline
that runs after lowering:

* :func:`eliminate_common_subexpressions` — merge assignments with identical
  right-hand sides (the "extracting common sub-queries" step of Fig. 10);
* :func:`simplify_program` — selection merging, projection collapapse/
  identity elimination, union flattening and deduplication (dead-code
  clean-ups that need no schema knowledge);
* :func:`prune_unreachable` — DTD-graph reachability pruning: infer, per
  expression, which (parent type, node type) pairs its tuples can possibly
  carry; sub-programs the schema proves empty collapse to the constant
  :class:`~repro.relational.algebra.EmptyRelation` before any SQL is
  rendered, and operators over empty inputs fold away;
* :func:`optimize_program` / :class:`ProgramOptimizer` — the levelled
  driver (level 0 = raw lowering output, 1 = schema-free clean-ups,
  2 = clean-ups plus reachability pruning);
* :func:`select_strategy` — per-query automatic descendant-strategy
  selection: Tarjan SCC stats of the DTD region touched by the query's
  ``//`` steps decide between the interval range join (recursive or wide
  regions), bounded unfolding (CycleE regular expressions) and
  cyclic-reach (CycleEX, the no-``//`` default);
* :func:`baseline_options` / :func:`standard_options` /
  :func:`push_selection_options` — the three lowering configurations
  compared by the experiments.
"""

from __future__ import annotations

from operator import is_
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union as TUnion

from repro import obs
from repro.core.expath_to_sql import IMPOSSIBLE_F, TranslationOptions
from repro.core.xpath_to_expath import VIRTUAL_ROOT, DescendantStrategy
from repro.dtd.graph import DTDGraph
from repro.dtd.model import DTD
from repro.relational.algebra import (
    AntiJoin,
    Assignment,
    Compose,
    Difference,
    EmptyRelation,
    EquiJoin,
    Fixpoint,
    IdentityRelation,
    Intersect,
    IntervalJoin,
    Program,
    Project,
    RAExpr,
    RecursiveUnion,
    Scan,
    Select,
    SemiJoin,
    TagProject,
    Union,
    rename_scans,
)
from repro.relational.schema import F, NODE_COLUMNS, T, V
from repro.shredding.inlining import MISSING_VALUE, ROOT_PARENT, SimpleMapping
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
    Union as PathUnion,
    Wildcard,
)

__all__ = [
    "DEFAULT_OPTIMIZE_LEVEL",
    "OPTIMIZE_LEVELS",
    "ProgramOptimizer",
    "baseline_options",
    "standard_options",
    "push_selection_options",
    "eliminate_common_subexpressions",
    "simplify_program",
    "prune_unreachable",
    "optimize_program",
    "select_strategy",
]

# The optimizer levels exposed as ``--optimize-level``:
#   0 — raw lowering output (what the paper's Fig. 10 emits, verbatim);
#   1 — schema-free clean-ups: CSE, selection/projection collapse, union
#       flattening and dead-assignment elimination;
#   2 — level 1 plus DTD-graph reachability pruning (schema-aware
#       constant-empty folding).
OPTIMIZE_LEVELS: Tuple[int, ...] = (0, 1, 2)
DEFAULT_OPTIMIZE_LEVEL = 2


def baseline_options() -> TranslationOptions:
    """No data-dependent optimisation: full ``R_id`` seeds, unanchored LFPs."""
    return TranslationOptions(use_small_seed=False, push_selections=False)


def standard_options() -> TranslationOptions:
    """The paper's default implementation: small ``(E)*`` seeds, no push."""
    return TranslationOptions(use_small_seed=True, push_selections=False)


def push_selection_options() -> TranslationOptions:
    """Small seeds plus selections pushed into the LFP operator (Exp-2)."""
    return TranslationOptions(use_small_seed=True, push_selections=True)


def eliminate_common_subexpressions(program: Program) -> Program:
    """Merge assignments whose (rename-normalised) expressions are identical.

    Two temporaries computed from structurally equal expressions always hold
    the same relation, so later references to the duplicate are redirected to
    the first occurrence and the duplicate assignment is dropped.  The key is
    the renamed expression itself (:func:`~repro.relational.algebra.rename_scans`,
    the form the columnar store shares temporaries by), so every field takes
    part — join columns, projection aliases, the type of a selection constant.
    """
    renames: Dict[str, str] = {}
    canonical: Dict[RAExpr, str] = {}
    assignments: List[Assignment] = []

    def rename(expr: RAExpr) -> RAExpr:
        return rename_scans(expr, renames)

    for assignment in program.assignments:
        assignment = assignment.map_children(rename)
        first = canonical.setdefault(assignment.expression, assignment.target)
        if first != assignment.target:
            renames[assignment.target] = first
            continue
        assignments.append(assignment)
    return Program(assignments, rename(program.result)).pruned()


# ---------------------------------------------------------------------------
# Schema-free clean-ups (level 1)
# ---------------------------------------------------------------------------


_FTV = tuple(NODE_COLUMNS)
_TAGGED = tuple(NODE_COLUMNS) + ("TAG",)
# The constant-empty relation every rewrite folds to.
_EMPTY = EmptyRelation()


def _columns_of(expr: RAExpr, schema_env: Dict[str, Tuple[str, ...]]) -> Optional[Tuple[str, ...]]:
    """Static column tuple of ``expr``, or ``None`` when it is not derivable.

    ``schema_env`` maps temporary names to the columns of their defining
    expression; base-relation scans are assumed to carry the node columns
    only when the caller seeded them into the environment.
    """
    if isinstance(expr, Scan):
        return schema_env.get(expr.name)
    if isinstance(expr, (IdentityRelation, EmptyRelation, Compose, Fixpoint, IntervalJoin)):
        return _FTV
    if isinstance(expr, (Select, SemiJoin, AntiJoin, Difference, Intersect)):
        first = expr.input if isinstance(expr, Select) else expr.left
        return _columns_of(first, schema_env)
    if isinstance(expr, Project):
        return tuple(expr.aliases or expr.columns)
    if isinstance(expr, (TagProject, RecursiveUnion)):
        return _TAGGED
    if isinstance(expr, Union):
        return _columns_of(expr.inputs[0], schema_env) if expr.inputs else None
    if isinstance(expr, EquiJoin):
        return tuple(alias for _, _, alias in expr.output)
    return None


def _simplify_node(expr: RAExpr, schema_env: Dict[str, Tuple[str, ...]]) -> RAExpr:
    """The clean-up rules at one node whose children are already clean.

    Returns ``expr`` itself when no rule applies.
    """
    if isinstance(expr, Select):
        inner = expr.input
        if isinstance(inner, Select):
            # Merge adjacent selections into one conjunctive filter.
            merged = list(inner.conditions)
            for condition in expr.conditions:
                if condition not in merged:
                    merged.append(condition)
            return Select(inner.input, tuple(merged))
        if isinstance(inner, EmptyRelation):
            return inner
        return expr
    if isinstance(expr, Project):
        inner = expr.input
        aliases = tuple(expr.aliases or expr.columns)
        columns = tuple(expr.columns)
        if isinstance(inner, Project):
            # Compose the projections: our input columns name the inner
            # projection's output columns.
            inner_aliases = tuple(inner.aliases or inner.columns)
            mapping = dict(zip(inner_aliases, inner.columns))
            if all(column in mapping for column in columns):
                return Project(
                    inner.input, tuple(mapping[c] for c in columns), aliases
                )
        if columns == aliases and _columns_of(inner, schema_env) == columns:
            # Identity projection over a same-shaped input: a no-op on set
            # semantics relations.
            return inner
        return expr
    if isinstance(expr, Union):
        flattened: List[RAExpr] = []
        for child in expr.inputs:
            if isinstance(child, Union):
                flattened.extend(child.inputs)
            else:
                flattened.append(child)
        # Deduplicate structurally equal branches (the first of each is
        # kept), then drop constant-empty ones (keeping at least one operand
        # so the node stays well-formed).
        children = list(dict.fromkeys(flattened))
        children = [c for c in children if not isinstance(c, EmptyRelation)] or children[:1]
        if len(children) == 1:
            return children[0]
        if len(children) == len(expr.inputs) and all(map(is_, children, expr.inputs)):
            return expr
        return Union(tuple(children))
    if isinstance(expr, (Compose, Intersect, IntervalJoin)):
        if isinstance(expr.left, EmptyRelation) or isinstance(expr.right, EmptyRelation):
            return _EMPTY
        return expr
    if isinstance(expr, SemiJoin):
        if isinstance(expr.right, EmptyRelation) and _columns_of(expr.left, schema_env) == _FTV:
            return _EMPTY
        return expr
    if isinstance(expr, AntiJoin):
        return expr.left if isinstance(expr.right, EmptyRelation) else expr
    if isinstance(expr, Difference):
        if isinstance(expr.right, EmptyRelation) or isinstance(expr.left, EmptyRelation):
            return expr.left
        return expr
    if isinstance(expr, Fixpoint):
        source, target = expr.source_anchor, expr.target_anchor
        if (
            isinstance(expr.base, EmptyRelation)
            or isinstance(source, EmptyRelation)
            or (isinstance(target, EmptyRelation) and source is None)
        ):
            # An empty anchor admits no seed tuples, so the closure is empty.
            return _EMPTY
        return expr
    return expr


def simplify_program(program: Program) -> Program:
    """Schema-free clean-ups: merge selections, collapse projections, flatten
    and deduplicate unions, fold operators over constant-empty inputs, and
    drop assignments the result no longer needs.

    One bottom-up pass per expression; a subtree that no rule changes is
    kept as it is."""
    schema_env: Dict[str, Tuple[str, ...]] = {}

    def simplify(expr: RAExpr) -> RAExpr:
        return _simplify_node(expr.map_children(simplify), schema_env)

    assignments: List[Assignment] = []
    for assignment in program.assignments:
        assignment = assignment.map_children(simplify)
        columns = _columns_of(assignment.expression, schema_env)
        if columns is not None:
            schema_env[assignment.target] = columns
        assignments.append(assignment)
    return Program(assignments, simplify(program.result)).pruned()


# ---------------------------------------------------------------------------
# DTD-graph reachability pruning (level 2)
# ---------------------------------------------------------------------------

# F-side sentinel for the document root's parent value ``'_'``.
_EXTERNAL = "__external__"

_Pair = Tuple[str, str]
_Pairs = FrozenSet[_Pair]


class _PairAnalysis:
    """Infer, per expression, the possible (F type, T type) pairs of its tuples.

    Types are DTD element-type names; the F side additionally admits
    :data:`_EXTERNAL` for the ``'_'`` parent of the document root.  The
    analysis is *conservative*: an expression it cannot model precisely maps
    to the full pair universe, so an empty inferred set is a proof — under
    the storage mapping's invariants — that the expression denotes the empty
    relation on every conforming document.
    """

    def __init__(self, dtd: DTD, mapping: SimpleMapping) -> None:
        graph = DTDGraph(dtd)
        self._graph = graph
        self._types: List[str] = list(graph.nodes)
        self._text_types: Set[str] = set(dtd.text_types)
        self._root = dtd.root
        self._base: Dict[str, _Pairs] = {}
        for element_type in self._types:
            pairs: Set[_Pair] = {
                (parent, element_type) for parent in graph.predecessors(element_type)
            }
            if element_type == self._root:
                pairs.add((_EXTERNAL, element_type))
            self._base[mapping.relation_for(element_type)] = frozenset(pairs)
        self._universe: _Pairs = frozenset(
            (f, t) for f in self._types + [_EXTERNAL] for t in self._types
        )
        self._identity: _Pairs = frozenset((t, t) for t in self._types)
        self._env: Dict[str, _Pairs] = {}
        # Memo keyed by node identity: the folding pass queries is_empty at
        # every node of every subtree, which without this would recompute
        # the full (closure-running) analysis of shared subexpressions.
        # Safe because temporaries are defined before any expression that
        # scans them is analysed, and env entries are never rewritten.
        self._memo: Dict[int, _Pairs] = {}

    @property
    def universe(self) -> _Pairs:
        """The full pair set (the analysis' "don't know" value)."""
        return self._universe

    def define(self, target: str, expression: RAExpr) -> None:
        """Record the pair set of a program temporary."""
        self._env[target] = self.pairs(expression)

    def is_empty(self, expr: RAExpr) -> bool:
        """True when the schema proves ``expr`` denotes the empty relation."""
        return not self.pairs(expr)

    # -- the transfer functions -------------------------------------------------

    def pairs(self, expr: RAExpr) -> _Pairs:
        """The possible (F type, T type) pairs of ``expr``'s tuples."""
        key = id(expr)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._compute_pairs(expr)
            self._memo[key] = cached
        return cached

    def _compute_pairs(self, expr: RAExpr) -> _Pairs:
        if isinstance(expr, Scan):
            if expr.name in self._env:
                return self._env[expr.name]
            return self._base.get(expr.name, self._universe)
        if isinstance(expr, EmptyRelation):
            return frozenset()
        if isinstance(expr, IdentityRelation):
            return self._identity
        if isinstance(expr, Select):
            return self._select_pairs(expr)
        if isinstance(expr, Project):
            inner = self.pairs(expr.input)
            if not inner:
                return frozenset()
            columns = tuple(expr.columns)
            aliases = tuple(expr.aliases or expr.columns)
            if columns == _FTV and aliases == _FTV:
                return inner
            if columns == (T, T, V) and aliases == _FTV:
                # The identity-over-targets seed: F becomes the old T.
                return frozenset((t, t) for _, t in inner)
            if columns[:2] == (F, T) and aliases[:2] == (F, T):
                # Any projection keeping F and T in place preserves pairs.
                return inner
            return self._universe
        if isinstance(expr, TagProject):
            return self.pairs(expr.input)
        if isinstance(expr, Compose):
            left = self.pairs(expr.left)
            if not left:
                return frozenset()
            right = self.pairs(expr.right)
            return frozenset(
                (f, t) for f, m in left for m2, t in right if m2 == m
            )
        if isinstance(expr, EquiJoin):
            if not self.pairs(expr.left) or not self.pairs(expr.right):
                return frozenset()
            return self._universe
        if isinstance(expr, SemiJoin):
            left = self.pairs(expr.left)
            if not left:
                return frozenset()
            right = self.pairs(expr.right)
            if not right:
                return frozenset()
            keys = self._column_types(right, expr.right_column)
            if keys is None:
                return left
            index = 0 if expr.left_column == F else 1 if expr.left_column == T else None
            if index is None:
                return left
            return frozenset(pair for pair in left if pair[index] in keys)
        if isinstance(expr, AntiJoin):
            return self.pairs(expr.left)
        if isinstance(expr, Union):
            out: Set[_Pair] = set()
            for child in expr.inputs:
                out |= self.pairs(child)
            return frozenset(out)
        if isinstance(expr, Difference):
            return self.pairs(expr.left)
        if isinstance(expr, Intersect):
            return self.pairs(expr.left) & self.pairs(expr.right)
        if isinstance(expr, Fixpoint):
            return self._fixpoint_pairs(expr)
        if isinstance(expr, RecursiveUnion):
            return self._recursive_union_pairs(expr)
        if isinstance(expr, IntervalJoin):
            left = self.pairs(expr.left)
            if not left:
                return frozenset()
            right = self.pairs(expr.right)
            if not right:
                return frozenset()
            # Output F is the left side's T (the ancestor node); a pair is
            # possible only when the descendant type is graph-reachable.
            ancestors = {t for _, t in left}
            descendants = {t for _, t in right}
            return frozenset(
                (ancestor, descendant)
                for ancestor in ancestors
                for descendant in descendants
                if descendant in self._graph.reachable(ancestor)
            )
        return self._universe

    def _column_types(self, pairs: _Pairs, column: str) -> Optional[Set[str]]:
        if column == F:
            return {f for f, _ in pairs}
        if column == T:
            return {t for _, t in pairs}
        return None

    def _select_pairs(self, expr: Select) -> _Pairs:
        pairs = self.pairs(expr.input)
        for condition in expr.conditions:
            if not pairs:
                break
            if condition.column == F and condition.op == "=":
                if condition.value == ROOT_PARENT:
                    pairs = frozenset(p for p in pairs if p[0] == _EXTERNAL)
                else:
                    # Only node ids can match; the lowering's impossible-F
                    # sentinel (and any non-id constant) keeps EXTERNAL out.
                    pairs = frozenset(p for p in pairs if p[0] != _EXTERNAL)
                    if condition.value == IMPOSSIBLE_F:
                        pairs = frozenset()
            elif condition.column == F and condition.op == "!=":
                if condition.value != ROOT_PARENT:
                    continue
                pairs = frozenset(p for p in pairs if p[0] != _EXTERNAL)
            elif condition.column == V and condition.op == "=":
                if condition.value != MISSING_VALUE:
                    # Only PCDATA-carrying types store real values.
                    pairs = frozenset(p for p in pairs if p[1] in self._text_types)
            # T and TAG conditions (and V inequalities) prune nothing at the
            # type level; they are kept conservative.
        return pairs

    def _fixpoint_pairs(self, expr: Fixpoint) -> _Pairs:
        base = self.pairs(expr.base)
        if not base:
            return frozenset()
        closure = self._closure(base, base)
        if expr.source_anchor is not None:
            anchor = self.pairs(expr.source_anchor)
            if not anchor:
                return frozenset()
            allowed = {t for _, t in anchor}
            closure = frozenset(p for p in closure if p[0] in allowed)
        elif expr.target_anchor is not None:
            anchor = self.pairs(expr.target_anchor)
            if not anchor:
                return frozenset()
            allowed = {f for f, _ in anchor}
            closure = frozenset(p for p in closure if p[1] in allowed)
        return closure

    def _recursive_union_pairs(self, expr: RecursiveUnion) -> _Pairs:
        init = self.pairs(expr.init)
        if not init:
            return frozenset()
        steps: Set[_Pair] = set()
        for step in expr.steps:
            steps |= self.pairs(step.relation)
        return self._closure(init, frozenset(steps))

    @staticmethod
    def _closure(seed: _Pairs, edges: _Pairs) -> _Pairs:
        """Pairs reachable by extending ``seed`` through ``edges`` any number
        of times (joining seed T against edge F)."""
        by_source: Dict[str, Set[str]] = {}
        for f, t in edges:
            by_source.setdefault(f, set()).add(t)
        result: Set[_Pair] = set(seed)
        frontier = set(seed)
        while frontier:
            new: Set[_Pair] = set()
            for f, t in frontier:
                for target in by_source.get(t, ()):
                    candidate = (f, target)
                    if candidate not in result:
                        new.add(candidate)
            result |= new
            frontier = new
        return frozenset(result)


class _EmptinessFolder:
    """Rewrite a program, collapsing provably empty subtrees to EmptyRelation."""

    def __init__(self, analysis: _PairAnalysis, schema_env: Dict[str, Tuple[str, ...]]) -> None:
        self._analysis = analysis
        self._schema_env = schema_env

    def fold(self, expr: RAExpr) -> RAExpr:
        analysis = self._analysis
        if analysis.is_empty(expr) and _columns_of(expr, self._schema_env) == _FTV:
            return _EMPTY
        if isinstance(expr, (AntiJoin, Difference)) and analysis.is_empty(expr.right):
            # No right rows can ever match: the operator passes left through.
            return self.fold(expr.left)
        if isinstance(expr, Union):
            live = [child for child in expr.inputs if not analysis.is_empty(child)]
            live = live or list(expr.inputs[:1])
            if len(live) == 1:
                return self.fold(live[0])
            if len(live) < len(expr.inputs):
                return Union(tuple(self.fold(child) for child in live))
        return expr.map_children(self.fold)


def prune_unreachable(
    program: Program, dtd: DTD, mapping: Optional[SimpleMapping] = None
) -> Program:
    """DTD-graph reachability pruning (the schema-aware level-2 pass).

    Every subexpression whose possible (parent type, node type) pairs are
    empty under the DTD graph is replaced by the constant
    :class:`~repro.relational.algebra.EmptyRelation`; unions drop dead
    branches, anti-joins and differences against dead probes collapse to
    their left input, and assignments the result no longer reaches are
    eliminated.  Semantics are preserved on every document conforming to
    ``dtd`` (which shredded inputs are by construction).
    """
    mapping = mapping or SimpleMapping(dtd)
    analysis = _PairAnalysis(dtd, mapping)
    schema_env: Dict[str, Tuple[str, ...]] = {
        name: _FTV for name in mapping.relation_names()
    }
    folder = _EmptinessFolder(analysis, schema_env)
    assignments: List[Assignment] = []
    for assignment in program.assignments:
        analysis.define(assignment.target, assignment.expression)
        assignment = assignment.map_children(folder.fold)
        columns = _columns_of(assignment.expression, schema_env)
        if columns is not None:
            schema_env[assignment.target] = columns
        assignments.append(assignment)
    return Program(assignments, folder.fold(program.result)).pruned()


# ---------------------------------------------------------------------------
# The levelled driver
# ---------------------------------------------------------------------------


class ProgramOptimizer:
    """The reusable pass pipeline: one instance per (DTD, mapping, level).

    Construction precomputes the reachability analysis inputs once, so a
    translator (or a serving layer) can run :meth:`run` per query without
    re-deriving the DTD graph each time.
    """

    def __init__(
        self,
        dtd: Optional[DTD] = None,
        mapping: Optional[SimpleMapping] = None,
        level: int = DEFAULT_OPTIMIZE_LEVEL,
    ) -> None:
        if level not in OPTIMIZE_LEVELS:
            raise ValueError(
                f"optimize level must be one of {OPTIMIZE_LEVELS}, got {level!r}"
            )
        self._level = level
        self._dtd = dtd
        self._mapping = mapping or (SimpleMapping(dtd) if dtd is not None else None)

    @property
    def level(self) -> int:
        """The configured optimizer level."""
        return self._level

    def run(self, program: Program) -> Program:
        """Apply the passes of the configured level to ``program``."""
        if self._level <= 0:
            return program
        if self._level >= 2 and self._dtd is not None and self._mapping is not None:
            program = self._pass("prune-unreachable", program, lambda p: (
                prune_unreachable(p, self._dtd, self._mapping)
            ))
        program = self._pass("simplify", program, simplify_program)
        return self._pass("cse", program, eliminate_common_subexpressions)

    @staticmethod
    def _pass(name, program, transform):
        # Operator-count deltas are computed only when a trace is active:
        # operator_profile() walks the whole program and must stay off the
        # un-traced hot path.
        with obs.span(f"optimize-pass:{name}") as sp:
            if sp:
                sp.set(operators_before=program.operator_profile().total)
            program = transform(program)
            if sp:
                sp.set(operators_after=program.operator_profile().total)
        return program


def optimize_program(
    program: Program,
    level: int = DEFAULT_OPTIMIZE_LEVEL,
    dtd: Optional[DTD] = None,
    mapping: Optional[SimpleMapping] = None,
) -> Program:
    """One-shot convenience wrapper around :class:`ProgramOptimizer`."""
    return ProgramOptimizer(dtd=dtd, mapping=mapping, level=level).run(program)


# ---------------------------------------------------------------------------
# Automatic descendant-strategy selection
# ---------------------------------------------------------------------------

# An acyclic descendant region unfolds into at most this many label paths
# before the optimizer prefers the fixpoint-based translation: beyond it the
# regular-expression rewriting approaches the exponential blow-up of the
# paper's Example 3.3 (complete DAGs).
_UNFOLD_PATH_LIMIT = 64


def _descendant_regions(dtd: DTD, graph: DTDGraph, query: Path) -> List[Set[str]]:
    """The DTD regions touched by each ``//`` step of ``query``.

    Possible context types are tracked through the query (a coarse version
    of the translation's dynamic program); each descendant step contributes
    the descendant-or-self closure of its possible contexts.  Supersets are
    fine — the result steers strategy choice, never correctness.
    """
    regions: List[Set[str]] = []
    dos_cache: Dict[str, Set[str]] = {}

    def descendant_or_self(element_type: str) -> Set[str]:
        if element_type not in dos_cache:
            dos_cache[element_type] = {element_type} | graph.reachable(element_type)
        return dos_cache[element_type]

    def children(context: str) -> List[str]:
        if context == VIRTUAL_ROOT:
            return [dtd.root]
        return graph.successors(context)

    def walk_path(path: Path, contexts: Set[str]) -> Set[str]:
        if isinstance(path, EmptyPath):
            return set(contexts)
        if isinstance(path, EmptySet):
            return set()
        if isinstance(path, Label):
            if any(path.name in children(context) for context in contexts):
                return {path.name}
            return set()
        if isinstance(path, Wildcard):
            out: Set[str] = set()
            for context in contexts:
                out.update(children(context))
            return out
        if isinstance(path, Slash):
            middle = walk_path(path.left, contexts)
            return walk_path(path.right, middle)
        if isinstance(path, Descendant):
            expanded: Set[str] = set()
            for context in contexts:
                if context == VIRTUAL_ROOT:
                    expanded.add(VIRTUAL_ROOT)
                    expanded |= descendant_or_self(dtd.root)
                else:
                    expanded |= descendant_or_self(context)
            regions.append(expanded - {VIRTUAL_ROOT})
            return walk_path(path.inner, expanded)
        if isinstance(path, PathUnion):
            return walk_path(path.left, contexts) | walk_path(path.right, contexts)
        if isinstance(path, Qualified):
            targets = walk_path(path.path, contexts)
            walk_qualifier(path.qualifier, targets)
            return targets
        return set(contexts)

    def walk_qualifier(qualifier: Qualifier, contexts: Set[str]) -> None:
        if isinstance(qualifier, PathQual):
            walk_path(qualifier.path, contexts)
        elif isinstance(qualifier, Not):
            walk_qualifier(qualifier.inner, contexts)
        elif isinstance(qualifier, (And, Or)):
            walk_qualifier(qualifier.left, contexts)
            walk_qualifier(qualifier.right, contexts)
        # TextEquals touches no further region.

    walk_path(query, {VIRTUAL_ROOT})
    return regions


def select_strategy(
    dtd: DTD,
    query: TUnion[str, Path],
    graph: Optional[DTDGraph] = None,
) -> DescendantStrategy:
    """Choose a descendant strategy for ``query`` from the touched DTD region.

    Tarjan SCC stats decide: if any ``//`` step's region intersects a
    recursive SCC (size > 1, or a self-loop), reachability genuinely needs
    transitive closure and the interval encoding's single range join beats
    iterating a fixpoint; the same holds when an acyclic region would unfold
    into more label paths than :data:`_UNFOLD_PATH_LIMIT` (the Example 3.3
    blow-up).  If every region is acyclic *and* narrow, CycleE's plain
    regular expressions (unfolding) produce smaller, recursion-free
    programs.  Queries without ``//`` translate identically under any
    strategy, so the cheaper-to-index CycleEX is used.
    """
    if isinstance(query, str):
        from repro.xpath.parser import parse_xpath

        query = parse_xpath(query)
    graph = graph or DTDGraph(dtd)
    regions = [region for region in _descendant_regions(dtd, graph, query) if region]
    if not regions:
        return DescendantStrategy.CYCLEEX
    region: Set[str] = set()
    for touched in regions:
        region |= touched
    recursive_nodes: Set[str] = set()
    for component in graph.strongly_connected_components():
        if len(component) > 1 or graph.has_edge(component[0], component[0]):
            recursive_nodes.update(component)
    if region & recursive_nodes:
        return DescendantStrategy.INTERVAL
    # The region is acyclic (it is successor-closed, so every cycle through
    # it would lie inside it): bound the unfolding width.
    counts: Dict[str, int] = {}

    def downward_paths(node: str) -> int:
        if node in counts:
            return counts[node]
        total = 1
        for successor in graph.successors(node):
            if successor in region:
                total += downward_paths(successor)
                if total > _UNFOLD_PATH_LIMIT:
                    break
        counts[node] = total
        return total

    if max(downward_paths(node) for node in region) > _UNFOLD_PATH_LIMIT:
        return DescendantStrategy.INTERVAL
    return DescendantStrategy.CYCLEE
