"""Algorithm EXpToSQL: extended XPath to relational algebra / SQL with LFP.

The translation (Fig. 10) produces a :class:`~repro.relational.algebra.Program`
— an ordered list of temporary-table assignments plus a result expression —
from an :class:`~repro.expath.ast.ExtendedXPathQuery` and a storage mapping.

Every translated (sub-)relation follows the invariant of Sect. 5.1: it holds
tuples ``(f, t, v)`` such that ``t`` is reachable from ``f`` via the
sub-expression and ``v`` is ``t``'s text value.  The cases are:

* label ``A``            -> scan of ``R_A``;
* variable ``X``         -> scan of the temporary table assigned to ``X``;
* ``E1/E2``              -> composition join on ``T = F``;
* ``E1 UNION E2``        -> union;
* ``(E)*``               -> the simple LFP operator ``Phi(R)`` union an
  identity relation (``R_id`` or, with the Sect. 5.2 optimisation, the much
  smaller identity over the preceding step's targets);
* ``E[q]``               -> semi-joins / anti-joins / selections depending on
  the qualifier structure;
* ``DESC(A, B)`` markers -> the SQL'99 multi-relation recursive union used
  by the SQLGen-R baseline;
* ``INTERVAL(A, B)`` markers -> a non-recursive range join against the
  ``DOC_ORDER`` pre/size numbering (the interval descendant strategy).

The final result is wrapped in ``sigma_{F = '_'}`` so only tuples rooted at
the document root remain, as in Fig. 10 line 26.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.dtd.graph import DTDGraph
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
    ESlash,
    EStar,
    ETextEquals,
    EUnion,
    EVar,
    Expr,
    ExtendedXPathQuery,
)
from repro.relational.algebra import (
    AntiJoin,
    Assignment,
    Compose,
    Condition,
    Difference,
    EdgeStep,
    Fixpoint,
    IdentityRelation,
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
)
from repro.relational.schema import DOC_ORDER, F, T, V
from repro.shredding.inlining import ROOT_PARENT, SimpleMapping

__all__ = ["IMPOSSIBLE_F", "TranslationOptions", "ExtendedToSQL", "extended_to_sql"]

# F-column sentinel that matches no node id and no root parent: selecting
# it from R_id is the lowering's encoding of the constant-empty relation.
# The optimizer's reachability analysis recognises it by this exact value.
IMPOSSIBLE_F = "__none__"


@dataclass(frozen=True)
class TranslationOptions:
    """Knobs controlling how extended XPath is lowered to relational algebra.

    Attributes
    ----------
    use_small_seed:
        Translate ``(E)*`` (and ``eps``) using the identity over the targets
        of the preceding step instead of the full ``R_id`` relation — the
        "Handling (E)*" optimisation of Sect. 5.2.  Requires threading the
        preceding step through variable definitions, which creates anchored
        variants of temporaries.
    push_selections:
        Additionally anchor the LFP operator itself on the preceding step's
        targets (``C = R.F IN pi_T(R1) AND ...``), i.e. "pushing selections
        into the LFP" of Sect. 5.2.

    The lowering always applies Fig. 10's final ``sigma_{F = '_'}`` root
    filter (line 26).
    """

    use_small_seed: bool = True
    push_selections: bool = False


class ExtendedToSQL:
    """Translate extended XPath queries into relational programs."""

    def __init__(
        self,
        mapping: SimpleMapping,
        options: Optional[TranslationOptions] = None,
    ) -> None:
        self._mapping = mapping
        self._options = options or TranslationOptions()
        self._dtd = mapping.dtd
        self._graph = DTDGraph(self._dtd)

    # -- public API -------------------------------------------------------------

    def translate(self, query: ExtendedXPathQuery) -> Program:
        """Translate a full extended XPath query into a relational program."""
        return _Lowering(self, query).run()

    # -- helpers used by the lowering ---------------------------------------------

    @property
    def options(self) -> TranslationOptions:
        """The active translation options."""
        return self._options

    @property
    def mapping(self) -> SimpleMapping:
        """The storage mapping in use."""
        return self._mapping

    def relation_scan(self, element_type: str) -> RAExpr:
        """Scan of the base relation storing ``element_type`` nodes."""
        return Scan(self._mapping.relation_for(element_type))

    def descendant_types(self, source: str, target: str) -> Tuple[Set[str], Set[Tuple[str, str]]]:
        """Node and edge sets of the DTD subgraph on paths from source to target.

        Used to build the SQL'99 recursive union of the SQLGen-R baseline:
        only element types that lie on some path from ``source`` to
        ``target`` (the "query graph" of Sect. 3.1) take part in the
        recursion.
        """
        reach_from_source = {source} | self._graph.reachable(source)
        reaches_target = {
            node
            for node in self._graph.nodes
            if node == target or target in self._graph.reachable(node)
        }
        nodes = reach_from_source & reaches_target
        edges = {
            (parent, child)
            for parent in nodes
            for child in self._graph.successors(parent)
            if child in nodes
        }
        return nodes, edges


class _Lowering:
    """One translation run: holds the assignment list being built."""

    def __init__(self, translator: ExtendedToSQL, query: ExtendedXPathQuery) -> None:
        self._t = translator
        self._query = query
        self._assignments: List[Assignment] = []
        self._temp_counter = 0
        # Cache of translated equation variables: (variable, anchor temp name
        # or None) -> temp name holding the translation.
        self._variable_temps: Dict[Tuple[str, Optional[str]], str] = {}

    # -- temp management ----------------------------------------------------------

    def _fresh(self, hint: str) -> str:
        self._temp_counter += 1
        safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in hint)
        return f"T{self._temp_counter}_{safe}"

    def _materialize(self, expression: RAExpr, hint: str) -> Scan:
        """Assign ``expression`` to a fresh temporary and return its scan."""
        if isinstance(expression, Scan):
            return expression
        name = self._fresh(hint)
        self._assignments.append(Assignment(name, expression))
        return Scan(name)

    # -- driver -------------------------------------------------------------------

    def run(self) -> Program:
        result = self._translate(self._query.result, left=None)
        result = Select(result, (Condition(F, "=", ROOT_PARENT),))
        program = Program(self._assignments, result)
        return program.pruned()

    # -- variable handling ----------------------------------------------------------

    def _variable_scan(self, name: str, left: Optional[Scan]) -> RAExpr:
        """Scan of the temporary holding variable ``name``.

        Without selection pushing the anchor is ignored and every use shares
        one temporary.  With ``push_selections`` a separate anchored variant
        is created per distinct anchoring relation, so closures and identity
        seeds deep inside the equation system are restricted to the nodes
        that can actually join with the preceding step (the Sect. 5.2
        rewrite applied across equation boundaries).
        """
        thread_anchor = self._t.options.push_selections
        anchor_key = left.name if (thread_anchor and left is not None) else None
        key = (name, anchor_key)
        if key in self._variable_temps:
            return Scan(self._variable_temps[key])
        definition = self._query.definition(name)
        translated = self._translate(definition, left if thread_anchor else None)
        temp = self._materialize(translated, name if anchor_key is None else f"{name}_anch")
        self._variable_temps[key] = temp.name
        return temp

    # -- expression translation -------------------------------------------------------

    def _identity_for(self, left: Optional[Scan]) -> RAExpr:
        """Identity relation: small (targets of ``left``) when allowed, else R_id."""
        if left is not None and self._t.options.use_small_seed:
            return Project(left, (T, T, V), (F, T, V))
        return IdentityRelation()

    def _translate(self, expr: Expr, left: Optional[Scan]) -> RAExpr:
        if isinstance(expr, EEmptySet):
            # An empty relation: selecting an impossible F value from R_id.
            return Select(IdentityRelation(), (Condition(F, "=", IMPOSSIBLE_F),))
        if isinstance(expr, EEmpty):
            return self._identity_for(left)
        if isinstance(expr, ELabel):
            scan = self._t.relation_scan(expr.name)
            if left is not None and self._t.options.push_selections:
                # Push the preceding step into the scan (Sect. 5.2: compute
                # the prefix joins first and restrict what feeds the LFP).
                return SemiJoin(scan, left, left_column=F, right_column=T)
            return scan
        if isinstance(expr, EVar):
            return self._variable_scan(expr.name, left)
        if isinstance(expr, ESlash):
            left_translated = self._translate(expr.left, left)
            left_ref = self._materialize(left_translated, "step")
            right_translated = self._translate(expr.right, left_ref)
            return Compose(left_ref, right_translated)
        if isinstance(expr, EUnion):
            return Union(
                (self._translate(expr.left, left), self._translate(expr.right, left))
            )
        if isinstance(expr, EStar):
            return self._translate_star(expr, left)
        if isinstance(expr, EDescendants):
            return self._translate_descendants(expr, left)
        if isinstance(expr, EIntervals):
            return self._translate_intervals(expr, left)
        if isinstance(expr, EQualified):
            base = self._translate(expr.expr, left)
            base_ref = self._materialize(base, "qual_base")
            return self._apply_qualifier(base_ref, expr.qualifier)
        raise XPathTranslationError(f"cannot translate expression {expr!r}")

    def _translate_star(self, expr: EStar, left: Optional[Scan]) -> RAExpr:
        inner = self._translate(expr.inner, None)
        base_ref = self._materialize(inner, "lfp_base")
        anchor = left if (left is not None and self._t.options.push_selections) else None
        fixpoint = Fixpoint(base_ref, source_anchor=anchor)
        identity = self._identity_for(left)
        return Union((fixpoint, identity))

    def _translate_descendants(self, expr: EDescendants, left: Optional[Scan]) -> RAExpr:
        """SQL'99 recursive union for the SQLGen-R baseline (Sect. 3.1).

        The working relation carries ``(F, T, V, TAG)`` where ``F`` is the
        *origin* node (a ``source``-typed node), so the result composes with
        the rest of the program as an ordinary binary relation; each
        iteration still evaluates one join and one union per DTD edge of the
        query graph, which is the cost profile the paper attributes to the
        ``with ... recursive`` black box.
        """
        from repro.core.xpath_to_expath import VIRTUAL_ROOT

        source = expr.source
        if source == VIRTUAL_ROOT:
            source = self._t.mapping.dtd.root
        nodes, edges = self._t.descendant_types(source, expr.target)
        if not nodes:
            return Select(IdentityRelation(), (Condition(F, "=", IMPOSSIBLE_F),))

        # Initialization: edges leaving a source-typed node, restricted (via
        # a semi-join) to actual source nodes — or to the preceding step's
        # targets when a left context is available.
        init_parts: List[RAExpr] = []
        restrict: RAExpr = left if left is not None else self._t.relation_scan(source)
        for child in sorted(self._t.mapping.dtd.children(source)):
            if child not in nodes:
                continue
            child_scan = self._t.relation_scan(child)
            restricted = SemiJoin(child_scan, restrict, left_column=F, right_column=T)
            init_parts.append(TagProject(restricted, child))
        if not init_parts:
            return Select(IdentityRelation(), (Condition(F, "=", IMPOSSIBLE_F),))

        init_union: RAExpr = init_parts[0] if len(init_parts) == 1 else Union(tuple(init_parts))
        steps = tuple(
            EdgeStep(relation=self._t.relation_scan(child), parent_tag=parent, child_tag=child)
            for parent, child in sorted(edges)
        )
        recursive = RecursiveUnion(init_union, steps)
        recursive_ref = self._materialize(recursive, f"desc_{source}_{expr.target}")
        selected = Select(recursive_ref, (Condition("TAG", "=", expr.target),))
        return Project(selected, (F, T, V), (F, T, V))

    def _translate_intervals(self, expr: EIntervals, left: Optional[Scan]) -> RAExpr:
        """Range join over the pre/size numbering (the interval strategy).

        The ancestor candidates are the targets of the preceding step when
        one is available, otherwise all ``source``-typed nodes; the
        descendants are the ``target``-typed nodes whose ``PRE`` falls
        strictly inside the ancestor's interval.  No recursion is emitted —
        the whole descendant axis is two joins against ``DOC_ORDER``.
        """
        from repro.core.xpath_to_expath import VIRTUAL_ROOT

        source = expr.source
        if source == VIRTUAL_ROOT:
            source = self._t.mapping.dtd.root
        nodes, _ = self._t.descendant_types(source, expr.target)
        if not nodes:
            return Select(IdentityRelation(), (Condition(F, "=", IMPOSSIBLE_F),))
        restrict: RAExpr = left if left is not None else self._t.relation_scan(source)
        return IntervalJoin(
            left=restrict,
            right=self._t.relation_scan(expr.target),
            order=Scan(DOC_ORDER),
        )

    # -- qualifiers ---------------------------------------------------------------

    def _apply_qualifier(self, base: RAExpr, qualifier: EQualifier) -> RAExpr:
        if isinstance(qualifier, EPathQual):
            probe = self._qualifier_probe(base, qualifier.expr)
            return SemiJoin(base, probe, left_column=T, right_column=F)
        if isinstance(qualifier, ETextEquals):
            return Select(base, (Condition(V, "=", qualifier.value),))
        if isinstance(qualifier, ENot):
            positive = self._apply_qualifier(base, qualifier.inner)
            positive_ref = self._materialize(positive, "neg_inner")
            return Difference(base, positive_ref)
        if isinstance(qualifier, EAnd):
            first = self._apply_qualifier(base, qualifier.left)
            first_ref = self._materialize(first, "and_left")
            return self._apply_qualifier(first_ref, qualifier.right)
        if isinstance(qualifier, EOr):
            return Union(
                (
                    self._apply_qualifier(base, qualifier.left),
                    self._apply_qualifier(base, qualifier.right),
                )
            )
        raise XPathTranslationError(f"cannot translate qualifier {qualifier!r}")

    def _qualifier_probe(self, base: RAExpr, expr: Expr) -> RAExpr:
        """Translate a qualifier path, anchored on the candidate nodes when allowed."""
        anchor: Optional[Scan] = None
        if self._t.options.push_selections:
            base_ref = base if isinstance(base, Scan) else self._materialize(base, "qual_anchor")
            # Identity over the candidate nodes: their T values become the F
            # values the qualifier path must start from.
            identity = Project(base_ref, (T, T, V), (F, T, V))
            anchor = self._materialize(identity, "qual_ids")
        return self._translate(expr, anchor)


def extended_to_sql(
    query: ExtendedXPathQuery,
    mapping: SimpleMapping,
    options: Optional[TranslationOptions] = None,
) -> Program:
    """Translate an extended XPath query over ``mapping`` into a relational program."""
    return ExtendedToSQL(mapping, options).translate(query)
