"""Unit tests for extended XPath simplification and pruning."""

from repro.expath.ast import (
    EAnd,
    EEmpty,
    EEmptySet,
    ELabel,
    ENot,
    EOr,
    EPathQual,
    EQualified,
    ESlash,
    EStar,
    ETextEquals,
    EUnion,
    EVar,
    Equation,
    ExtendedXPathQuery,
)
from repro.expath.simplify import simplify_expression, simplify_query


class TestExpressionSimplification:
    def test_empty_set_in_slash(self):
        expr = ESlash(ELabel("a"), ESlash(EEmptySet(), ELabel("b")))
        assert simplify_expression(expr) == EEmptySet()

    def test_empty_set_in_union(self):
        expr = EUnion(EEmptySet(), ELabel("a"))
        assert simplify_expression(expr) == ELabel("a")

    def test_identity_in_slash(self):
        expr = ESlash(EEmpty(), ELabel("a"))
        assert simplify_expression(expr) == ELabel("a")

    def test_duplicate_union_branches(self):
        expr = EUnion(ELabel("a"), ELabel("a"))
        assert simplify_expression(expr) == ELabel("a")

    def test_star_of_empty_is_identity(self):
        assert simplify_expression(EStar(EEmptySet())) == EEmpty()
        assert simplify_expression(EStar(EEmpty())) == EEmpty()

    def test_star_of_star_collapses(self):
        inner = EStar(ELabel("a"))
        assert simplify_expression(EStar(inner)) == inner

    def test_star_strips_identity_branch(self):
        # (eps | a)* == (a)* — keeps the identity relation out of LFP bases.
        expr = EStar(EUnion(EEmpty(), ELabel("a")))
        assert simplify_expression(expr) == EStar(ELabel("a"))

    def test_qualified_empty_base(self):
        expr = EQualified(EEmptySet(), EPathQual(ELabel("a")))
        assert simplify_expression(expr) == EEmptySet()

    def test_statically_true_qualifier_dropped(self):
        expr = EQualified(ELabel("a"), EPathQual(EEmpty()))
        assert simplify_expression(expr) == ELabel("a")

    def test_statically_false_qualifier_empties(self):
        expr = EQualified(ELabel("a"), EPathQual(EEmptySet()))
        assert simplify_expression(expr) == EEmptySet()


def _qualify(qualifier):
    """``a[qualifier]``, simplified."""
    return simplify_expression(EQualified(ELabel("a"), qualifier))


class TestQualifierSimplification:
    def test_not_of_true_is_false(self):
        assert _qualify(ENot(EPathQual(EEmpty()))) == EEmptySet()

    def test_not_of_false_is_true(self):
        assert _qualify(ENot(EPathQual(EEmptySet()))) == ELabel("a")

    def test_and_with_false_is_false(self):
        qualifier = EAnd(EPathQual(ELabel("a")), EPathQual(EEmptySet()))
        assert _qualify(qualifier) == EEmptySet()

    def test_and_with_true_keeps_other(self):
        qualifier = EAnd(EPathQual(EEmpty()), EPathQual(ELabel("a")))
        assert _qualify(qualifier) == EQualified(ELabel("a"), EPathQual(ELabel("a")))

    def test_or_with_true_is_true(self):
        qualifier = EOr(EPathQual(ELabel("a")), EPathQual(EEmpty()))
        assert _qualify(qualifier) == ELabel("a")

    def test_or_with_false_keeps_other(self):
        qualifier = EOr(EPathQual(EEmptySet()), EPathQual(ELabel("a")))
        assert _qualify(qualifier) == EQualified(ELabel("a"), EPathQual(ELabel("a")))

    def test_text_qualifier_unchanged(self):
        expr = EQualified(ELabel("a"), ETextEquals("x"))
        assert simplify_expression(expr) is expr


class TestQuerySimplification:
    def test_alias_equations_inlined(self):
        query = ExtendedXPathQuery(
            [
                Equation("A", ELabel("course")),
                Equation("B", EVar("A")),
                Equation("C", ESlash(EVar("B"), ELabel("cno"))),
            ],
            EVar("C"),
        )
        simplified = simplify_query(query)
        assert simplified.variables() == ["C"]
        assert str(simplified.definition("C")) == "course/cno"

    def test_empty_set_equations_removed(self):
        query = ExtendedXPathQuery(
            [
                Equation("dead", EEmptySet()),
                Equation("live", EUnion(EVar("dead"), ELabel("a"))),
            ],
            EVar("live"),
        )
        simplified = simplify_query(query)
        # 'live' collapses to the label and is itself inlined away.
        assert simplified.variables() == []
        assert simplified.result == ELabel("a")

    def test_unused_equations_pruned(self):
        query = ExtendedXPathQuery(
            [
                Equation("used", ESlash(ELabel("a"), ELabel("b"))),
                Equation("unused", ESlash(ELabel("c"), ELabel("d"))),
            ],
            EVar("used"),
        )
        assert simplify_query(query).variables() == ["used"]

    def test_simplification_preserves_semantics(self):
        from repro.expath.evaluator import evaluate_extended
        from repro.xmltree.tree import build_tree

        tree = build_tree(("a", [("b", [("c", [("d", "v")])]), ("b", [])]))
        query = ExtendedXPathQuery(
            [
                Equation("Step", EUnion(EEmptySet(), ESlash(ELabel("b"), ELabel("c")))),
                Equation("All", ESlash(ELabel("a"), EVar("Step"))),
            ],
            EVar("All"),
        )
        simplified = simplify_query(query)
        assert {n.node_id for n in evaluate_extended(tree, query)} == {
            n.node_id for n in evaluate_extended(tree, simplified)
        }
