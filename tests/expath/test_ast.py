"""Unit tests for extended XPath expressions and equation systems."""

import pytest

from repro.errors import ExtendedXPathError
from repro.expath.ast import (
    EDescendants,
    EEmpty,
    EEmptySet,
    ELabel,
    EPathQual,
    EQualified,
    ESlash,
    EStar,
    ETextEquals,
    EUnion,
    EVar,
    Equation,
    ExtendedXPathQuery,
    ENot,
    eslash,
    eunion,
    iter_subexpressions,
    substitute,
)


class TestConstructors:
    def test_eslash_folds_empty_set(self):
        assert eslash(EEmptySet(), ELabel("a")) == EEmptySet()
        assert eslash(ELabel("a"), EEmptySet()) == EEmptySet()

    def test_eslash_folds_identity(self):
        assert eslash(EEmpty(), ELabel("a")) == ELabel("a")
        assert eslash(ELabel("a"), EEmpty()) == ELabel("a")

    def test_eslash_builds_slash(self):
        assert eslash(ELabel("a"), ELabel("b")) == ESlash(ELabel("a"), ELabel("b"))

    def test_eunion_drops_empty_set(self):
        assert eunion(EEmptySet(), ELabel("a")) == ELabel("a")
        assert eunion(ELabel("a"), EEmptySet()) == ELabel("a")

    def test_eunion_deduplicates(self):
        assert eunion(ELabel("a"), ELabel("a")) == ELabel("a")

    def test_variables_collected(self):
        expr = ESlash(EVar("X"), EQualified(ELabel("a"), EPathQual(EVar("Y"))))
        assert expr.variables() == {"X", "Y"}

    def test_children_include_the_qualifier(self):
        qualifier = EPathQual(ELabel("b"))
        assert EQualified(ELabel("a"), qualifier).children() == (ELabel("a"), qualifier)

    def test_descendants_marker_str(self):
        assert str(EDescendants("a", "b")) == "DESC(a, b)"


class TestSubstitute:
    def test_bound_variables_are_replaced_in_qualifiers_too(self):
        expr = ESlash(EVar("X"), EQualified(ELabel("a"), ENot(EPathQual(EVar("X")))))
        replaced = substitute(expr, {"X": ELabel("b")})
        assert str(replaced) == "b/a[not(b)]"

    def test_unbound_variables_are_left_alone(self):
        expr = ESlash(EVar("X"), EVar("Y"))
        assert substitute(expr, {"X": ELabel("a")}) == ESlash(ELabel("a"), EVar("Y"))
        assert substitute(expr, {}) is expr

    def test_an_unfolded_node_folds_as_the_smart_constructors_do(self):
        # Keeping unchanged children does not skip the folding rules.
        assert substitute(ESlash(EEmpty(), ELabel("a")), {}) == ELabel("a")
        assert substitute(EUnion(ELabel("a"), ELabel("a")), {}) == ELabel("a")
        assert substitute(EStar(EEmptySet()), {}) == EEmpty()
        assert substitute(ESlash(EVar("X"), ELabel("a")), {"X": EEmptySet()}) == EEmptySet()


class TestQuerySystem:
    def _query(self):
        return ExtendedXPathQuery(
            [
                Equation("X1", ESlash(ELabel("b"), ELabel("c"))),
                Equation("X2", EStar(EVar("X1"))),
            ],
            ESlash(ELabel("a"), EVar("X2")),
        )

    def test_definition_lookup(self):
        query = self._query()
        assert query.definition("X1") == ESlash(ELabel("b"), ELabel("c"))
        assert query.variables() == ["X1", "X2"]
        assert len(query) == 2

    def test_unknown_variable_lookup(self):
        with pytest.raises(ExtendedXPathError):
            self._query().definition("nope")

    def test_duplicate_definition_rejected(self):
        with pytest.raises(ExtendedXPathError):
            ExtendedXPathQuery(
                [Equation("X", ELabel("a")), Equation("X", ELabel("b"))], EVar("X")
            )

    def test_use_before_definition_rejected(self):
        with pytest.raises(ExtendedXPathError):
            ExtendedXPathQuery(
                [Equation("X", EVar("Y")), Equation("Y", ELabel("a"))], EVar("X")
            )

    def test_result_with_undefined_variable_rejected(self):
        with pytest.raises(ExtendedXPathError):
            ExtendedXPathQuery([], EVar("X"))

    def test_pruned_drops_unused_equations(self):
        query = ExtendedXPathQuery(
            [
                Equation("used", ELabel("a")),
                Equation("unused", ESlash(ELabel("b"), ELabel("c"))),
            ],
            EVar("used"),
        )
        pruned = query.pruned()
        assert pruned.variables() == ["used"]

    def test_pruned_keeps_transitive_dependencies(self):
        query = self._query()
        assert query.pruned().variables() == ["X1", "X2"]

    def test_inline_expands_variables(self):
        inlined = self._query().inline()
        assert inlined.variables() == set()
        assert str(inlined) == "a/(b/c)*"

    def test_str_lists_equations_and_result(self):
        text = str(self._query())
        assert "X1 = b/c" in text
        assert text.strip().endswith("RESULT = a/X2")


class TestIterSubexpressions:
    def test_postorder(self):
        expr = ESlash(ELabel("a"), EUnion(ELabel("b"), ELabel("c")))
        rendered = [str(e) for e in iter_subexpressions(expr)]
        assert rendered == ["a", "b", "c", "(b | c)", "a/(b | c)"]

    def test_qualifier_contents_included(self):
        expr = EQualified(ELabel("a"), EPathQual(ESlash(ELabel("b"), ELabel("c"))))
        rendered = [str(e) for e in iter_subexpressions(expr)]
        assert "b/c" in rendered

    def test_text_qualifier_has_no_subexpressions(self):
        expr = EQualified(ELabel("a"), ETextEquals("x"))
        rendered = [str(e) for e in iter_subexpressions(expr)]
        assert rendered == ["a", 'a[text() = "x"]']
