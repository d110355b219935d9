"""Unit tests for XPathToEXp (XPath -> extended XPath over a DTD)."""

import pytest

from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import (
    VIRTUAL_ROOT,
    DescendantStrategy,
    XPathToExtended,
    xpath_to_extended,
)
from repro.dtd import samples
from repro.errors import XPathTranslationError
from repro.expath.ast import EEmptySet
from repro.expath.evaluator import evaluate_extended
from repro.expath.metrics import count_operators
from repro.xmltree.generator import generate_document
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath


def assert_equivalent(dtd, query_text, tree, strategy=DescendantStrategy.CYCLEEX):
    """The rewritten query must return the same nodes as the XPath oracle."""
    query = parse_xpath(query_text)
    if strategy is DescendantStrategy.AUTO:
        # AUTO is resolved per query (by the pipeline in production); the
        # front end only accepts concrete strategies.
        from repro.core.optimize import select_strategy

        strategy = select_strategy(dtd, query)
    extended = xpath_to_extended(query, dtd, strategy=strategy)
    expected = {n.node_id for n in evaluate_xpath(tree, query)}
    actual = {n.node_id for n in evaluate_extended(tree, extended)}
    assert actual == expected, query_text


@pytest.fixture(scope="module")
def dept_doc():
    return generate_document(samples.dept_dtd(), x_l=7, x_r=3, seed=3, max_elements=900)


@pytest.fixture(scope="module")
def cross_doc():
    return generate_document(samples.cross_dtd(), x_l=8, x_r=3, seed=5, max_elements=900)


class TestEquivalenceOverDept:
    @pytest.mark.parametrize(
        "query",
        [
            "dept",
            "dept/course",
            "dept/course/cno",
            "dept//project",
            "dept//course",
            "dept//cno",
            "dept/*/title",
            "dept/course/prereq/course | dept/course/project",
            "dept/course[project]",
            "dept/course[not project]",
            "dept/course[prereq/course]",
            "dept/course[//project]/cno",
            "dept//course[project and prereq/course]",
            "dept//student/qualified//course",
            'dept/course[cno = "cno-1"]',
            'dept//course[title = "title-0"]/project',
            "dept/course[takenBy/student or project]",
        ],
    )
    def test_query_equivalence(self, query, dept_doc):
        assert_equivalent(samples.dept_dtd(), query, dept_doc)

    def test_paper_q2_equivalence(self, dept_doc):
        q2 = (
            'dept/course[//prereq/course[cno = "cno-2"] and not //project '
            'and not takenBy/student/qualified//course[cno = "cno-2"]]'
        )
        assert_equivalent(samples.dept_dtd(), q2, dept_doc)


class TestEquivalenceOverCross:
    @pytest.mark.parametrize(
        "query",
        ["a/b//c/d", "a[//c]//d", "a[not //c]", "a[not //c or (b and //d)]", "a//d", "//d"],
    )
    @pytest.mark.parametrize("strategy", list(DescendantStrategy))
    def test_all_strategies_agree_with_oracle(self, query, strategy, cross_doc):
        assert_equivalent(samples.cross_dtd(), query, cross_doc, strategy)


class TestStaticPruning:
    def test_unsatisfiable_label_step_gives_empty_query(self):
        extended = xpath_to_extended(parse_xpath("dept/student"), samples.dept_dtd())
        assert isinstance(extended.result, EEmptySet)

    def test_unsatisfiable_qualifier_folded_to_false(self):
        # cno has no children, so [cno/title] can never hold.
        extended = xpath_to_extended(
            parse_xpath("dept/course[cno/title]"), samples.dept_dtd()
        )
        assert isinstance(extended.result, EEmptySet)

    def test_negated_unsatisfiable_qualifier_folded_to_true(self):
        with_neg = xpath_to_extended(
            parse_xpath("dept/course[not cno/title]"), samples.dept_dtd()
        )
        plain = xpath_to_extended(parse_xpath("dept/course"), samples.dept_dtd())
        assert str(with_neg.result) == str(plain.result)

    def test_a_folded_qualifier_leaves_the_unqualified_program(self):
        # Over cross, d has only c children, so [not b/a] always holds and
        # folds away; [not c] depends on the document and keeps its difference.
        translator = XPathToSQLTranslator(samples.cross_dtd())
        folded = translator.translate("a//d[not b/a]").program
        assert str(folded) == str(translator.translate("a//d").program)
        profile = folded.operator_profile()
        assert (profile.joins, profile.differences) == (11, 0)
        kept = translator.translate("a//d[not c]").program.operator_profile()
        assert (kept.joins, kept.differences) == (12, 1)

    def test_text_qualifier_on_non_text_type_is_false(self):
        extended = xpath_to_extended(
            parse_xpath('dept/course/prereq[text() = "x"]'), samples.dept_dtd()
        )
        assert isinstance(extended.result, EEmptySet)

    def test_wildcard_expands_to_dtd_children(self):
        extended = xpath_to_extended(parse_xpath("dept/course/*"), samples.dept_dtd())
        rendered = str(extended)
        for child in ("cno", "title", "prereq", "takenBy", "project"):
            assert child in rendered

    def test_descendant_skips_unreachable_types(self):
        # project is not reachable from student/qualified without course.
        extended = xpath_to_extended(parse_xpath("dept/course/cno//project"), samples.dept_dtd())
        assert isinstance(extended.result, EEmptySet)


class TestPolynomialOutput:
    def test_output_size_stays_polynomial(self):
        dtd = samples.gedml_dtd()
        extended = xpath_to_extended(parse_xpath("even//data"), dtd)
        counts = count_operators(extended)
        n = len(dtd.element_types)
        assert counts.total <= 10 * n * n

    def test_cyclee_strategy_is_larger(self):
        dtd = samples.gedml_dtd()
        query = parse_xpath("even//data")
        via_x = count_operators(xpath_to_extended(query, dtd, DescendantStrategy.CYCLEEX))
        via_e = count_operators(xpath_to_extended(query, dtd, DescendantStrategy.CYCLEE))
        assert via_e.total > via_x.total


class TestTranslateAt:
    def test_translate_at_element_context(self, dept_doc):
        translator = XPathToExtended(samples.dept_dtd())
        extended = translator.translate_at(parse_xpath("//project"), "course")
        from repro.expath.evaluator import ExtendedXPathEvaluator
        from repro.xpath.evaluator import XPathEvaluator

        oracle = XPathEvaluator(dept_doc)
        evaluator = ExtendedXPathEvaluator(dept_doc, extended)
        for context in dept_doc.nodes_with_label("course"):
            expected = {n.node_id for n in oracle.evaluate_at(context, parse_xpath("//project"))}
            actual = {n.node_id for n in evaluator.evaluate_at(context, extended.result)}
            assert actual == expected

    def test_translate_at_unknown_type_rejected(self):
        translator = XPathToExtended(samples.dept_dtd())
        with pytest.raises(XPathTranslationError):
            translator.translate_at(parse_xpath("//project"), "nonexistent")

    def test_virtual_root_context_is_default(self):
        translator = XPathToExtended(samples.dept_dtd())
        via_default = translator.translate(parse_xpath("dept//project"))
        via_explicit = translator.translate_at(parse_xpath("dept//project"), VIRTUAL_ROOT)
        assert str(via_default.result) == str(via_explicit.result)
