"""Unit/integration tests for the end-to-end translation pipeline."""

import pytest

from repro.core.optimize import push_selection_options, standard_options
from repro.core.pipeline import XPathToSQLTranslator, answer_xpath
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd import samples
from repro.relational.sqlgen import SQLDialect
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath


class TestTranslationResult:
    def test_artifacts_present(self, dept_dtd):
        translator = XPathToSQLTranslator(dept_dtd)
        result = translator.translate("dept//project")
        assert result.xpath == parse_xpath("dept//project")
        assert len(result.program) > 0
        assert result.translation_seconds >= 0
        assert result.operator_profile().lfps >= 1
        assert result.extended_operator_counts().total > 0

    def test_sql_rendering_in_all_dialects(self, dept_dtd):
        translator = XPathToSQLTranslator(dept_dtd)
        result = translator.translate("dept//project")
        for dialect in SQLDialect:
            sql = result.sql(dialect)
            assert "R_project" in sql

    def test_string_and_ast_inputs_agree(self, dept_dtd):
        translator = XPathToSQLTranslator(dept_dtd)
        via_string = translator.translate("dept//project")
        via_ast = translator.translate(parse_xpath("dept//project"))
        assert str(via_string.program) == str(via_ast.program)

    def test_to_extended_exposes_step_one(self, dept_dtd):
        translator = XPathToSQLTranslator(dept_dtd)
        extended = translator.to_extended("dept//project")
        assert "project" in str(extended)

    def test_lower_extended_exposes_step_two(self, dept_dtd):
        translator = XPathToSQLTranslator(dept_dtd)
        program = translator.lower_extended(translator.to_extended("dept//project"))
        assert len(program) > 0


class TestQueryAnswering:
    QUERIES = [
        "dept//project",
        "dept/course[not //project]",
        "dept//student/qualified//course/cno",
        'dept//course[cno = "cno-2"]',
    ]

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("strategy", list(DescendantStrategy))
    def test_invariant_q_of_t_equals_qprime_of_taud_t(
        self, query, strategy, dept_dtd, dept_tree, dept_shredded
    ):
        """The central invariant: Q(T) = Q'(tau_d(T))."""
        translator = XPathToSQLTranslator(dept_dtd, strategy=strategy)
        via_sql = {n.node_id for n in translator.answer(query, dept_shredded)}
        via_oracle = {n.node_id for n in evaluate_xpath(dept_tree, parse_xpath(query))}
        assert via_sql == via_oracle

    def test_answer_xpath_one_shot_helper(self, dept_dtd, dept_tree):
        nodes = answer_xpath("dept//project", dept_tree, dept_dtd)
        expected = evaluate_xpath(dept_tree, parse_xpath("dept//project"))
        assert [n.node_id for n in nodes] == [n.node_id for n in expected]

    def test_lazy_and_eager_execution_agree(self, dept_dtd, dept_shredded):
        translator = XPathToSQLTranslator(dept_dtd)
        lazy = {n.node_id for n in translator.answer("dept//project", dept_shredded, lazy=True)}
        eager = {n.node_id for n in translator.answer("dept//project", dept_shredded, lazy=False)}
        assert lazy == eager

    def test_execute_returns_stats(self, dept_dtd, dept_shredded):
        translator = XPathToSQLTranslator(dept_dtd)
        result = translator.execute("dept//project", dept_shredded)
        assert result.stats["elapsed_seconds"] >= 0
        assert result.columns == ("F", "T", "V")

    def test_options_do_not_change_answers(self, dept_dtd, dept_tree, dept_shredded):
        expected = {
            n.node_id for n in evaluate_xpath(dept_tree, parse_xpath("dept//project"))
        }
        for options in (standard_options(), push_selection_options()):
            translator = XPathToSQLTranslator(dept_dtd, options=options)
            got = {n.node_id for n in translator.answer("dept//project", dept_shredded)}
            assert got == expected

    def test_cross_dtd_queries(self, cross_dtd, cross_tree, cross_shredded):
        for query in ("a/b//c/d", "a[not //c or (b and //d)]", "a//d"):
            translator = XPathToSQLTranslator(cross_dtd)
            via_sql = {n.node_id for n in translator.answer(query, cross_shredded)}
            via_oracle = {
                n.node_id for n in evaluate_xpath(cross_tree, parse_xpath(query))
            }
            assert via_sql == via_oracle, query
