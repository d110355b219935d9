"""Unit/integration tests for the end-to-end translation pipeline."""

import pytest

from repro.api import EngineConfig
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd import samples
from repro.relational.executor import Executor
from repro.relational.schema import T
from repro.relational.sqlgen import SQLDialect
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

from ..helpers import rdbms_ids


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
        translator = XPathToSQLTranslator(
            dept_dtd, config=EngineConfig(strategy=strategy)
        )
        via_sql = set(rdbms_ids(translator, query, dept_shredded))
        via_oracle = {n.node_id for n in evaluate_xpath(dept_tree, parse_xpath(query))}
        assert via_sql == via_oracle

    def test_lazy_and_eager_execution_agree(self, dept_dtd, dept_shredded):
        # The memory backend serves lazily on the columnar executor; the tuple
        # executor's eager mode must find the same answer for its plan.
        translator = XPathToSQLTranslator(dept_dtd)
        lazy = set(rdbms_ids(translator, "dept//project", dept_shredded))
        program = translator.translate("dept//project").program
        eager = Executor(dept_shredded.database, lazy=False)
        assert eager.run(program).column_values(T) == lazy

    def test_options_do_not_change_answers(self, dept_dtd, dept_tree, dept_shredded):
        expected = {
            n.node_id for n in evaluate_xpath(dept_tree, parse_xpath("dept//project"))
        }
        for push_selections in (False, True):
            translator = XPathToSQLTranslator(
                dept_dtd, config=EngineConfig(push_selections=push_selections)
            )
            got = set(rdbms_ids(translator, "dept//project", dept_shredded))
            assert got == expected

    def test_cross_dtd_queries(self, cross_dtd, cross_tree, cross_shredded):
        for query in ("a/b//c/d", "a[not //c or (b and //d)]", "a//d"):
            translator = XPathToSQLTranslator(cross_dtd)
            via_sql = set(rdbms_ids(translator, query, cross_shredded))
            via_oracle = {
                n.node_id for n in evaluate_xpath(cross_tree, parse_xpath(query))
            }
            assert via_sql == via_oracle, query
