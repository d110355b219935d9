"""End-to-end integration tests across all paper DTDs and strategies."""

import pytest

from repro.api import EngineConfig
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd import samples
from repro.relational.sqlgen import SQLDialect
from repro.shredding.shredder import shred_document
from repro.workloads.queries import BIOML_CASES, CROSS_QUERIES, GEDML_QUERY
from repro.xmltree.generator import generate_document
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

STRATEGIES = list(DescendantStrategy)


def check_invariant(dtd, tree, query, strategies=STRATEGIES, config=EngineConfig()):
    shredded = shred_document(tree, dtd)
    expected = {n.node_id for n in evaluate_xpath(tree, parse_xpath(query))}
    for strategy in strategies:
        translator = XPathToSQLTranslator(dtd, config=config.with_(strategy=strategy))
        got = {n.node_id for n in translator.answer(query, shredded)}
        assert got == expected, (query, strategy)
    return expected


class TestCrossWorkload:
    @pytest.mark.parametrize("name,query", sorted(CROSS_QUERIES.items()))
    def test_exp1_queries_all_strategies(self, name, query):
        dtd = samples.cross_dtd()
        tree = generate_document(dtd, x_l=8, x_r=3, seed=71, max_elements=700)
        check_invariant(dtd, tree, query)

    def test_selective_queries_with_push(self):
        dtd = samples.cross_dtd()
        tree = generate_document(dtd, x_l=8, x_r=3, seed=73, max_elements=700, distinct_values=5)
        for query in ('a/b[text() = "b-1"]//c/d', 'a/b//c/d[text() = "d-2"]'):
            check_invariant(
                dtd,
                tree,
                query,
                strategies=[DescendantStrategy.CYCLEEX],
                config=EngineConfig(push_selections=True),
            )


class TestRealLifeDTDs:
    @pytest.mark.parametrize("case", BIOML_CASES, ids=lambda c: c.name)
    def test_bioml_cases(self, case):
        dtd = case.dtd()
        tree = generate_document(dtd, x_l=7, x_r=3, seed=79, max_elements=600)
        check_invariant(dtd, tree, case.query)

    def test_gedml_query(self):
        dtd = samples.gedml_dtd()
        tree = generate_document(dtd, x_l=6, x_r=3, seed=83, max_elements=600)
        check_invariant(dtd, tree, GEDML_QUERY)

    def test_gedml_query_with_qualifier(self):
        dtd = samples.gedml_dtd()
        tree = generate_document(dtd, x_l=6, x_r=3, seed=89, max_elements=500)
        check_invariant(dtd, tree, "even//data[not sour]", strategies=[DescendantStrategy.CYCLEEX])


class TestSQLArtifacts:
    def test_every_strategy_produces_renderable_sql(self):
        dtd = samples.cross_dtd()
        for strategy in STRATEGIES:
            translator = XPathToSQLTranslator(
                dtd, config=EngineConfig(strategy=strategy)
            )
            sql = translator.to_sql("a//d", SQLDialect.DB2)
            assert "SELECT" in sql
            assert "R_d" in sql

    def test_sqlgen_r_sql_mentions_recursive_cte(self):
        dtd = samples.cross_dtd()
        translator = XPathToSQLTranslator(
            dtd, config=EngineConfig(strategy=DescendantStrategy.RECURSIVE_UNION)
        )
        sql = translator.to_sql("a//d", SQLDialect.GENERIC)
        assert "WITH RECURSIVE r" in sql

    def test_cycleex_sql_uses_connect_by_on_oracle(self):
        dtd = samples.cross_dtd()
        translator = XPathToSQLTranslator(dtd)
        sql = translator.to_sql("a//d", SQLDialect.ORACLE)
        assert "CONNECT BY" in sql


class TestWholeDeptScenario:
    def test_catalog_scenario(self):
        """A realistic mixed workload over the dept DTD, all answered via SQL."""
        dtd = samples.dept_dtd()
        tree = generate_document(dtd, x_l=7, x_r=3, seed=97, max_elements=900)
        shredded = shred_document(tree, dtd)
        translator = XPathToSQLTranslator(dtd)
        queries = [
            "dept//project",
            "dept/course[prereq/course]/cno",
            "dept//student[qualified//course]/name",
            "dept/course[not project and takenBy/student]",
        ]
        for query in queries:
            expected = {n.node_id for n in evaluate_xpath(tree, parse_xpath(query))}
            got = {n.node_id for n in translator.answer(query, shredded)}
            assert got == expected, query
