"""Tests reproducing the paper's running example (Sect. 2-3, Tables 1-3)."""

import pytest

from repro.api import EngineConfig
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.sqlgen_r import SQLGenR
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd import samples
from repro.relational.executor import execute_program
from repro.relational.schema import T as T_COLUMN
from repro.shredding.shredder import shred_document
from repro.workloads.datasets import dept_sample_tree
from repro.workloads.queries import DEPT_QUERIES
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath


@pytest.fixture(scope="module")
def table1():
    """The Table 1 database: the sample document shredded over Fig. 1(b)."""
    dtd = samples.simplified_dept_dtd()
    tree = dept_sample_tree()
    return dtd, tree, shred_document(tree, dtd)


class TestTable1Database:
    def test_relation_sizes_match_table1(self, table1):
        _, _, shredded = table1
        db = shredded.database
        assert len(db.relation("R_dept")) == 1
        assert len(db.relation("R_course")) == 5
        assert len(db.relation("R_student")) == 2
        assert len(db.relation("R_project")) == 2

    def test_sample_paths_exist(self, table1):
        # Table 1 supports paths like d1.c1.c2.c3 and d1.c1.c2.p1.c4.p2.
        _, tree, _ = table1
        deepest_project = max(tree.nodes_with_label("project"), key=lambda n: n.depth())
        assert [label for label in deepest_project.path_from_root()] == [
            "dept",
            "course",
            "course",
            "project",
            "course",
            "project",
        ]


class TestQ1DeptProject:
    def test_q1_answer_is_both_projects(self, table1):
        """Q1 = dept//project returns p1 and p2 (Sect. 3.1 / Table 3)."""
        dtd, tree, shredded = table1
        expected = {n.node_id for n in tree.nodes_with_label("project")}
        for strategy in DescendantStrategy:
            translator = XPathToSQLTranslator(
                dtd, config=EngineConfig(strategy=strategy)
            )
            got = {n.node_id for n in translator.answer("dept//project", shredded)}
            assert got == expected, strategy

    def test_sqlgen_r_iterations_match_table2_depth(self, table1):
        """Table 2 shows the recursion converging after ~5 iterations."""
        dtd, _, shredded = table1
        program = SQLGenR(dtd).translate("dept//project")
        _, stats = execute_program(shredded.database, program)
        assert 4 <= stats.recursive_union_iterations <= 7

    def test_cycleex_program_shape_matches_example_3_5(self, table1):
        """The CycleEX program uses the simple LFP operator, not SQL'99 recursion.

        Example 3.5 shows one hand-collapsed LFP; node elimination produces
        one closure per eliminated cycle node (at most 3 on Fig. 1(b)), all
        of them simple single-relation LFPs.
        """
        dtd, _, _ = table1
        translator = XPathToSQLTranslator(dtd)
        result = translator.translate("dept//project")
        profile = result.operator_profile()
        assert 1 <= profile.lfps <= 3
        assert profile.recursive_unions == 0

    def test_sqlgen_r_program_has_no_lfp(self, table1):
        dtd, _, _ = table1
        profile = SQLGenR(dtd).translate("dept//project").operator_profile()
        assert profile.lfps == 0
        assert profile.recursive_unions >= 1


class TestQ2OverFullDeptDTD:
    def test_q2_translates_and_matches_oracle(self):
        """Q2 (Example 2.2) — beyond SQLGen-R's original fragment — works here."""
        from repro.xmltree.generator import generate_document

        dtd = samples.dept_dtd()
        tree = generate_document(dtd, x_l=7, x_r=3, seed=51, max_elements=900)
        shredded = shred_document(tree, dtd)
        # Use a constant that actually occurs in the generated data.
        cno_value = tree.nodes_with_label("cno")[1].value
        query = DEPT_QUERIES["Q2"].replace("cs66", cno_value)
        expected = {n.node_id for n in evaluate_xpath(tree, parse_xpath(query))}
        translator = XPathToSQLTranslator(dtd)
        got = {n.node_id for n in translator.answer(query, shredded)}
        assert got == expected

    def test_example_4_3_rec_pairs_appear_in_translation(self):
        """EQ2 references rec(course, course), rec(course, project), rec(qualified, course)."""
        dtd = samples.dept_dtd()
        translator = XPathToSQLTranslator(dtd)
        extended = translator.to_extended(DEPT_QUERIES["Q2"])
        rendered = str(extended)
        assert "course" in rendered and "project" in rendered
        # The equation system must be non-trivial (uses variables for the recs).
        assert len(extended.equations) >= 3
