"""Unit tests for EXpToSQL (extended XPath -> relational programs)."""

import pytest

from repro.core.expath_to_sql import ExtendedToSQL, extended_to_sql
from repro.core.optimize import baseline_options, push_selection_options, standard_options
from repro.dtd import samples
from repro.expath.ast import (
    EDescendants,
    EEmpty,
    ELabel,
    EPathQual,
    EQualified,
    ESlash,
    EStar,
    ETextEquals,
    EUnion,
    EVar,
    ENot,
    EAnd,
    EOr,
    Equation,
    ExtendedXPathQuery,
)
from repro.relational.algebra import Fixpoint, IdentityRelation, RecursiveUnion, Select
from repro.relational.executor import execute_program
from repro.relational.schema import T as T_COLUMN
from repro.shredding.inlining import SimpleMapping
from repro.shredding.shredder import shred_document
from repro.xmltree.generator import generate_document


@pytest.fixture(scope="module")
def dept():
    dtd = samples.dept_dtd()
    tree = generate_document(dtd, x_l=6, x_r=3, seed=33, max_elements=700)
    return dtd, tree, shred_document(tree, dtd)


def answer_ids(program, shredded):
    relation, _ = execute_program(shredded.database, program)
    return {int(value) for value in relation.column_values(T_COLUMN)}


def node_ids(nodes):
    return {node.node_id for node in nodes}


class TestLoweringCases:
    def _translate(self, dtd, expr, equations=(), options=None):
        query = ExtendedXPathQuery(list(equations), expr)
        return extended_to_sql(query, SimpleMapping(dtd), options)

    def test_label_scans_mapped_relation(self, dept):
        dtd, tree, shredded = dept
        program = self._translate(dtd, ELabel("dept"))
        assert answer_ids(program, shredded) == {tree.root.node_id}

    def test_slash_composes(self, dept):
        dtd, tree, shredded = dept
        expr = ESlash(ELabel("dept"), ELabel("course"))
        program = self._translate(dtd, expr)
        expected = {n.node_id for n in tree.root.children if n.label == "course"}
        assert answer_ids(program, shredded) == expected

    def test_union(self, dept):
        dtd, tree, shredded = dept
        expr = ESlash(ELabel("dept"), ESlash(ELabel("course"), EUnion(ELabel("cno"), ELabel("title"))))
        program = self._translate(dtd, expr)
        expected = node_ids(
            [
                grand
                for course in tree.root.children
                for grand in course.children
                if grand.label in ("cno", "title")
            ]
        )
        assert answer_ids(program, shredded) == expected

    def test_star_becomes_fixpoint(self, dept):
        dtd, tree, shredded = dept
        step = ESlash(ELabel("prereq"), ELabel("course"))
        expr = ESlash(ESlash(ELabel("dept"), ELabel("course")), EStar(step))
        program = self._translate(dtd, expr)
        assert any(isinstance(e, Fixpoint) for e in program.iter_expressions())
        # The result must contain the direct courses plus all prereq-courses.
        from repro.xpath.parser import parse_xpath
        from repro.xpath.evaluator import evaluate_xpath

        expected = node_ids(evaluate_xpath(tree, parse_xpath("dept/course"))) | node_ids(
            evaluate_xpath(tree, parse_xpath("dept/course//prereq/course"))
        )
        assert answer_ids(program, shredded) == expected

    def test_variable_becomes_temporary(self, dept):
        dtd, tree, shredded = dept
        equations = [Equation("Step", ESlash(ELabel("takenBy"), ELabel("student")))]
        expr = ESlash(ESlash(ELabel("dept"), ELabel("course")), EVar("Step"))
        program = self._translate(dtd, expr, equations)
        from repro.xpath.evaluator import evaluate_xpath
        from repro.xpath.parser import parse_xpath

        expected = node_ids(
            evaluate_xpath(tree, parse_xpath("dept/course/takenBy/student"))
        )
        assert answer_ids(program, shredded) == expected

    def test_text_qualifier_becomes_selection(self, dept):
        dtd, tree, shredded = dept
        target = tree.nodes_with_label("cno")[0]
        expr = ESlash(
            ESlash(ELabel("dept"), ELabel("course")),
            EQualified(ELabel("cno"), ETextEquals(target.value)),
        )
        program = self._translate(dtd, expr)
        answers = answer_ids(program, shredded)
        assert target.node_id in answers
        assert all(tree.node(i).value == target.value for i in answers)

    def test_path_qualifier_becomes_semijoin(self, dept):
        dtd, tree, shredded = dept
        expr = ESlash(ELabel("dept"), EQualified(ELabel("course"), EPathQual(ELabel("project"))))
        program = self._translate(dtd, expr)
        expected = node_ids(
            [c for c in tree.root.children if any(g.label == "project" for g in c.children)]
        )
        assert answer_ids(program, shredded) == expected

    def test_negated_qualifier_becomes_difference(self, dept):
        dtd, tree, shredded = dept
        expr = ESlash(
            ELabel("dept"), EQualified(ELabel("course"), ENot(EPathQual(ELabel("project"))))
        )
        program = self._translate(dtd, expr)
        expected = node_ids(
            [c for c in tree.root.children if not any(g.label == "project" for g in c.children)]
        )
        assert answer_ids(program, shredded) == expected

    def test_and_or_qualifiers(self, dept):
        dtd, tree, shredded = dept
        both = EAnd(EPathQual(ELabel("project")), EPathQual(ELabel("prereq")))
        either = EOr(EPathQual(ELabel("project")), EPathQual(ELabel("takenBy")))
        for qualifier in (both, either):
            expr = ESlash(ELabel("dept"), EQualified(ELabel("course"), qualifier))
            program = self._translate(dtd, expr)
            answers = answer_ids(program, shredded)
            assert answers <= node_ids(tree.root.children)

    def test_descendants_marker_becomes_recursive_union(self, dept):
        dtd, tree, shredded = dept
        expr = ESlash(ELabel("dept"), EDescendants("dept", "project"))
        program = self._translate(dtd, expr)
        assert any(isinstance(e, RecursiveUnion) for e in program.iter_expressions())
        assert answer_ids(program, shredded) == node_ids(tree.nodes_with_label("project"))

    def test_root_selection_applied(self, dept):
        dtd, _, _ = dept
        program = self._translate(dtd, ELabel("dept"))
        assert isinstance(program.result, Select)


class TestOptionVariants:
    @pytest.mark.parametrize(
        "options",
        [baseline_options(), standard_options(), push_selection_options()],
        ids=["baseline", "standard", "push"],
    )
    def test_all_option_sets_agree(self, dept, options):
        dtd, tree, shredded = dept
        step = ESlash(ELabel("prereq"), ELabel("course"))
        expr = ESlash(
            ESlash(ESlash(ELabel("dept"), ELabel("course")), EStar(step)), ELabel("project")
        )
        program = extended_to_sql(ExtendedXPathQuery([], expr), SimpleMapping(dtd), options)
        reference = extended_to_sql(
            ExtendedXPathQuery([], expr), SimpleMapping(dtd), baseline_options()
        )
        assert answer_ids(program, shredded) == answer_ids(reference, shredded)

    def test_baseline_uses_full_identity(self, dept):
        dtd, _, _ = dept
        expr = ESlash(ESlash(ELabel("dept"), ELabel("course")), EStar(ESlash(ELabel("prereq"), ELabel("course"))))
        program = extended_to_sql(ExtendedXPathQuery([], expr), SimpleMapping(dtd), baseline_options())
        assert any(isinstance(e, IdentityRelation) for e in program.iter_expressions())

    def test_standard_avoids_full_identity_for_visible_star(self, dept):
        dtd, _, _ = dept
        expr = ESlash(ESlash(ELabel("dept"), ELabel("course")), EStar(ESlash(ELabel("prereq"), ELabel("course"))))
        program = extended_to_sql(ExtendedXPathQuery([], expr), SimpleMapping(dtd), standard_options())
        assert not any(isinstance(e, IdentityRelation) for e in program.iter_expressions())

    def test_push_anchors_fixpoints(self, dept):
        dtd, _, _ = dept
        expr = ESlash(ESlash(ELabel("dept"), ELabel("course")), EStar(ESlash(ELabel("prereq"), ELabel("course"))))
        program = extended_to_sql(
            ExtendedXPathQuery([], expr), SimpleMapping(dtd), push_selection_options()
        )
        fixpoints = [e for e in program.iter_expressions() if isinstance(e, Fixpoint)]
        assert fixpoints and all(f.source_anchor is not None for f in fixpoints)
