"""Property-based tests (hypothesis) for the core invariants.

The central properties checked on randomly generated documents and queries:

* generated documents always conform to their DTD;
* the translation invariant ``Q(T) = Q'(tau_d(T))`` holds for random
  queries drawn from the Sect. 2.2 grammar, for every descendant strategy;
* ``rec(A, B)`` from CycleEX and CycleE denote the same node sets;
* the LFP operator computes exactly the transitive closure of its input;
* simplification of extended XPath queries preserves semantics.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import EngineConfig
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd import samples
from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig
from repro.relational.algebra import Fixpoint, Scan
from repro.relational.executor import Executor
from repro.relational.relation import Relation
from repro.relational.schema import NODE_COLUMNS, DatabaseSchema, RelationSchema
from repro.relational.database import Database
from repro.shredding.shredder import shred_document
from repro.xmltree.generator import generate_document
from repro.xmltree.validator import conforms
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

from ..helpers import rdbms_ids

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ---------------------------------------------------------------------------
# Random query generation over the cross DTD (labels a, b, c, d).
# ---------------------------------------------------------------------------

_LABELS = ["a", "b", "c", "d"]


def _steps():
    return st.sampled_from(_LABELS + ["*"])


@st.composite
def relative_paths(draw, max_steps=3):
    """A relative path: steps joined by / or //."""
    count = draw(st.integers(1, max_steps))
    parts = [draw(_steps()) for _ in range(count)]
    separators = [draw(st.sampled_from(["/", "//"])) for _ in range(count - 1)]
    text = parts[0]
    for separator, part in zip(separators, parts[1:]):
        text += separator + part
    return text


@st.composite
def qualifiers(draw):
    base = draw(relative_paths(max_steps=2))
    kind = draw(st.sampled_from(["plain", "not", "value", "and", "or"]))
    if kind == "plain":
        return base
    if kind == "not":
        return f"not {base}"
    if kind == "value":
        label = draw(st.sampled_from(_LABELS))
        value = draw(st.integers(0, 3))
        return f'{label} = "{label}-{value}"'
    other = draw(relative_paths(max_steps=2))
    connector = "and" if kind == "and" else "or"
    return f"{base} {connector} {other}"


@st.composite
def cross_queries(draw):
    """Whole-document queries over the cross DTD, rooted at 'a'."""
    text = "a"
    for _ in range(draw(st.integers(0, 2))):
        separator = draw(st.sampled_from(["/", "//"]))
        text += separator + draw(_steps())
    if draw(st.booleans()):
        text += f"[{draw(qualifiers())}]"
        if draw(st.booleans()):
            separator = draw(st.sampled_from(["/", "//"]))
            text += separator + draw(_steps())
    return text


@pytest.fixture(scope="module")
def cross_documents():
    dtd = samples.cross_dtd()
    documents = []
    for seed in (3, 5, 9):
        tree = generate_document(dtd, x_l=7, x_r=3, seed=seed, max_elements=400, distinct_values=4)
        documents.append((tree, shred_document(tree, dtd)))
    return dtd, documents


class TestGeneratorConformance:
    @SLOW
    @given(
        seed=st.integers(0, 10_000),
        x_l=st.integers(2, 8),
        x_r=st.integers(1, 4),
        factory=st.sampled_from(
            [samples.cross_dtd, samples.dept_dtd, samples.bioml_dtd, samples.gedml_dtd]
        ),
    )
    def test_generated_documents_conform(self, seed, x_l, x_r, factory):
        dtd = factory()
        tree = generate_document(dtd, x_l=x_l, x_r=x_r, seed=seed, max_elements=300)
        assert conforms(tree, dtd)


class TestTranslationInvariant:
    @SLOW
    @given(query_text=cross_queries(), strategy=st.sampled_from(list(DescendantStrategy)))
    def test_q_of_t_equals_qprime_of_taud_t(self, cross_documents, query_text, strategy):
        dtd, documents = cross_documents
        query = parse_xpath(query_text)
        translator = XPathToSQLTranslator(dtd, config=EngineConfig(strategy=strategy))
        for tree, shredded in documents:
            expected = {n.node_id for n in evaluate_xpath(tree, query)}
            actual = set(rdbms_ids(translator, query, shredded))
            assert actual == expected, query_text

    @SLOW
    @given(query_text=cross_queries())
    def test_optimised_and_plain_lowering_agree(self, cross_documents, query_text):
        dtd, documents = cross_documents
        query = parse_xpath(query_text)
        plain = XPathToSQLTranslator(
            dtd, config=EngineConfig(use_small_seed=True, push_selections=False)
        )
        pushed = XPathToSQLTranslator(
            dtd, config=EngineConfig(use_small_seed=True, push_selections=True)
        )
        tree, shredded = documents[0]
        assert rdbms_ids(plain, query, shredded) == rdbms_ids(pushed, query, shredded)


# ---------------------------------------------------------------------------
# The invariant over *every* sample DTD × both optimisation settings.
#
# The hypothesis tests above exercise the cross DTD deeply; this sweep runs
# schema-guided random queries (fixed seed, so deterministic) over all the
# paper DTDs — the BIOML subgraph family, GedML, dept — under both lowering
# configurations and every descendant strategy.
# ---------------------------------------------------------------------------

ALL_SAMPLE_DTDS = sorted(samples.paper_dtds())

OPTIMIZATION_SETTINGS = {
    "standard": EngineConfig(push_selections=False),
    "push-selections": EngineConfig(push_selections=True),
}


@pytest.fixture(scope="module")
def sample_documents():
    documents = {}
    for name, dtd in samples.paper_dtds().items():
        tree = generate_document(
            dtd, x_l=7, x_r=3, seed=17, max_elements=250, distinct_values=4
        )
        documents[name] = (dtd, tree, shred_document(tree, dtd))
    return documents


class TestInvariantAcrossSampleDTDs:
    @pytest.mark.parametrize("options_name", sorted(OPTIMIZATION_SETTINGS))
    @pytest.mark.parametrize("dtd_name", ALL_SAMPLE_DTDS)
    def test_random_queries_agree_with_evaluator(
        self, sample_documents, dtd_name, options_name
    ):
        dtd, tree, shredded = sample_documents[dtd_name]
        queries = RandomXPathGenerator(dtd, XPathGenConfig(seed=13)).queries(5)
        config = OPTIMIZATION_SETTINGS[options_name]
        for strategy in DescendantStrategy:
            translator = XPathToSQLTranslator(
                dtd, config=config.with_(strategy=strategy)
            )
            for query_text in queries:
                query = parse_xpath(query_text)
                expected = {n.node_id for n in evaluate_xpath(tree, query)}
                actual = set(rdbms_ids(translator, query, shredded))
                assert actual == expected, (dtd_name, strategy.value, query_text)


class TestRecEquivalence:
    @SLOW
    @given(
        source=st.sampled_from(_LABELS),
        target=st.sampled_from(_LABELS),
        seed=st.integers(0, 500),
    )
    def test_cyclee_and_cycleex_denote_same_sets(self, source, target, seed):
        from repro.core.cycleex import rec_query
        from repro.core.tarjan import cycle_expression
        from repro.expath.evaluator import ExtendedXPathEvaluator

        dtd = samples.cross_dtd()
        tree = generate_document(dtd, x_l=6, x_r=3, seed=seed, max_elements=250)
        cyclee_expr = cycle_expression(dtd, source, target)
        cycleex_query = rec_query(dtd, source, target)
        e_eval = ExtendedXPathEvaluator(tree)
        x_eval = ExtendedXPathEvaluator(tree, cycleex_query)
        for context in tree.nodes_with_label(source):
            via_e = {n.node_id for n in e_eval.evaluate_at(context, cyclee_expr)}
            via_x = {n.node_id for n in x_eval.evaluate_at(context, cycleex_query.result)}
            assert via_e == via_x


@st.composite
def edge_relations(draw):
    node_count = draw(st.integers(2, 8))
    nodes = list(range(node_count))
    edges = draw(
        st.sets(
            st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
            max_size=node_count * 2,
        )
    )
    return nodes, edges


class TestLFPProperties:
    @SLOW
    @given(data=edge_relations())
    def test_fixpoint_is_transitive_closure(self, data):
        nodes, edges = data
        schema = DatabaseSchema(
            [RelationSchema("edges", NODE_COLUMNS)],
            node_relations=["edges"],
            element_relations={},
        )
        database = Database(schema)
        database.set_relation(
            "edges", Relation(NODE_COLUMNS, {(f, t, "_") for f, t in edges})
        )
        closure = Executor(database).evaluate(Fixpoint(Scan("edges")))

        # Reference closure computed independently.
        reachable = {(f, t) for f, t in edges}
        changed = True
        while changed:
            changed = False
            for f, mid in list(reachable):
                for mid2, t in list(reachable):
                    if mid == mid2 and (f, t) not in reachable:
                        reachable.add((f, t))
                        changed = True
        assert {(row[0], row[1]) for row in closure.rows} == reachable


class TestSimplificationProperty:
    @SLOW
    @given(query_text=cross_queries(), seed=st.integers(0, 200))
    def test_simplified_extended_query_preserves_semantics(self, query_text, seed):
        from repro.core.xpath_to_expath import xpath_to_extended
        from repro.expath.evaluator import evaluate_extended
        from repro.expath.simplify import simplify_query

        dtd = samples.cross_dtd()
        tree = generate_document(dtd, x_l=6, x_r=3, seed=seed, max_elements=250)
        extended = xpath_to_extended(parse_xpath(query_text), dtd, simplify=False)
        simplified = simplify_query(extended)
        assert {n.node_id for n in evaluate_extended(tree, extended)} == {
            n.node_id for n in evaluate_extended(tree, simplified)
        }
