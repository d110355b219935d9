"""Executor equivalence: columnar batch engine == tuple-at-a-time engine.

The columnar executor is a pure representation change — same algebra,
same result sets, byte-for-byte.  Every check runs the reference tuple
:class:`~repro.relational.executor.Executor` and
:class:`~repro.relational.columnar.ColumnarExecutor` directly, not through
``MemoryBackend`` (which runs only the columnar engine), so every input —
tiny documents included — compares two different engines.  Checked five
ways:

* schema-guided random queries over *all 8 sample DTDs*, the translated
  program executed on both executors at optimize levels 0 and 2 —
  identical node sets, and identical to the direct XPath evaluator;
* every workload case (the paper workloads plus the non-recursive DTD)
  under the default, recursive-union and pushed-selection
  configurations: both executors and the raw level-0 program return the
  same rows, the sqlite backend the same node ids, and their ``T``
  column is the XPath evaluator's answer;
* every case of the checked-in fuzz regression corpus: a per-case
  executor comparison at both optimize levels, plus a replay through the
  default engine grid;
* the tuple executor's lazy and eager evaluation agree;
* one columnar store answers a DTD's sample queries in a seeded order, so
  plans take temporaries from the store's shared table that other plans
  materialized, and every answer still equals the tuple executor's.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.api.config import EngineConfig
from repro.backends import create_backend
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd import samples
from repro.fuzz.cases import FuzzCase
from repro.fuzz.harness import replay_corpus
from repro.fuzz.oracle import default_engines
from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig
from repro.relational.columnar import ColumnarDatabase, ColumnarExecutor
from repro.relational.executor import Executor
from repro.relational.schema import T
from repro.shredding.shredder import shred_document
from repro.workloads.cases import workload_cases
from repro.xmltree.generator import generate_document
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

ALL_SAMPLE_DTDS = sorted(samples.paper_dtds())
OPTIMIZE_LEVELS = (0, 2)
CORPUS_DIR = Path(__file__).resolve().parent.parent / "fuzz" / "corpus"
CORPUS_CASES = sorted(CORPUS_DIR.glob("*.json"))


def _executors(database):
    """Both in-memory executors over ``database``, keyed by name."""
    return {
        "tuple": Executor(database),
        "columnar": ColumnarExecutor(ColumnarDatabase(database)),
    }


def _node_ids(relation):
    return {str(node_id) for node_id in relation.column_values(T)}


@pytest.fixture(scope="module")
def sample_documents():
    documents = {}
    for name, dtd in samples.paper_dtds().items():
        tree = generate_document(
            dtd, x_l=7, x_r=3, seed=37, max_elements=250, distinct_values=4
        )
        documents[name] = (dtd, tree, shred_document(tree, dtd))
    return documents


class TestExecutorsAgreeOnSampleDTDs:
    @pytest.mark.parametrize("level", OPTIMIZE_LEVELS)
    @pytest.mark.parametrize("dtd_name", ALL_SAMPLE_DTDS)
    def test_columnar_matches_tuple_and_evaluator(
        self, sample_documents, dtd_name, level
    ):
        dtd, tree, shredded = sample_documents[dtd_name]
        queries = RandomXPathGenerator(dtd, XPathGenConfig(seed=41)).queries(5)
        translator = XPathToSQLTranslator(
            dtd, config=EngineConfig(optimize_level=level)
        )
        executors = _executors(shredded.database)
        for query_text in queries:
            query = parse_xpath(query_text)
            expected = {str(n.node_id) for n in evaluate_xpath(tree, query)}
            program = translator.translate(query).program
            for name, executor in executors.items():
                ids = _node_ids(executor.run(program))
                assert ids == expected, (dtd_name, name, level, query_text)


WORKLOAD_CASES = workload_cases(max_elements=300)


@pytest.fixture(scope="module")
def workload_answers():
    """Each workload case's tree and the XPath evaluator's answer on it."""
    answers = {}
    for case in WORKLOAD_CASES:
        tree = case.tree()
        expected = {str(n.node_id) for n in evaluate_xpath(tree, parse_xpath(case.query))}
        answers[case.label] = (tree, expected)
    return answers


class TestExecutorsAgreeOnWorkloadCases:
    CONFIGS = (
        EngineConfig(),
        EngineConfig(strategy=DescendantStrategy.RECURSIVE_UNION),
        EngineConfig(push_selections=True),
    )

    @pytest.mark.parametrize("case", WORKLOAD_CASES, ids=lambda c: c.label)
    def test_case_agrees_across_arms_and_with_the_evaluator(
        self, workload_answers, case
    ):
        dtd = case.dtd()
        tree, expected = workload_answers[case.label]
        shredded = shred_document(tree, dtd)
        executors = _executors(shredded.database)
        sqlite = create_backend("sqlite", shredded.database)
        try:
            for config in self.CONFIGS:
                translator = XPathToSQLTranslator(dtd, config=config)
                program = translator.translate(case.query).program
                reference = executors["tuple"].run(program)
                rows = {"columnar": executors["columnar"].run(program).rows}
                # The raw-lowering sentinel: the optimizer's rewrites must
                # not change the rows.
                raw = XPathToSQLTranslator(dtd, config=config.with_(optimize_level=0))
                rows["O0"] = executors["columnar"].run(
                    raw.translate(case.query).program
                ).rows
                for name, arm_rows in rows.items():
                    assert arm_rows == reference.rows, (
                        case.label,
                        config.describe(),
                        name,
                    )
                assert _node_ids(reference) == expected, (case.label, config.describe())
                sqlite_ids = {str(i) for i in sqlite.execute(program).node_ids()}
                assert sqlite_ids == expected, (case.label, config.describe())
        finally:
            sqlite.close()

    def test_most_cases_have_answers(self, workload_answers):
        # Some queries must produce non-empty answers or the sweep is vacuous.
        answered = sum(1 for _, expected in workload_answers.values() if expected)
        assert answered > len(workload_answers) // 2


class TestExecutorsAgreeOnFuzzCorpus:
    @pytest.mark.parametrize("level", OPTIMIZE_LEVELS)
    @pytest.mark.parametrize("case_path", CORPUS_CASES, ids=lambda p: p.stem)
    def test_corpus_case_executor_invariant(self, case_path, level):
        case = FuzzCase.load(case_path)
        dtd = case.dtd()
        tree = case.mutated_tree()
        query = parse_xpath(case.query)
        shredded = shred_document(tree, dtd)
        expected = {str(n.node_id) for n in evaluate_xpath(tree, query)}
        translator = XPathToSQLTranslator(
            dtd, config=EngineConfig(optimize_level=level)
        )
        program = translator.translate(query).program
        for name, executor in _executors(shredded.database).items():
            ids = _node_ids(executor.run(program))
            assert ids == expected, (case.label, name, level)

    def test_corpus_replay_through_the_default_grid_is_clean(self):
        outcomes = replay_corpus(CORPUS_DIR, default_engines())
        failed = [o for o in outcomes if not o.ok]
        assert not failed, [o.case.label for o in failed]


class TestLazyEagerAgree:
    def test_lazy_and_eager_agree(self, sample_documents):
        dtd, tree, shredded = sample_documents["cross"]
        queries = RandomXPathGenerator(dtd, XPathGenConfig(seed=43)).queries(4)
        translator = XPathToSQLTranslator(dtd)
        lazy = Executor(shredded.database)
        eager = Executor(shredded.database, lazy=False)
        for query_text in queries:
            program = translator.translate(query_text).program
            assert lazy.run(program) == eager.run(program), query_text


class TestSharedTemporariesAcrossPlans:
    @pytest.mark.parametrize("dtd_name", ALL_SAMPLE_DTDS)
    def test_one_store_answers_many_plans_like_the_tuple_executor(
        self, sample_documents, dtd_name
    ):
        dtd, tree, shredded = sample_documents[dtd_name]
        database = shredded.database
        queries = RandomXPathGenerator(dtd, XPathGenConfig(seed=47)).queries(8)
        translator = XPathToSQLTranslator(dtd)
        # Every program stays alive, so its entries stay in the table.
        programs = [translator.translate(query).program for query in queries]
        expected = [Executor(database).run(program) for program in programs]
        rng = random.Random(f"shared:{dtd_name}")
        order = list(range(len(programs))) * 2
        rng.shuffle(order)
        store = ColumnarDatabase(database)
        seen = set()
        reused_cold = 0
        for index in order:
            executor = ColumnarExecutor(store)
            assert executor.run(programs[index]) == expected[index], queries[index]
            if index not in seen:
                seen.add(index)
                reused_cold += executor.stats.temporaries_reused
        # Cold runs took entries other plans had materialized.
        assert reused_cold > 0
        assert len(store.shared_temporaries()) < sum(len(p) for p in programs)
