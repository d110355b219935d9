"""Executor equivalence: columnar batch engine == tuple-at-a-time engine.

The Issue 8 property: the columnar executor is a pure representation
change — same algebra, same result sets, byte-for-byte.  Checked four
ways:

* schema-guided random queries over *all 8 sample DTDs*, the translated
  program executed on both executors at optimize levels 0 and 2 —
  identical node sets, and identical to the direct XPath evaluator;
* every differential-sweep spec (the paper workloads plus the
  non-recursive DTD, including the recursive-union and pushed-selection
  configurations), with the sqlite backend as a third arm so both
  backends' answers pin the executors;
* every case of the checked-in fuzz regression corpus replayed through
  the default engine grid, which since Issue 8 carries a
  ``.../opt/tuple`` oracle arm per strategy — plus an explicit
  per-corpus-case executor comparison at both optimize levels;
* lazy and eager evaluation agree per executor (the strategies share the
  warm-temporaries namespace, so this also exercises temp reuse);
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
from repro.backends.differential import default_specs
from repro.core.pipeline import XPathToSQLTranslator
from repro.dtd import samples
from repro.fuzz.cases import FuzzCase
from repro.fuzz.harness import replay_corpus
from repro.fuzz.oracle import default_engines
from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig
from repro.relational.columnar import EXECUTOR_NAMES, ColumnarDatabase, ColumnarExecutor
from repro.relational.executor import Executor
from repro.shredding.shredder import shred_document
from repro.xmltree.generator import generate_document
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

ALL_SAMPLE_DTDS = sorted(samples.paper_dtds())
OPTIMIZE_LEVELS = (0, 2)
CORPUS_DIR = Path(__file__).resolve().parent.parent / "fuzz" / "corpus"
CORPUS_CASES = sorted(CORPUS_DIR.glob("*.json"))


def _memory_backends(database):
    """One memory backend per executor, keyed by executor name."""
    return {
        executor: create_backend(
            EngineConfig(backend="memory", executor=executor), database
        )
        for executor in EXECUTOR_NAMES
    }


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
        translator = XPathToSQLTranslator(dtd, optimize_level=level)
        backends = _memory_backends(shredded.database)
        for query_text in queries:
            query = parse_xpath(query_text)
            expected = {str(n.node_id) for n in evaluate_xpath(tree, query)}
            program = translator.translate(query).program
            per_executor = {
                executor: set(backend.execute(program).node_ids())
                for executor, backend in backends.items()
            }
            for executor, ids in per_executor.items():
                assert ids == expected, (dtd_name, executor, level, query_text)


class TestExecutorsAgreeOnDifferentialSpecs:
    SPECS = default_specs(max_elements=250)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
    def test_spec_queries_agree_across_executors_and_backends(self, spec):
        shredded = shred_document(spec.materialize(), spec.dtd)
        translator = XPathToSQLTranslator(spec.dtd, config=spec.engine_config())
        backends = _memory_backends(shredded.database)
        backends["sqlite"] = create_backend("sqlite", shredded.database)
        try:
            for query_name, query in spec.queries.items():
                program = translator.translate(query).program
                answers = {
                    name: backend.execute(program).rows
                    for name, backend in backends.items()
                }
                reference = answers["tuple"]
                for name, rows in answers.items():
                    assert rows == reference, (spec.label, query_name, name)
        finally:
            for backend in backends.values():
                backend.close()


class TestExecutorsAgreeOnFuzzCorpus:
    @pytest.mark.parametrize("level", OPTIMIZE_LEVELS)
    @pytest.mark.parametrize("case_path", CORPUS_CASES, ids=lambda p: p.stem)
    def test_corpus_case_executor_invariant(self, case_path, level):
        case = FuzzCase.load(case_path)
        dtd = case.dtd()
        tree = case.tree()
        query = parse_xpath(case.query)
        shredded = shred_document(tree, dtd)
        expected = {str(n.node_id) for n in evaluate_xpath(tree, query)}
        translator = XPathToSQLTranslator(dtd, optimize_level=level)
        program = translator.translate(query).program
        for executor, backend in _memory_backends(shredded.database).items():
            ids = set(backend.execute(program).node_ids())
            assert ids == expected, (case.label, executor, level)

    def test_corpus_replay_through_the_default_grid_is_clean(self):
        # The default grid has carried a tuple-executor oracle arm per
        # strategy since Issue 8, so a full-grid replay differentially
        # checks the executors on every saved regression case.
        engines = default_engines()
        assert any(e.executor == "tuple" for e in engines)
        assert any(e.executor == "columnar" for e in engines)
        outcomes = replay_corpus(CORPUS_DIR, engines)
        failed = [o for o in outcomes if not o.ok]
        assert not failed, [o.case.label for o in failed]


class TestLazyEagerAgreePerExecutor:
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_lazy_and_eager_agree(self, sample_documents, executor):
        dtd, tree, shredded = sample_documents["cross"]
        queries = RandomXPathGenerator(dtd, XPathGenConfig(seed=43)).queries(4)
        translator = XPathToSQLTranslator(dtd)
        lazy = create_backend("memory", shredded.database, executor=executor)
        eager = create_backend(
            "memory", shredded.database, executor=executor, lazy=False
        )
        for query_text in queries:
            program = translator.translate(query_text).program
            assert lazy.execute(program).rows == eager.execute(program).rows, (
                executor,
                query_text,
            )


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
            executor = ColumnarExecutor(store, lazy=rng.random() < 0.5)
            assert executor.run(programs[index]) == expected[index], queries[index]
            if index not in seen:
                seen.add(index)
                reused_cold += executor.stats.temporaries_reused
        # Cold runs took entries other plans had materialized.
        assert reused_cold > 0
        assert len(store.shared_temporaries()) < sum(len(p) for p in programs)
