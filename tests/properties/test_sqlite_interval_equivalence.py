"""SQLite and interval-strategy equivalence.

Two independent properties, each pinned node-for-node against the direct
XPath evaluator (the paper's ``Q(T)`` semantics):

* **the per-statement SQLite script** — running a program as one
  ``CREATE TEMPORARY TABLE ... AS`` statement per assignment plus the
  result SELECT answers every query with exactly the evaluator's node
  set, over all 8 sample DTDs at optimize levels 0 and 2;
* **interval strategy** — lowering ``//`` to a range-predicate join over
  the ``DOC_ORDER`` pre/post/size table is a pure strategy change: it
  matches the evaluator (and CycleEX) on both memory executors and on
  SQLite, over all 8 sample DTDs at both levels.

Plus the regression-corpus replay: the default grid carries interval arms
on every backend, so replaying the checked-in fuzz corpus differentially
checks the interval lowering on every saved repro.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api.config import EngineConfig
from repro.backends import create_backend
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd import samples
from repro.fuzz.harness import replay_corpus
from repro.fuzz.oracle import default_engines, engine_name
from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig
from repro.relational.columnar import ColumnarDatabase, ColumnarExecutor
from repro.relational.executor import Executor
from repro.relational.schema import T
from repro.shredding.shredder import shred_document
from repro.xmltree.generator import generate_document
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

ALL_SAMPLE_DTDS = sorted(samples.paper_dtds())
OPTIMIZE_LEVELS = (0, 2)
CORPUS_DIR = Path(__file__).resolve().parent.parent / "fuzz" / "corpus"


@pytest.fixture(scope="module")
def sample_documents():
    documents = {}
    for name, dtd in samples.paper_dtds().items():
        tree = generate_document(
            dtd, x_l=7, x_r=3, seed=37, max_elements=250, distinct_values=4
        )
        documents[name] = (dtd, tree, shred_document(tree, dtd))
    return documents


class TestSqliteScript:
    @pytest.mark.parametrize("level", OPTIMIZE_LEVELS)
    @pytest.mark.parametrize("dtd_name", ALL_SAMPLE_DTDS)
    def test_sqlite_matches_evaluator(self, sample_documents, dtd_name, level):
        dtd, tree, shredded = sample_documents[dtd_name]
        queries = RandomXPathGenerator(dtd, XPathGenConfig(seed=41)).queries(5)
        translator = XPathToSQLTranslator(
            dtd, config=EngineConfig(optimize_level=level)
        )
        sqlite = create_backend("sqlite", shredded.database)
        try:
            for query_text in queries:
                query = parse_xpath(query_text)
                expected = {n.node_id for n in evaluate_xpath(tree, query)}
                program = translator.translate(query).program
                assert set(sqlite.execute(program).node_ids()) == expected, (
                    dtd_name, level, query_text,
                )
        finally:
            sqlite.close()


class TestIntervalStrategy:
    @pytest.mark.parametrize("level", OPTIMIZE_LEVELS)
    @pytest.mark.parametrize("dtd_name", ALL_SAMPLE_DTDS)
    def test_interval_matches_evaluator_everywhere(
        self, sample_documents, dtd_name, level
    ):
        dtd, tree, shredded = sample_documents[dtd_name]
        queries = RandomXPathGenerator(dtd, XPathGenConfig(seed=41)).queries(5)
        translator = XPathToSQLTranslator(
            dtd,
            config=EngineConfig(
                strategy=DescendantStrategy.INTERVAL, optimize_level=level
            ),
        )
        # Both in-memory executors run directly, so each is checked on
        # every document size; SQLite runs through its backend.
        executors = {
            "tuple": Executor(shredded.database),
            "columnar": ColumnarExecutor(ColumnarDatabase(shredded.database)),
        }
        sqlite = create_backend("sqlite", shredded.database)
        try:
            for query_text in queries:
                query = parse_xpath(query_text)
                expected = {n.node_id for n in evaluate_xpath(tree, query)}
                program = translator.translate(query).program
                answers = {
                    name: executor.run(program).column_values(T)
                    for name, executor in executors.items()
                }
                answers["sqlite"] = set(sqlite.execute(program).node_ids())
                for name, ids in answers.items():
                    assert ids == expected, (dtd_name, name, level, query_text)
        finally:
            sqlite.close()

    @pytest.mark.parametrize("dtd_name", ("cross", "gedml"))
    def test_interval_program_has_no_fixpoint(self, dtd_name):
        # On the recursive DTDs the interval strategy must replace the
        # recursive unfolding entirely: no LFP, no SQL'99 recursion.
        dtd = samples.paper_dtds()[dtd_name]
        translator = XPathToSQLTranslator(
            dtd, config=EngineConfig(strategy=DescendantStrategy.INTERVAL)
        )
        query = "a//d" if dtd_name == "cross" else "even//data"
        profile = translator.translate(query).operator_profile()
        assert profile.lfps == 0, dtd_name
        assert profile.recursive_unions == 0, dtd_name


class TestCorpusReplayThroughTheGrid:
    def test_grid_carries_the_interval_arms(self):
        names = {engine_name(engine) for engine in default_engines()}
        assert {
            "memory/interval/baseline", "memory/interval/opt", "sqlite/interval/opt",
        } <= names
        # One SQLite statement shape: no arm fuses the program.
        assert not any(name.endswith("/single") for name in names)

    def test_corpus_replay_is_clean(self):
        outcomes = replay_corpus(CORPUS_DIR, default_engines())
        failed = [o for o in outcomes if not o.ok]
        assert not failed, [o.case.label for o in failed]
