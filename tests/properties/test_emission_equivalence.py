"""Emission & interval equivalence: the PR 9 tentpole invariants.

Two independent properties, each pinned node-for-node against the direct
XPath evaluator (the paper's ``Q(T)`` semantics):

* **single-statement fusion** — fusing a multi-statement program into one
  ``WITH [RECURSIVE]`` statement is a pure statement-shape change: on
  SQLite the fused plan answers every query with exactly the node set the
  per-temp-table plan (and the evaluator) produces, over all 8 sample
  DTDs at optimize levels 0 and 2, and the fused form really is ONE
  statement;
* **interval strategy** — lowering ``//`` to a range-predicate join over
  the ``DOC_ORDER`` pre/post/size table is a pure strategy change: it
  matches the evaluator (and CycleEX) on both memory executors and on
  SQLite, over all 8 sample DTDs at both levels.

Plus the regression-corpus replay: the default grid carries a
``sqlite/<strategy>/opt/single`` arm per strategy and interval arms on
every backend since PR 9, so replaying the checked-in fuzz corpus
differentially checks both new paths on every saved repro.
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
from repro.relational.sqlgen import SQLDialect, program_to_single_sql
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


class TestSingleStatementEmission:
    @pytest.mark.parametrize("level", OPTIMIZE_LEVELS)
    @pytest.mark.parametrize("dtd_name", ALL_SAMPLE_DTDS)
    def test_fused_matches_multi_and_evaluator(self, sample_documents, dtd_name, level):
        dtd, tree, shredded = sample_documents[dtd_name]
        queries = RandomXPathGenerator(dtd, XPathGenConfig(seed=41)).queries(5)
        translator = XPathToSQLTranslator(
            dtd, config=EngineConfig(optimize_level=level)
        )
        multi = create_backend("sqlite", shredded.database)
        single = create_backend("sqlite", shredded.database, emission="single")
        try:
            for query_text in queries:
                query = parse_xpath(query_text)
                expected = {str(n.node_id) for n in evaluate_xpath(tree, query)}
                program = translator.translate(query).program
                assert set(multi.execute(program).node_ids()) == expected, (
                    dtd_name, level, query_text, "multi",
                )
                assert set(single.execute(program).node_ids()) == expected, (
                    dtd_name, level, query_text, "single",
                )
        finally:
            multi.close()
            single.close()

    @pytest.mark.parametrize("dtd_name", ALL_SAMPLE_DTDS)
    def test_fused_form_is_one_statement(self, sample_documents, dtd_name):
        # The fused rendering must be executable as exactly one statement:
        # sqlite3's execute() rejects scripts with more than one, so this
        # is checked by the execution tests too — here we additionally pin
        # the text shape (a single WITH/SELECT, no semicolons inside).
        dtd, _, _ = sample_documents[dtd_name]
        queries = RandomXPathGenerator(dtd, XPathGenConfig(seed=41)).queries(5)
        translator = XPathToSQLTranslator(dtd)
        for query_text in queries:
            program = translator.translate(query_text).program
            fused = program_to_single_sql(program, SQLDialect.SQLITE)
            assert ";" not in fused, (dtd_name, query_text)
            assert fused.lstrip().upper().startswith(("WITH", "SELECT")), (
                dtd_name, query_text,
            )

    def test_unfusable_program_falls_back_to_multi(self):
        # The paper-dept corpus query lowers (under pushed selections) to a
        # ~90-assignment program whose CTE DAG SQLite cannot substitute
        # (its parser copies every CTE reference and hard-caps references
        # per table at 65535).  The single-emission backend must detect
        # this and fall back to the multi-statement plan, still answering
        # exactly like the evaluator.
        from repro.fuzz.cases import FuzzCase
        from repro.relational.sqlgen import FUSED_SCAN_LIMIT, fused_scan_count

        case = FuzzCase.load(CORPUS_DIR / "paper-dept.json")
        dtd, tree = case.dtd(), case.tree()
        config = EngineConfig(
            backend="sqlite", emission="single",
            use_small_seed=True, push_selections=True,
        )
        translator = XPathToSQLTranslator(dtd, config=config)
        program = translator.translate(case.query).program
        assert fused_scan_count(program.pruned()) > FUSED_SCAN_LIMIT
        shredded = shred_document(tree, dtd)
        expected = {
            str(n.node_id)
            for n in evaluate_xpath(tree, parse_xpath(case.query))
        }
        backend = create_backend(config, shredded.database)
        try:
            assert set(backend.execute(program).node_ids()) == expected
        finally:
            backend.close()

    def test_oracle_raises_for_connect_by(self):
        translator = XPathToSQLTranslator(samples.dept_dtd())
        program = translator.translate("dept//project").program
        with pytest.raises(ValueError):
            program_to_single_sql(program, SQLDialect.ORACLE)


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
                expected = {str(n.node_id) for n in evaluate_xpath(tree, query)}
                program = translator.translate(query).program
                answers = {
                    name: {str(i) for i in executor.run(program).column_values(T)}
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


class TestCorpusReplayThroughNewArms:
    def test_grid_carries_the_new_arms(self):
        engines = default_engines()
        names = {engine_name(engine) for engine in engines}
        assert any(e.emission == "single" for e in engines)
        assert any(
            e.strategy is DescendantStrategy.INTERVAL for e in engines
        )
        assert "sqlite/interval/opt/single" in names

    def test_corpus_replay_is_clean(self):
        outcomes = replay_corpus(CORPUS_DIR, default_engines())
        failed = [o for o in outcomes if not o.ok]
        assert not failed, [o.case.label for o in failed]
