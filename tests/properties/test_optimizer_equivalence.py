"""Optimizer-level equivalence: level 0 == level 1 == level 2, everywhere.

The Issue 4 property: the program-optimizer pass pipeline is semantically
invisible.  Checked three ways:

* schema-guided random queries over *all 8 sample DTDs*, executed on both
  backends at every optimizer level — identical node sets (and identical to
  the direct XPath evaluator);
* every case of the checked-in fuzz regression corpus replayed at every
  level;
* the auto strategy answers exactly like every concrete strategy.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig
from repro.backends import create_backend
from repro.core.optimize import OPTIMIZE_LEVELS
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd import samples
from repro.fuzz.cases import FuzzCase
from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig
from repro.shredding.shredder import shred_document
from repro.xmltree.generator import generate_document
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

from pathlib import Path

from ..helpers import rdbms_ids

ALL_SAMPLE_DTDS = sorted(samples.paper_dtds())
BACKENDS = ("memory", "sqlite")
CORPUS_DIR = Path(__file__).resolve().parent.parent / "fuzz" / "corpus"


@pytest.fixture(scope="module")
def sample_documents():
    documents = {}
    for name, dtd in samples.paper_dtds().items():
        tree = generate_document(
            dtd, x_l=7, x_r=3, seed=29, max_elements=250, distinct_values=4
        )
        documents[name] = (dtd, tree, shred_document(tree, dtd))
    return documents


class TestLevelsAgreeOnSampleDTDs:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("dtd_name", ALL_SAMPLE_DTDS)
    def test_all_levels_return_identical_answers(
        self, sample_documents, dtd_name, backend_name
    ):
        dtd, tree, shredded = sample_documents[dtd_name]
        queries = RandomXPathGenerator(dtd, XPathGenConfig(seed=19)).queries(5)
        backend = create_backend(backend_name, shredded.database)
        try:
            for query_text in queries:
                query = parse_xpath(query_text)
                expected = {n.node_id for n in evaluate_xpath(tree, query)}
                per_level = {}
                for level in OPTIMIZE_LEVELS:
                    translator = XPathToSQLTranslator(
                        dtd, config=EngineConfig(optimize_level=level)
                    )
                    program = translator.translate(query).program
                    per_level[level] = set(backend.execute(program).node_ids())
                for level, ids in per_level.items():
                    assert ids == expected, (dtd_name, backend_name, level, query_text)
        finally:
            backend.close()


class TestLevelsAgreeOnFuzzCorpus:
    CASES = sorted(CORPUS_DIR.glob("*.json"))

    @pytest.mark.parametrize("case_path", CASES, ids=lambda p: p.stem)
    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_corpus_case_level_invariant(self, case_path, backend_name):
        case = FuzzCase.load(case_path)
        dtd = case.dtd()
        tree = case.mutated_tree()
        query = parse_xpath(case.query)
        shredded = shred_document(tree, dtd)
        expected = {n.node_id for n in evaluate_xpath(tree, query)}
        backend = create_backend(backend_name, shredded.database)
        try:
            for level in OPTIMIZE_LEVELS:
                translator = XPathToSQLTranslator(
                    dtd, config=EngineConfig(optimize_level=level)
                )
                program = translator.translate(query).program
                ids = set(backend.execute(program).node_ids())
                assert ids == expected, (case.label, backend_name, level)
        finally:
            backend.close()


class TestAutoStrategyEquivalence:
    @pytest.mark.parametrize("dtd_name", ALL_SAMPLE_DTDS)
    def test_auto_matches_every_concrete_strategy(self, sample_documents, dtd_name):
        dtd, tree, shredded = sample_documents[dtd_name]
        queries = RandomXPathGenerator(dtd, XPathGenConfig(seed=23)).queries(4)
        auto = XPathToSQLTranslator(
            dtd, config=EngineConfig(strategy=DescendantStrategy.AUTO)
        )
        concrete = [
            XPathToSQLTranslator(dtd, config=EngineConfig(strategy=strategy))
            for strategy in DescendantStrategy
            if strategy is not DescendantStrategy.AUTO
        ]
        for query_text in queries:
            query = parse_xpath(query_text)
            via_auto = set(rdbms_ids(auto, query, shredded))
            for translator in concrete:
                got = set(rdbms_ids(translator, query, shredded))
                assert got == via_auto, (dtd_name, translator.strategy, query_text)
