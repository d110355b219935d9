"""Deterministic-seed validity properties of the random generators.

The whole fuzzing subsystem rests on three guarantees, checked here over a
spread of seeds:

* generated DTDs are structurally valid, round-trip through the grammar
  syntax, and are recursive exactly when cycles were requested;
* documents generated from a random DTD always conform to it;
* generated queries always parse, resolve every label against the DTD, and
  translate under every descendant strategy.
"""

import pytest

from repro.api import EngineConfig
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd.parser import parse_dtd
from repro.fuzz.cases import DocumentSpec, FuzzCase
from repro.fuzz.dtd_gen import DTDGenConfig, RandomDTDGenerator
from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig, query_labels
from repro.xmltree.validator import conforms
from repro.xpath.parser import parse_xpath

SEEDS = list(range(12))


def _dtd_for(seed: int, cycle_edges: int):
    return RandomDTDGenerator(DTDGenConfig(seed=seed, cycle_edges=cycle_edges)).generate()


class TestRandomDTDGenerator:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_valid_and_round_trips(self, seed):
        dtd = _dtd_for(seed, cycle_edges=seed % 4)
        # The DTD constructor validates referential integrity; also check
        # the grammar-text round trip preserves the graph exactly.
        reparsed = parse_dtd(dtd.to_text())
        assert set(reparsed.element_types) == set(dtd.element_types)
        assert reparsed.text_types == dtd.text_types
        assert {(e.parent, e.child, e.starred) for e in reparsed.edges()} == {
            (e.parent, e.child, e.starred) for e in dtd.edges()
        }

    @pytest.mark.parametrize("seed", SEEDS)
    def test_recursion_is_a_knob(self, seed):
        assert not _dtd_for(seed, cycle_edges=0).is_recursive()
        assert _dtd_for(seed, cycle_edges=2).is_recursive()

    def test_deterministic_per_seed(self):
        config = DTDGenConfig(seed=99, cycle_edges=2)
        first = RandomDTDGenerator(config).generate()
        second = RandomDTDGenerator(config).generate()
        assert first.to_text() == second.to_text()

    def test_distinct_seeds_differ(self):
        texts = {_dtd_for(seed, cycle_edges=1).to_text() for seed in range(20)}
        assert len(texts) > 10  # some collisions are fine; sameness is not

    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated_documents_conform(self, seed):
        dtd = _dtd_for(seed, cycle_edges=seed % 4)
        for doc_seed in (0, 1, 2):
            tree = DocumentSpec(seed=doc_seed, max_elements=150).generate(dtd)
            assert conforms(tree, dtd), (seed, doc_seed, dtd.to_text())


class TestRandomXPathGenerator:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_queries_parse_and_resolve(self, seed):
        dtd = _dtd_for(seed, cycle_edges=seed % 3)
        generator = RandomXPathGenerator(
            dtd, XPathGenConfig(seed=seed, predicate_probability=0.6)
        )
        for query_text in generator.queries(8):
            path = parse_xpath(query_text)
            assert query_labels(path) <= set(dtd.element_types), query_text
            assert str(parse_xpath(str(path))) == str(path)  # print/parse round trip

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_queries_translate_under_every_strategy(self, seed):
        dtd = _dtd_for(seed, cycle_edges=2)
        generator = RandomXPathGenerator(dtd, XPathGenConfig(seed=seed))
        queries = generator.queries(5)
        for strategy in DescendantStrategy:
            translator = XPathToSQLTranslator(
                dtd, config=EngineConfig(strategy=strategy)
            )
            for query_text in queries:
                result = translator.translate(query_text)
                assert result.program.assignments or result.program.result is not None

    def test_deterministic_stream(self):
        dtd = _dtd_for(7, cycle_edges=2)
        first = RandomXPathGenerator(dtd, XPathGenConfig(seed=3)).queries(10)
        second = RandomXPathGenerator(dtd, XPathGenConfig(seed=3)).queries(10)
        assert first == second


class TestCaseSerialization:
    def test_json_round_trip(self):
        dtd = _dtd_for(5, cycle_edges=1)
        case = FuzzCase(
            label="round-trip",
            dtd_text=dtd.to_text(),
            query="e0//e1",
            document=DocumentSpec(seed=9, max_elements=64, x_l=5),
        )
        restored = FuzzCase.from_json(case.to_json())
        assert restored == case
        assert restored.dtd().to_text() == dtd.to_text()

    def test_save_and_load(self, tmp_path):
        case = FuzzCase("disk", _dtd_for(6, 1).to_text(), "e0/*")
        path = tmp_path / "case.json"
        case.save(path)
        assert FuzzCase.load(path) == case

    def test_unsupported_format_rejected(self):
        with pytest.raises(ValueError):
            FuzzCase.from_dict({"format": 999, "label": "x", "dtd": "", "query": ""})

    def test_malformed_cases_raise_value_error(self):
        with pytest.raises(ValueError, match="missing field"):
            FuzzCase.from_dict({"label": "x", "dtd": "root r\nr -> EMPTY\n"})
        with pytest.raises(ValueError, match="unknown knob"):
            FuzzCase.from_dict(
                {"label": "x", "dtd": "", "query": "r", "document": {"bogus_knob": 3}}
            )
        with pytest.raises(ValueError, match="must be an object"):
            FuzzCase.from_dict({"label": "x", "dtd": "", "query": "r", "document": 7})
