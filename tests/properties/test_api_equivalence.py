"""Facade equivalence: ``Engine``/``Session`` answers == the layers below.

The Issue 5 acceptance property: for every sample DTD, on both execution
backends, at optimizer levels 0 and 2, the public facade answers every
query with exactly the node set of (a) a direct
:class:`~repro.service.QueryService` and (b) a bare
:class:`~repro.core.pipeline.XPathToSQLTranslator`'s program run on the
memory backend over the same shredded document — i.e. the facade adds no
semantics, only the narrowed surface.
"""

from __future__ import annotations

import pytest

from repro.api import Engine, EngineConfig
from repro.core.pipeline import XPathToSQLTranslator
from repro.dtd import samples
from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig
from repro.service import QueryService
from repro.shredding.shredder import shred_document
from repro.xmltree.generator import generate_document

from ..helpers import rdbms_ids

ALL_SAMPLE_DTDS = sorted(samples.paper_dtds())
BACKENDS = ("memory", "sqlite")
LEVELS = (0, 2)
QUERIES_PER_DTD = 4


@pytest.fixture(scope="module")
def sample_documents():
    documents = {}
    for name, dtd in samples.paper_dtds().items():
        documents[name] = (
            dtd,
            generate_document(
                dtd, x_l=7, x_r=3, seed=31, max_elements=220, distinct_values=4
            ),
        )
    return documents


class TestFacadeMatchesUnderlyingLayers:
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dtd_name", ALL_SAMPLE_DTDS)
    def test_engine_session_equals_service_and_translator(
        self, sample_documents, dtd_name, backend, level
    ):
        dtd, tree = sample_documents[dtd_name]
        queries = RandomXPathGenerator(dtd, XPathGenConfig(seed=37)).queries(
            QUERIES_PER_DTD
        )
        config = EngineConfig(backend=backend, optimize_level=level)

        engine = Engine.from_dtd(dtd, config)
        translator = XPathToSQLTranslator(dtd, config=config)
        shredded = shred_document(tree, dtd)
        with engine.open_session(tree) as session, QueryService(
            dtd, config=config
        ) as service:
            service.register_document("doc", tree)
            for query in queries:
                via_facade = {node.node_id for node in session.answer(query)}
                via_service = {node.node_id for node in service.answer(query)}
                via_translator = set(rdbms_ids(translator, query, shredded))
                assert via_facade == via_service, (dtd_name, backend, level, query)
                assert via_facade == via_translator, (dtd_name, backend, level, query)

    @pytest.mark.parametrize("dtd_name", ALL_SAMPLE_DTDS)
    def test_facade_warm_answers_stay_identical(self, sample_documents, dtd_name):
        """Repeat answering through every cache layer changes nothing."""
        dtd, tree = sample_documents[dtd_name]
        query = RandomXPathGenerator(dtd, XPathGenConfig(seed=41)).generate()
        with Engine.from_dtd(dtd).open_session(tree) as session:
            cold = session.answer(query).node_ids()
            for _ in range(3):
                assert session.answer(query).node_ids() == cold, (dtd_name, query)
