"""A served read builds only its answer: the node ids, and nodes when asked.

``_answer_one`` is what a pool worker runs per read.  With
``include_nodes=False`` it must resolve no :class:`XMLNode` and, on the
memory backend, decode no result row; with ``include_nodes=True`` the
labels and values it ships are the tree's.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig
from repro.dtd import samples
from repro.relational.columnar import ValueDictionary
from repro.service import QueryService
from repro.service.pool import _answer_one
from repro.xmltree.generator import generate_document
from repro.xmltree.tree import XMLTree
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

QUERIES = ["a//d", "a/b//c/d", "a/b//b//c[d]"]


@pytest.fixture(params=["memory", "sqlite"])
def service(request):
    dtd = samples.cross_dtd()
    with QueryService(dtd, config=EngineConfig(backend=request.param)) as service:
        service.register_document(
            "doc", generate_document(dtd, seed=3, max_elements=250)
        )
        yield service


def _expected_nodes(service):
    tree = service.store("doc").tree
    return {
        query: sorted(
            evaluate_xpath(tree, parse_xpath(query)), key=lambda node: node.node_id
        )
        for query in QUERIES
    }


def _refuse(*args, **kwargs):
    raise AssertionError("a served read built more than its answer")


class TestServedRead:
    def test_an_ids_only_read_builds_no_node_and_decodes_no_row(
        self, service, monkeypatch
    ):
        expected = _expected_nodes(service)
        monkeypatch.setattr(XMLTree, "node", _refuse)
        monkeypatch.setattr(ValueDictionary, "decode_rows", _refuse)
        for _ in range(2):  # cold, then from the result cache
            for query in QUERIES:
                answer = _answer_one(service, 0, "doc", query, False)
                assert answer.node_ids == tuple(n.node_id for n in expected[query])
                assert answer.labels is None and answer.values is None

    def test_a_read_with_nodes_ships_the_trees_labels_and_values(self, service):
        for query, nodes in _expected_nodes(service).items():
            answer = _answer_one(service, 0, "doc", query, True)
            assert answer.node_ids == tuple(node.node_id for node in nodes)
            assert answer.labels == tuple(node.label for node in nodes)
            assert answer.values == tuple(node.value for node in nodes)
