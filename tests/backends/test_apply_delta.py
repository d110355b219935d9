"""``Backend.apply_delta``: the one sanctioned route for mutating a store."""

from __future__ import annotations

import pytest

from repro.api.config import EngineConfig
from repro.backends import create_backend
from repro.backends.base import Backend
from repro.core.pipeline import XPathToSQLTranslator
from repro.dtd import samples
from repro.errors import ExecutionError
from repro.live.delta import ShredDelta
from repro.live.mutations import DocumentMutator
from repro.relational.columnar import columnar_store
from repro.relational.relation import Relation
from repro.shredding.shredder import shred_document
from repro.xmltree.generator import generate_document
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

QUERY = "a//d"


def _setup(max_elements=300):
    dtd = samples.cross_dtd()
    tree = generate_document(dtd, seed=13, max_elements=max_elements)
    shredded = shred_document(tree, dtd)
    program = XPathToSQLTranslator(dtd).translate(parse_xpath(QUERY)).program
    return dtd, tree, shredded, program


def _expected(tree):
    return {n.node_id for n in evaluate_xpath(tree, parse_xpath(QUERY))}


class TestMemoryStaleGuard:
    def test_out_of_band_mutation_raises_a_clear_error(self):
        """Regression: a database mutated behind the backend's back used to be
        silently re-encoded into the columnar store on the next query."""
        dtd, tree, shredded, program = _setup()
        backend = create_backend("memory", shredded.database)
        backend.execute(program)
        relation = shredded.database.relation("DOC_ORDER")
        shredded.database.set_relation(
            "DOC_ORDER", Relation(relation.columns, set(relation.rows), name="DOC_ORDER")
        )
        with pytest.raises(ExecutionError, match="apply_delta"):
            backend.execute(program)

    def test_apply_delta_is_the_sanctioned_route(self):
        dtd, tree, shredded, program = _setup()
        backend = create_backend("memory", shredded.database)
        mutator = DocumentMutator(tree, dtd)
        text_node = next(n for n in tree.nodes() if n.label in dtd.text_types)
        backend.apply_delta(mutator.replace_text(text_node, "sanctioned"))
        ids = {int(i) for i in backend.execute(program).node_ids()}
        assert ids == _expected(tree)

    def test_default_apply_delta_is_rejected_with_guidance(self):
        dtd, tree, shredded, _ = _setup(max_elements=60)

        class InertBackend(Backend):
            name = "inert"

            def execute(self, program):  # pragma: no cover - never called
                raise AssertionError

        backend = InertBackend(shredded.database)
        with pytest.raises(ExecutionError, match="re-register"):
            backend.apply_delta(ShredDelta())


class TestColumnarInPlacePatch:
    # 12 elements shred to 32 rows: tiny stores are patched in place too.
    @pytest.mark.parametrize("max_elements", [300, 12])
    def test_store_is_patched_not_rebuilt(self, max_elements):
        dtd, tree, shredded, program = _setup(max_elements)
        backend = create_backend(EngineConfig(backend="memory"), shredded.database)
        backend.execute(program)
        store = columnar_store(shredded.database)
        untouched = {
            name: store.relation(name)
            for name in shredded.database
        }
        mutator = DocumentMutator(tree, dtd)
        text_node = next(n for n in tree.nodes() if n.label in dtd.text_types)
        delta = mutator.replace_text(text_node, "patched-in-place")
        backend.apply_delta(delta)
        # Same store object, adopted version: no from-scratch re-encode.
        assert columnar_store(shredded.database) is store
        assert store.version == shredded.database.version
        # Relations outside the delta keep their encodings.
        for name, relation in untouched.items():
            if name not in delta.relations():
                assert store.relation(name) is relation, name
        ids = {int(i) for i in backend.execute(program).node_ids()}
        assert ids == _expected(tree)

    def test_patched_store_equals_fresh_encode(self):
        dtd, tree, shredded, program = _setup()
        backend = create_backend(EngineConfig(backend="memory"), shredded.database)
        mutator = DocumentMutator(tree, dtd)
        text_nodes = [n for n in tree.nodes() if n.label in dtd.text_types]
        backend.apply_delta(mutator.replace_text(text_nodes[0], "round-1"))
        backend.apply_delta(mutator.replace_text(text_nodes[-1], "round-2"))
        patched = columnar_store(shredded.database)
        scratch = shred_document(tree, dtd)
        fresh = columnar_store(scratch.database)
        for name in scratch.database:
            assert set(map(tuple, _decoded_rows(patched, name))) == set(
                map(tuple, _decoded_rows(fresh, name))
            ), name


def _decoded_rows(store, name):
    relation = store.relation(name)
    decode = store.dictionary.decode
    return [tuple(decode(code) for code in row) for row in relation.rows()]


class TestSqliteApplyDelta:
    def test_delta_updates_answers(self):
        dtd, tree, shredded, program = _setup()
        backend = create_backend("sqlite", shredded.database)
        try:
            backend.execute(program)
            mutator = DocumentMutator(tree, dtd)
            text_node = next(n for n in tree.nodes() if n.label in dtd.text_types)
            backend.apply_delta(mutator.replace_text(text_node, "sqlite-side"))
            ids = {int(i) for i in backend.execute(program).node_ids()}
            assert ids == _expected(tree)
        finally:
            backend.close()

    def test_bad_delta_rejected_before_reaching_sqlite(self):
        dtd, tree, shredded, program = _setup(max_elements=80)
        backend = create_backend("sqlite", shredded.database)
        try:
            before = frozenset(shredded.database.relation("DOC_ORDER").rows)
            bogus = ShredDelta.build({"DOC_ORDER": {(999999, 1, 2, 3)}}, {})
            with pytest.raises(ExecutionError, match="different database state"):
                backend.apply_delta(bogus)
            assert frozenset(shredded.database.relation("DOC_ORDER").rows) == before
            backend.execute(program)  # still serviceable
        finally:
            backend.close()
