"""``Backend.apply_delta``: the one sanctioned route for mutating a store."""

from __future__ import annotations

import pickle
import sqlite3

import pytest

from repro.api.config import EngineConfig
from repro.backends import create_backend
from repro.backends.base import Backend
from repro.core.pipeline import XPathToSQLTranslator
from repro.dtd import samples
from repro.errors import ExecutionError
from repro.live.delta import ShredDelta
from repro.live.mutations import DocumentMutator
from repro.relational.columnar import ColumnarDatabase
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


def _d_node(tree):
    """A ``d`` node: the cross DTD lets every one of them be deleted."""
    return next(node for node in tree.nodes() if node.label == "d")


class TestOneStorePerBackend:
    """A backend's store is its own: the database it was built from is
    never written, and a later ``set_relation`` on it changes no answer."""

    @pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
    def test_set_relation_on_the_database_changes_no_answer(self, backend_name):
        dtd, tree, shredded, program = _setup()
        database = shredded.database
        with create_backend(backend_name, database) as backend:
            for name in database:
                database.set_relation(name, Relation(database.relation(name).columns))
            assert set(backend.execute(program).node_ids()) == _expected(tree)
            mutator = DocumentMutator(tree, dtd)
            backend.apply_delta(mutator.delete_subtree(_d_node(tree)))
            assert set(backend.execute(program).node_ids()) == _expected(tree)
        assert database.total_rows() == 0  # and the delta did not reach it

    @pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
    def test_a_rejected_two_relation_delta_changes_nothing(self, backend_name):
        """A delta deleting a present ``DOC_ORDER`` row and an absent ``R_d``
        row used to remove the ``DOC_ORDER`` row from one copy of the rows."""
        dtd, tree, shredded, program = _setup()
        order = shredded.database.relation("DOC_ORDER")
        root_order = next(row for row in order.rows if row[order.column_index("PRE")] == 0)
        bogus = ShredDelta.build(
            {"DOC_ORDER": {root_order}, "R_d": {("_", 999_999, "ghost")}}, {}
        )
        with create_backend(backend_name, shredded.database) as backend:
            before = backend.execute(program).node_ids()
            with pytest.raises(ExecutionError, match="different database state"):
                backend.apply_delta(bogus)
            assert backend.execute(program).node_ids() == before
            # Any structural delta renumbers the root's DOC_ORDER row, so it
            # applies only if the rejected delta left that row in place.
            mutator = DocumentMutator(tree, dtd)
            backend.apply_delta(mutator.delete_subtree(_d_node(tree)))
            assert set(backend.execute(program).node_ids()) == _expected(tree)

    def test_a_pickled_memory_backend_keeps_its_deltas(self):
        dtd, tree, shredded, program = _setup()
        backend = create_backend("memory", shredded.database)
        backend.execute(program)  # the plan's relations are encoded, DOC_ORDER is not
        backend.apply_delta(DocumentMutator(tree, dtd).delete_subtree(_d_node(tree)))
        clone = pickle.loads(pickle.dumps(backend))
        assert set(clone.execute(program).node_ids()) == _expected(tree)
        shipped = clone._store.snapshot()
        scratch = shred_document(tree, dtd).database
        for name in scratch:
            assert shipped.relation(name) == scratch.relation(name), name


class TestMemoryApplyDelta:
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
        store = backend._store
        untouched = {
            name: store.relation(name)
            for name in shredded.database
        }
        mutator = DocumentMutator(tree, dtd)
        text_node = next(n for n in tree.nodes() if n.label in dtd.text_types)
        delta = mutator.replace_text(text_node, "patched-in-place")
        backend.apply_delta(delta)
        # Same store object: no from-scratch re-encode.
        assert backend._store is store
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
        patched = backend._store
        scratch = shred_document(tree, dtd)
        fresh = ColumnarDatabase(scratch.database)
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


class _FailingInsert:
    """A SQLite connection whose first ``INSERT`` batch raises."""

    def __init__(self, connection):
        self._connection = connection
        self._failed = False

    def executemany(self, statement, rows):
        if statement.startswith("INSERT") and not self._failed:
            self._failed = True
            raise sqlite3.OperationalError("injected insert failure")
        return self._connection.executemany(statement, rows)

    def __getattr__(self, name):
        return getattr(self._connection, name)


def test_sqlite_delta_failing_at_insert_leaves_old_answers_and_reapplies():
    """The backend once updated a second copy of the rows before SQLite and
    kept it when SQLite failed, so the same delta could not apply again."""
    dtd, tree, shredded, program = _setup(max_elements=80)
    backend = create_backend("sqlite", shredded.database)
    try:
        before = backend.execute(program).node_ids()
        c_node = next(node for node in tree.nodes() if node.label == "c")
        delta = DocumentMutator(tree, dtd).insert_subtree(c_node, ("d", "fresh", ()))
        assert "DOC_ORDER" in delta.deletes  # the DELETE runs before the INSERT fails
        backend._connection = _FailingInsert(backend._connection)
        with pytest.raises(ExecutionError, match="injected insert failure"):
            backend.apply_delta(delta)
        assert backend.execute(program).node_ids() == before
        backend.apply_delta(delta)
        assert set(backend.execute(program).node_ids()) == _expected(tree) != set(before)
    finally:
        backend.close()
