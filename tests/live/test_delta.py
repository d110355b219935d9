"""Tests for :mod:`repro.live.delta` — building, composing, applying deltas."""

import pytest

from repro.dtd.parser import parse_dtd
from repro.errors import ExecutionError
from repro.live.delta import ShredDelta, apply_delta_to_database, merge_deltas
from repro.live.mutations import DocumentMutator
from repro.shredding.shredder import shred_document
from repro.xmltree.tree import build_tree

TINY_DTD = parse_dtd(
    """root db
db -> item*
item -> (name, tag*)
name -> EMPTY #text
tag -> EMPTY #text
""",
    name="tiny",
)


def tiny_tree():
    return build_tree(
        (
            "db",
            [
                ("item", [("name", "n1"), ("tag", "t1"), ("tag", "t2")]),
                ("item", [("name", "n2")]),
            ],
        )
    )


def db_rows(database):
    """Relation name -> frozen row set, for whole-database comparison."""
    return {name: frozenset(database.relation(name).rows) for name in database}


class TestShredDelta:
    def test_empty_delta(self):
        delta = ShredDelta()
        assert delta.is_empty()
        assert delta.relations() == ()
        assert delta.delete_count() == 0
        assert delta.insert_count() == 0
        assert delta.summary() == {
            "relations": 0,
            "rows_deleted": 0,
            "rows_inserted": 0,
        }

    def test_build_drops_empty_row_sets(self):
        delta = ShredDelta.build({"R_a": set(), "R_b": {(1, 2, "x")}}, {"R_c": []})
        assert set(delta.deletes) == {"R_b"}
        assert set(delta.inserts) == set()
        assert delta.relations() == ("R_b",)

    def test_counts_and_summary(self):
        delta = ShredDelta.build(
            {"R_a": {(1,), (2,)}}, {"R_a": {(3,)}, "R_b": {(4,)}}
        )
        assert delta.delete_count() == 2
        assert delta.insert_count() == 2
        assert delta.relations() == ("R_a", "R_b")
        assert delta.summary() == {
            "relations": 2,
            "rows_deleted": 2,
            "rows_inserted": 2,
        }


class TestMergeDeltas:
    def test_insert_then_delete_cancels(self):
        first = ShredDelta.build({}, {"R": {(1,)}})
        second = ShredDelta.build({"R": {(1,)}}, {})
        merged = merge_deltas(first, second)
        assert merged.is_empty()

    def test_delete_of_preexisting_row_survives(self):
        first = ShredDelta.build({}, {"R": {(1,)}})
        second = ShredDelta.build({"R": {(2,)}}, {})
        merged = merge_deltas(first, second)
        assert merged.deletes == {"R": frozenset({(2,)})}
        assert merged.inserts == {"R": frozenset({(1,)})}

    def test_merge_with_empty_is_identity(self):
        delta = ShredDelta.build({"R": {(1,)}}, {"S": {(2,)}})
        for merged in (merge_deltas(delta, ShredDelta()), merge_deltas(ShredDelta(), delta)):
            assert merged.deletes == delta.deletes
            assert merged.inserts == delta.inserts

    def test_merged_script_equals_sequential_application(self):
        """merge(d1, d2) applied once == d1 then d2 applied in sequence."""
        sequential = tiny_tree()
        shredded_seq = shred_document(sequential, TINY_DTD)
        merged_side = sequential.copy()
        shredded_merged = shred_document(merged_side, TINY_DTD)

        mutator = DocumentMutator(sequential, TINY_DTD)
        item = sequential.root.children[1]
        d1 = mutator.insert_subtree(item, ("tag", "t9", ()))
        d2 = mutator.delete_subtree(sequential.root.children[0].children[2])
        apply_delta_to_database(shredded_seq.database, d1)
        apply_delta_to_database(shredded_seq.database, d2)

        apply_delta_to_database(shredded_merged.database, merge_deltas(d1, d2))
        assert db_rows(shredded_seq.database) == db_rows(shredded_merged.database)


class TestApplyDeltaToDatabase:
    def test_missing_delete_row_raises(self):
        tree = tiny_tree()
        shredded = shred_document(tree, TINY_DTD)
        bogus = ShredDelta.build({"R_name": {("999", 999, "ghost")}}, {})
        with pytest.raises(ExecutionError, match="different database state"):
            apply_delta_to_database(shredded.database, bogus)

    def test_rejected_delta_leaves_the_database_unchanged(self):
        """A bad delete in a later relation used to leave the earlier
        relations (in sorted order) already replaced."""
        shredded = shred_document(tiny_tree(), TINY_DTD)
        before = db_rows(shredded.database)
        present = next(iter(shredded.database.relation("DOC_ORDER").rows))
        bogus = ShredDelta.build(
            {"DOC_ORDER": {present}, "R_name": {("999", 999, "ghost")}}, {}
        )
        with pytest.raises(ExecutionError, match="different database state"):
            apply_delta_to_database(shredded.database, bogus)
        assert db_rows(shredded.database) == before

    def test_applied_delta_equals_scratch_reshred(self):
        """The paper invariant over time: delta-patched db == reshred(mutated)."""
        tree = tiny_tree()
        shredded = shred_document(tree, TINY_DTD)
        mutator = DocumentMutator(tree, TINY_DTD)
        delta = mutator.insert_subtree(
            tree.root, ("item", None, (("name", "n3", ()), ("tag", "t3", ())))
        )
        delta = merge_deltas(
            delta, mutator.delete_subtree(tree.root.children[0].children[1])
        )
        delta = merge_deltas(
            delta, mutator.replace_text(tree.root.children[1].children[0], "renamed")
        )
        apply_delta_to_database(shredded.database, delta)
        scratch = shred_document(tree, TINY_DTD)
        assert db_rows(shredded.database) == db_rows(scratch.database)
