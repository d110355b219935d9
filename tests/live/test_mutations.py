"""Tests for :mod:`repro.live.mutations` — validation, application, deltas."""

import pytest

from repro.dtd import samples
from repro.dtd.parser import parse_dtd
from repro.errors import ExecutionError, MutationError
from repro.live.delta import apply_delta_to_database, merge_deltas
from repro.live.mutations import (
    DeleteSubtree,
    DocumentMutator,
    InsertSubtree,
    ReplaceText,
    as_subtree,
    mutation_from_dict,
    mutation_to_dict,
    subtree_from_dict,
    subtree_to_dict,
)
from repro.shredding.shredder import interval_numbering, shred_document
from repro.xmltree.generator import generate_document
from repro.xmltree.tree import build_tree

from ..helpers import tree_state

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
    return {name: frozenset(database.relation(name).rows) for name in database}


def valid_prefix(tree):
    """Valid inserts, deletes and a text replacement on :func:`tiny_tree`."""
    first_item = tree.root.children[0]
    return [
        InsertSubtree(tree.root.node_id, ("item", None, (("name", "nX", ()),)), 0),
        DeleteSubtree(first_item.children[2].node_id),
        ReplaceText(first_item.children[0].node_id, "renamed"),
        DeleteSubtree(tree.root.children[1].node_id),
    ]


def assert_tracks_scratch(tree, dtd, shredded, delta):
    """Applying ``delta`` must reproduce a from-scratch reshred of ``tree``."""
    apply_delta_to_database(shredded.database, delta)
    scratch = shred_document(tree, dtd)
    assert db_rows(shredded.database) == db_rows(scratch.database)


class TestInsertSubtree:
    def test_valid_insert_tracks_scratch_reshred(self):
        tree = tiny_tree()
        shredded = shred_document(tree, TINY_DTD)
        mutator = DocumentMutator(tree, TINY_DTD)
        delta = mutator.insert_subtree(
            tree.root, ("item", None, (("name", "n3", ()),)), index=1
        )
        assert not delta.is_empty()
        assert_tracks_scratch(tree, TINY_DTD, shredded, delta)

    def test_nested_insert_grafts_whole_subtree(self):
        tree = tiny_tree()
        mutator = DocumentMutator(tree, TINY_DTD)
        before = tree.size()
        spec = ("item", None, (("name", "deep", ()), ("tag", "t", ()), ("tag", "u", ())))
        mutator.insert_subtree(tree.root, spec)
        assert tree.size() == before + 4
        assert tree.root.children[-1].children[0].value == "deep"

    def test_undeclared_label_rejected(self):
        tree = tiny_tree()
        mutator = DocumentMutator(tree, TINY_DTD)
        with pytest.raises(MutationError, match="ghost"):
            mutator.insert_subtree(tree.root, ("ghost", None, ()))

    def test_insert_violating_parent_model_rejected(self):
        tree = tiny_tree()
        mutator = DocumentMutator(tree, TINY_DTD)
        # db accepts only item children.
        with pytest.raises(MutationError, match="content model"):
            mutator.insert_subtree(tree.root, ("name", "x", ()))

    def test_insert_with_invalid_subtree_children_rejected(self):
        tree = tiny_tree()
        mutator = DocumentMutator(tree, TINY_DTD)
        # item requires a leading name child.
        with pytest.raises(MutationError, match="content model"):
            mutator.insert_subtree(tree.root, ("item", None, (("tag", "t", ()),)))

    def test_value_on_non_text_type_rejected(self):
        tree = tiny_tree()
        mutator = DocumentMutator(tree, TINY_DTD)
        with pytest.raises(MutationError, match="does not carry text"):
            mutator.insert_subtree(
                tree.root, ("item", "no-text-here", (("name", "n", ()),))
            )

    def test_out_of_range_index_rejected(self):
        tree = tiny_tree()
        mutator = DocumentMutator(tree, TINY_DTD)
        with pytest.raises(MutationError, match="out of range"):
            mutator.insert_subtree(
                tree.root, ("item", None, (("name", "n", ()),)), index=99
            )

    def test_rejected_insert_leaves_tree_untouched(self):
        tree = tiny_tree()
        mutator = DocumentMutator(tree, TINY_DTD)
        before = tree.size()
        with pytest.raises(MutationError):
            mutator.insert_subtree(tree.root, ("name", "x", ()))
        assert tree.size() == before


class TestDeleteSubtree:
    def test_valid_delete_tracks_scratch_reshred(self):
        tree = tiny_tree()
        shredded = shred_document(tree, TINY_DTD)
        mutator = DocumentMutator(tree, TINY_DTD)
        delta = mutator.delete_subtree(tree.root.children[0])
        assert_tracks_scratch(tree, TINY_DTD, shredded, delta)

    def test_delete_root_rejected(self):
        tree = tiny_tree()
        mutator = DocumentMutator(tree, TINY_DTD)
        with pytest.raises(MutationError, match="document root"):
            mutator.delete_subtree(tree.root)

    def test_delete_breaking_sibling_model_rejected(self):
        tree = tiny_tree()
        mutator = DocumentMutator(tree, TINY_DTD)
        # item -> (name, tag*): the name child is mandatory.
        name_node = tree.root.children[0].children[0]
        with pytest.raises(MutationError, match="content model"):
            mutator.delete_subtree(name_node)

    def test_unknown_node_id_rejected(self):
        tree = tiny_tree()
        mutator = DocumentMutator(tree, TINY_DTD)
        with pytest.raises(MutationError, match="unknown node id"):
            mutator.delete_subtree(10_000)


class TestReplaceText:
    def test_replace_tracks_scratch_reshred(self):
        tree = tiny_tree()
        shredded = shred_document(tree, TINY_DTD)
        mutator = DocumentMutator(tree, TINY_DTD)
        delta = mutator.replace_text(tree.root.children[0].children[0], "renamed")
        assert_tracks_scratch(tree, TINY_DTD, shredded, delta)

    def test_clearing_text_tracks_scratch_reshred(self):
        tree = tiny_tree()
        shredded = shred_document(tree, TINY_DTD)
        mutator = DocumentMutator(tree, TINY_DTD)
        delta = mutator.replace_text(tree.root.children[0].children[0], None)
        assert_tracks_scratch(tree, TINY_DTD, shredded, delta)

    def test_noop_replace_yields_empty_delta(self):
        tree = tiny_tree()
        mutator = DocumentMutator(tree, TINY_DTD)
        delta = mutator.replace_text(tree.root.children[0].children[0], "n1")
        assert delta.is_empty()

    def test_text_on_non_text_type_rejected(self):
        tree = tiny_tree()
        mutator = DocumentMutator(tree, TINY_DTD)
        with pytest.raises(MutationError, match="does not carry text"):
            mutator.replace_text(tree.root.children[0], "nope")


class TestApplyScript:
    def test_script_delta_equals_per_mutation_merge(self):
        """Deferred DOC_ORDER diffing must not change the merged delta."""
        probe = tiny_tree()
        script = [
            InsertSubtree(probe.root.node_id, ("item", None, (("name", "n9", ()),))),
            ReplaceText(probe.root.children[0].children[0].node_id, "rewritten"),
            DeleteSubtree(probe.root.children[0].children[1].node_id),
        ]
        script_tree = tiny_tree()
        script_delta = DocumentMutator(script_tree, TINY_DTD).apply_script(script)

        step_tree = tiny_tree()
        step_mutator = DocumentMutator(step_tree, TINY_DTD)
        step_delta = step_mutator.apply(script[0])
        for mutation in script[1:]:
            step_delta = merge_deltas(step_delta, step_mutator.apply(mutation))

        assert script_delta.deletes == step_delta.deletes
        assert script_delta.inserts == step_delta.inserts

    @pytest.mark.parametrize("failure", ["rejected", "commit"])
    def test_failed_script_leaves_the_tree_as_it_was(self, failure):
        tree = tiny_tree()
        mutator = DocumentMutator(tree, TINY_DTD)
        before, order = tree_state(tree), mutator._order
        script = valid_prefix(tree)
        if failure == "rejected":
            with pytest.raises(MutationError, match="unknown node id"):
                mutator.apply_script(script + [DeleteSubtree(10_000)])
        else:
            committed = []

            def commit(delta):
                committed.append(delta)
                raise ExecutionError("store write failed")

            with pytest.raises(ExecutionError, match="store write failed"):
                mutator.apply_script(script, commit=commit)
            assert len(committed) == 1
        assert tree_state(tree) == before
        assert mutator._order is order and order == interval_numbering(tree)
        assert mutator.applied == 0

    def test_script_after_a_failed_one_tracks_scratch(self):
        tree = tiny_tree()
        shredded = shred_document(tree, TINY_DTD)
        mutator = DocumentMutator(tree, TINY_DTD)
        next_id = tree.next_id
        with pytest.raises(MutationError):
            mutator.apply_script(valid_prefix(tree) + [DeleteSubtree(10_000)])
        committed = []
        delta = mutator.apply_script(
            [
                InsertSubtree(tree.root.node_id, ("item", None, (("name", "nY", ()),))),
                DeleteSubtree(tree.root.children[0].node_id),
            ],
            commit=committed.append,
        )
        assert committed == [delta] and mutator.applied == 2
        assert_tracks_scratch(tree, TINY_DTD, shredded, delta)
        # The rolled-back inserts' ids were released; a committed delete's are not.
        assert tree.root.children[-1].node_id == next_id
        mutator.apply_script([DeleteSubtree(next_id)])
        mutator.apply_script(
            [InsertSubtree(tree.root.node_id, ("item", None, (("name", "nZ", ()),)))]
        )
        assert tree.root.children[-1].node_id == next_id + 2

    def test_script_on_generated_paper_document_tracks_scratch(self):
        dtd = samples.paper_dtds()["dept"]
        tree = generate_document(dtd, x_l=7, x_r=3, seed=19, max_elements=200)
        shredded = shred_document(tree, dtd)
        mutator = DocumentMutator(tree, dtd)
        text_node = next(
            node for node in tree.nodes() if node.label in dtd.text_types
        )
        delta = mutator.apply_script([ReplaceText(text_node.node_id, "mutated")])
        assert_tracks_scratch(tree, dtd, shredded, delta)


class TestSerialization:
    @pytest.mark.parametrize(
        "mutation",
        [
            InsertSubtree(3, ("item", None, (("name", "n", ()),)), index=1),
            InsertSubtree(3, ("tag", "v", ())),
            DeleteSubtree(7),
            ReplaceText(5, "text"),
            ReplaceText(5, None),
        ],
    )
    def test_mutation_round_trip(self, mutation):
        assert mutation_from_dict(mutation_to_dict(mutation)) == mutation

    def test_subtree_round_trip(self):
        spec = as_subtree(("item", None, (("name", "n", ()), ("tag", "t", ()))))
        assert subtree_from_dict(subtree_to_dict(spec)) == spec

    def test_as_subtree_accepts_tree_and_node(self):
        tree = tiny_tree()
        spec = as_subtree(tree)
        assert spec[0] == "db"
        assert as_subtree(tree.root.children[0])[0] == "item"

    @pytest.mark.parametrize(
        "payload",
        [
            "not-an-object",
            {"op": "teleport"},
            {"op": "delete"},
            {"op": "delete", "node": "seven"},
            {"op": "replace_text", "node": 1, "value": 3},
            {"op": "insert", "parent": 1, "subtree": {"label": ""}},
            {"op": "insert", "parent": 1, "subtree": {"label": "a"}, "extra": True},
        ],
    )
    def test_bad_payloads_rejected(self, payload):
        with pytest.raises(MutationError):
            mutation_from_dict(payload)
