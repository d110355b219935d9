"""Typed, DTD-validated mutations over live documents.

Three mutation kinds cover the update workload:

* :class:`InsertSubtree` — graft a new conforming subtree under a parent,
* :class:`DeleteSubtree` — remove a node and everything below it,
* :class:`ReplaceText` — change (or clear) a text node's PCDATA value.

:class:`DocumentMutator` owns a tree and validates every mutation against
the DTD *before* touching anything: an insert must keep the parent's child
sequence inside its content model and the grafted subtree must conform
recursively; a delete must leave the remaining siblings matching the model
and may not remove the root; a text replacement is only allowed on declared
text types.  A rejected mutation raises :class:`~repro.errors.MutationError`,
and a script applies whole or not at all (:meth:`DocumentMutator.apply_script`).

Each applied script yields a :class:`~repro.live.delta.ShredDelta` — the
exact row-level difference between shredding the tree before and after the
script, including the renumbered ``DOC_ORDER`` interval rows — so backends
can apply the change without re-shredding the document.

Subtrees travel as hashable nested tuples ``(label, value, (child, ...))``
so mutation records stay frozen (and therefore usable inside frozen
:class:`~repro.fuzz.cases.FuzzCase` instances); JSON payloads use the
equivalent ``{"label", "value", "children"}`` object form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.dtd.model import DTD
from repro.errors import MutationError, ShreddingError
from repro.live.delta import ShredDelta, merge_deltas
from repro.relational.schema import DOC_ORDER
from repro.shredding.inlining import MISSING_VALUE, ROOT_PARENT, SimpleMapping
from repro.shredding.shredder import interval_numbering
from repro.xmltree.tree import XMLNode, XMLTree
from repro.xmltree.validator import matches_model

__all__ = [
    "SubtreeSpec",
    "InsertSubtree",
    "DeleteSubtree",
    "ReplaceText",
    "Mutation",
    "as_subtree",
    "subtree_to_dict",
    "subtree_from_dict",
    "mutation_to_dict",
    "mutation_from_dict",
    "DocumentMutator",
]

# (label, value-or-None, (child spec, ...)) — hashable, order-preserving.
SubtreeSpec = Tuple[str, Optional[str], Tuple["SubtreeSpec", ...]]

# The steps that undo a script's applied mutations, run in reverse on failure.
UndoSteps = List[Callable[[], object]]


@dataclass(frozen=True)
class InsertSubtree:
    """Insert ``subtree`` as a child of ``parent_id`` at ``index`` (append when None)."""

    parent_id: int
    subtree: SubtreeSpec
    index: Optional[int] = None

    op = "insert"


@dataclass(frozen=True)
class DeleteSubtree:
    """Remove the node ``node_id`` and its entire subtree."""

    node_id: int

    op = "delete"


@dataclass(frozen=True)
class ReplaceText:
    """Set the text value of ``node_id`` to ``value`` (``None`` clears it)."""

    node_id: int
    value: Optional[str]

    op = "replace_text"


Mutation = Union[InsertSubtree, DeleteSubtree, ReplaceText]


# -- subtree specs -------------------------------------------------------------


def as_subtree(source: Union[SubtreeSpec, XMLTree, XMLNode, Dict]) -> SubtreeSpec:
    """Normalise a subtree description into the canonical nested-tuple spec.

    Accepts an :class:`XMLTree` (its root is taken), an :class:`XMLNode`,
    the JSON object form, or an already-canonical tuple.
    """
    if isinstance(source, XMLTree):
        source = source.root
    if isinstance(source, XMLNode):
        return (
            source.label,
            source.value,
            tuple(as_subtree(child) for child in source.children),
        )
    if isinstance(source, dict):
        return subtree_from_dict(source)
    if isinstance(source, tuple) and len(source) == 3:
        label, value, children = source
        if not isinstance(label, str) or not label:
            raise MutationError(f"subtree label must be a non-empty string, got {label!r}")
        if value is not None and not isinstance(value, str):
            raise MutationError(f"subtree value must be a string or None, got {value!r}")
        if not isinstance(children, (tuple, list)):
            raise MutationError(f"subtree children must be a sequence, got {children!r}")
        return (label, value, tuple(as_subtree(child) for child in children))
    raise MutationError(f"invalid subtree spec {source!r}")


def subtree_to_dict(spec: SubtreeSpec) -> Dict:
    """JSON object form of a subtree spec."""
    label, value, children = spec
    return {
        "label": label,
        "value": value,
        "children": [subtree_to_dict(child) for child in children],
    }


def subtree_from_dict(payload: Dict) -> SubtreeSpec:
    """Parse the JSON object form back into a nested-tuple spec."""
    if not isinstance(payload, dict):
        raise MutationError(f"subtree must be an object, got {payload!r}")
    unknown = set(payload) - {"label", "value", "children"}
    if unknown:
        raise MutationError(f"unknown subtree keys {sorted(unknown)}")
    label = payload.get("label")
    if not isinstance(label, str) or not label:
        raise MutationError(f"subtree 'label' must be a non-empty string, got {label!r}")
    value = payload.get("value")
    if value is not None and not isinstance(value, str):
        raise MutationError(f"subtree 'value' must be a string or null, got {value!r}")
    children = payload.get("children", [])
    if not isinstance(children, list):
        raise MutationError(f"subtree 'children' must be a list, got {children!r}")
    return (label, value, tuple(subtree_from_dict(child) for child in children))


# -- mutation (de)serialization -------------------------------------------------


def mutation_to_dict(mutation: Mutation) -> Dict:
    """JSON object form of a mutation (the ``POST /update`` wire format)."""
    if isinstance(mutation, InsertSubtree):
        return {
            "op": "insert",
            "parent": mutation.parent_id,
            "index": mutation.index,
            "subtree": subtree_to_dict(mutation.subtree),
        }
    if isinstance(mutation, DeleteSubtree):
        return {"op": "delete", "node": mutation.node_id}
    if isinstance(mutation, ReplaceText):
        return {"op": "replace_text", "node": mutation.node_id, "value": mutation.value}
    raise MutationError(f"unknown mutation {mutation!r}")


def _require_int(payload: Dict, key: str) -> int:
    value = payload.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise MutationError(f"mutation {key!r} must be an integer, got {value!r}")
    return value


def mutation_from_dict(payload: Dict) -> Mutation:
    """Parse a mutation object; raises :class:`MutationError` on bad payloads."""
    if not isinstance(payload, dict):
        raise MutationError(f"mutation must be an object, got {payload!r}")
    op = payload.get("op")
    if op == "insert":
        unknown = set(payload) - {"op", "parent", "index", "subtree"}
        if unknown:
            raise MutationError(f"unknown mutation keys {sorted(unknown)}")
        index = payload.get("index")
        if index is not None and (not isinstance(index, int) or isinstance(index, bool)):
            raise MutationError(f"mutation 'index' must be an integer or null, got {index!r}")
        return InsertSubtree(
            parent_id=_require_int(payload, "parent"),
            subtree=subtree_from_dict(payload.get("subtree")),
            index=index,
        )
    if op == "delete":
        unknown = set(payload) - {"op", "node"}
        if unknown:
            raise MutationError(f"unknown mutation keys {sorted(unknown)}")
        return DeleteSubtree(node_id=_require_int(payload, "node"))
    if op == "replace_text":
        unknown = set(payload) - {"op", "node", "value"}
        if unknown:
            raise MutationError(f"unknown mutation keys {sorted(unknown)}")
        value = payload.get("value")
        if value is not None and not isinstance(value, str):
            raise MutationError(f"mutation 'value' must be a string or null, got {value!r}")
        return ReplaceText(node_id=_require_int(payload, "node"), value=value)
    raise MutationError(f"unknown mutation op {op!r}")


# -- the mutator ----------------------------------------------------------------


class DocumentMutator:
    """Validate mutations against a DTD, apply them to a tree, emit deltas.

    The mutator assumes the tree's shredded database (if one exists) equals
    ``shred_document(tree, dtd, mapping)`` at construction time; every delta
    it returns preserves that equality.  Only the simple mapping is
    supported — shared inlining folds several element types into one
    relation and is not incrementally maintainable row-by-row here.
    """

    def __init__(
        self,
        tree: XMLTree,
        dtd: DTD,
        mapping: Optional[SimpleMapping] = None,
    ) -> None:
        mapping = mapping if mapping is not None else SimpleMapping(dtd)
        probe = mapping.relation_for(dtd.root)
        if not isinstance(probe, str):
            raise ShreddingError(
                "incremental re-shredding supports the simple mapping only; "
                f"got {type(mapping).__name__} producing {type(probe).__name__}"
            )
        self._tree = tree
        self._dtd = dtd
        self._mapping = mapping
        self._track_order = mapping.database_schema().has_relation(DOC_ORDER)
        self._order: Set[Tuple] = (
            set(interval_numbering(tree)) if self._track_order else set()
        )
        self.applied = 0

    @property
    def tree(self) -> XMLTree:
        """The live tree (mutated in place by :meth:`apply_script`)."""
        return self._tree

    # -- public mutation API ----------------------------------------------------

    def insert_subtree(
        self,
        parent: Union[XMLNode, int],
        subtree: Union[SubtreeSpec, XMLTree, XMLNode, Dict],
        index: Optional[int] = None,
    ) -> ShredDelta:
        """Validate and apply an insert; returns its delta."""
        parent_id = parent.node_id if isinstance(parent, XMLNode) else parent
        return self.apply(InsertSubtree(parent_id, as_subtree(subtree), index))

    def delete_subtree(self, node: Union[XMLNode, int]) -> ShredDelta:
        """Validate and apply a delete; returns its delta."""
        node_id = node.node_id if isinstance(node, XMLNode) else node
        return self.apply(DeleteSubtree(node_id))

    def replace_text(self, node: Union[XMLNode, int], value: Optional[str]) -> ShredDelta:
        """Validate and apply a text replacement; returns its delta."""
        node_id = node.node_id if isinstance(node, XMLNode) else node
        return self.apply(ReplaceText(node_id, value))

    def apply(self, mutation: Mutation) -> ShredDelta:
        """Validate ``mutation``, apply it to the tree, return its delta."""
        return self.apply_script((mutation,))

    def apply_script(
        self,
        mutations: Sequence[Mutation],
        commit: Optional[Callable[[ShredDelta], object]] = None,
    ) -> ShredDelta:
        """Apply a mutation sequence whole or not at all; return the merged delta.

        ``commit``, when given, receives the script's non-empty delta before
        the script counts as applied; the query service passes its backend's
        ``apply_delta``.  When a mutation is rejected, or ``commit`` raises,
        every mutation already applied is undone in reverse: grafted
        subtrees are detached, deleted ones reattached at their old index
        with their old ids, replaced values restored.  The tree's next free
        id and the ``DOC_ORDER`` snapshot are restored, :attr:`applied`
        stays, and the exception propagates.  The ids of the rolled-back
        inserts are handed out again; the ids of committed deletes never are.

        ``DOC_ORDER`` renumbering is diffed once for the whole script, and
        only when the script changes the tree's shape: one structural
        mutation shifts the pre-order ranks of every node after the edit
        point, so per-mutation diffs would make a k-mutation script pay k
        full renumbering passes.
        """
        next_id, order = self._tree.next_id, self._order
        undo: UndoSteps = []
        delta = ShredDelta()
        try:
            for mutation in mutations:
                delta = merge_deltas(delta, self._apply(mutation, undo))
            if self._track_order and any(
                not isinstance(mutation, ReplaceText) for mutation in mutations
            ):
                delta = merge_deltas(delta, self._order_delta())
            if commit is not None and not delta.is_empty():
                commit(delta)
        except BaseException:
            for step in reversed(undo):
                step()
            self._tree.release_ids(next_id)
            self._order = order
            raise
        self.applied += len(mutations)
        obs.registry().counter("live.mutations").inc(len(mutations))
        return delta

    # -- internals --------------------------------------------------------------

    def _node(self, node_id: int) -> XMLNode:
        try:
            return self._tree.node(node_id)
        except KeyError:
            raise MutationError(f"unknown node id {node_id}") from None

    def _row(self, node: XMLNode) -> Tuple:
        parent = ROOT_PARENT if node.parent is None else node.parent.node_id
        value = MISSING_VALUE if node.value is None else node.value
        return (parent, node.node_id, value)

    def _model_allows(self, parent_label: str, labels: Sequence[str]) -> bool:
        return matches_model(self._dtd.production(parent_label), labels)

    def _validate_spec(self, spec: SubtreeSpec) -> None:
        label, value, children = spec
        if not self._dtd.has_type(label):
            raise MutationError(f"element type {label!r} is not declared in the DTD")
        if value is not None and label not in self._dtd.text_types:
            raise MutationError(f"element type {label!r} does not carry text")
        if not self._model_allows(label, [child[0] for child in children]):
            raise MutationError(
                f"children {[child[0] for child in children]} do not match the "
                f"content model of {label!r}"
            )
        for child in children:
            self._validate_spec(child)

    def _order_delta(self) -> ShredDelta:
        """The ``DOC_ORDER`` rows renumbering the tree changes since the last call."""
        old, self._order = self._order, set(interval_numbering(self._tree))
        return ShredDelta.build({DOC_ORDER: old - self._order}, {DOC_ORDER: self._order - old})

    def _apply(self, mutation: Mutation, undo: UndoSteps) -> ShredDelta:
        """Validate and apply one mutation; append the step that undoes it."""
        if isinstance(mutation, InsertSubtree):
            return self._apply_insert(mutation, undo)
        if isinstance(mutation, DeleteSubtree):
            return self._apply_delete(mutation, undo)
        if isinstance(mutation, ReplaceText):
            return self._apply_replace_text(mutation, undo)
        raise MutationError(f"unknown mutation {mutation!r}")

    def _apply_insert(self, mutation: InsertSubtree, undo: UndoSteps) -> ShredDelta:
        parent = self._node(mutation.parent_id)
        spec = as_subtree(mutation.subtree)
        index = mutation.index
        if index is not None and (index < 0 or index > len(parent.children)):
            raise MutationError(
                f"insert index {index} out of range for {len(parent.children)} children"
            )
        sequence = [child.label for child in parent.children]
        sequence.insert(len(sequence) if index is None else index, spec[0])
        if not self._model_allows(parent.label, sequence):
            raise MutationError(
                f"inserting {spec[0]!r} leaves the children of {parent.label!r} "
                f"outside its content model"
            )
        self._validate_spec(spec)

        inserts: Dict[str, Set[Tuple]] = {}

        def graft(under: XMLNode, node_spec: SubtreeSpec, at: Optional[int]) -> XMLNode:
            label, value, children = node_spec
            node = self._tree.insert_child(under, label, value, index=at)
            inserts.setdefault(self._mapping.relation_for(label), set()).add(self._row(node))
            for child_spec in children:
                graft(node, child_spec, None)
            return node

        undo.append(functools.partial(self._tree.remove_subtree, graft(parent, spec, index)))
        return ShredDelta.build({}, inserts)

    def _apply_delete(self, mutation: DeleteSubtree, undo: UndoSteps) -> ShredDelta:
        node = self._node(mutation.node_id)
        if node.parent is None:
            raise MutationError("cannot delete the document root")
        parent = node.parent
        remaining = [child.label for child in parent.children if child is not node]
        if not self._model_allows(parent.label, remaining):
            raise MutationError(
                f"deleting node {node.node_id} ({node.label!r}) leaves the "
                f"children of {parent.label!r} outside its content model"
            )
        deletes: Dict[str, Set[Tuple]] = {}
        for gone in node.descendants_or_self():
            deletes.setdefault(self._mapping.relation_for(gone.label), set()).add(
                self._row(gone)
            )
        index = parent.children.index(node)
        self._tree.remove_subtree(node)
        undo.append(functools.partial(self._tree.restore_subtree, node, parent, index))
        return ShredDelta.build(deletes, {})

    def _apply_replace_text(self, mutation: ReplaceText, undo: UndoSteps) -> ShredDelta:
        node = self._node(mutation.node_id)
        value = mutation.value
        if value is not None:
            if not isinstance(value, str):
                raise MutationError(f"text value must be a string or None, got {value!r}")
            if node.label not in self._dtd.text_types:
                raise MutationError(
                    f"element type {node.label!r} does not carry text"
                )
        old_row = self._row(node)
        undo.append(functools.partial(setattr, node, "value", node.value))
        node.value = value
        new_row = self._row(node)
        if old_row == new_row:
            return ShredDelta()
        relation = self._mapping.relation_for(node.label)
        return ShredDelta.build({relation: {old_row}}, {relation: {new_row}})
