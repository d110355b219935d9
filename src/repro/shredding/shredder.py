"""The data mapping ``tau_d``: shred XML documents into relational databases."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dtd.model import DTD
from repro.errors import ShreddingError
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import DOC_ORDER
from repro.shredding.inlining import (
    MISSING_VALUE,
    ROOT_PARENT,
    InliningPartition,
    SimpleMapping,
    shared_inlining,
)
from repro.xmltree.tree import XMLNode, XMLTree

__all__ = ["ShreddedDocument", "interval_numbering", "shred_document", "shred_inlined"]


@dataclass
class ShreddedDocument:
    """A shredded document: the database plus bookkeeping to map results back.

    Attributes
    ----------
    database:
        The populated relational database.
    mapping:
        The :class:`SimpleMapping` that produced it.
    tree:
        The source document (kept so node ids in query results can be
        resolved back to :class:`XMLNode` objects).
    """

    database: Database
    mapping: SimpleMapping
    tree: XMLTree

    def nodes_for_ids(self, node_ids: Iterable[int]) -> List[XMLNode]:
        """Resolve many identifiers, in the order they are given."""
        node = self.tree.node
        return [node(node_id) for node_id in node_ids]


def interval_numbering(tree: XMLTree) -> Set[Tuple[int, int, int, int]]:
    """The pre/post/size document-order numbering of ``tree``.

    One ``(node_id, pre, post, size)`` tuple per node, where ``pre`` is the
    depth-first visit rank, ``post`` the finish rank and ``size`` the number
    of proper descendants.  Pre-order ranks are contiguous per subtree, so
    the proper descendants of a node are exactly the nodes whose ``pre``
    lies in the half-open window ``(pre, pre + size]`` — the range predicate the
    ``interval`` descendant strategy joins on.
    """
    rows: Set[Tuple[int, int, int, int]] = set()
    if tree.root is None:
        return rows
    pre_of: Dict[int, int] = {}
    pre_counter = 0
    post_counter = 0
    stack: List[Tuple[XMLNode, bool]] = [(tree.root, False)]
    while stack:
        node, finished = stack.pop()
        if not finished:
            pre_of[node.node_id] = pre_counter
            pre_counter += 1
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))
        else:
            pre = pre_of[node.node_id]
            size = pre_counter - pre - 1
            rows.add((node.node_id, pre, post_counter, size))
            post_counter += 1
    return rows


def shred_document(
    tree: XMLTree, dtd: DTD, mapping: Optional[SimpleMapping] = None
) -> ShreddedDocument:
    """Shred ``tree`` with the simplified mapping ``R_A(F, T, V)``.

    Every node becomes one tuple in the relation of its element type: the
    parent's node id (``'_'`` for the document root), its own node id, and
    its text value (``'_'`` when absent), exactly as in Table 1.  The
    ``DOC_ORDER`` side relation additionally records every node's interval
    (pre/post/size) numbering for the range-join descendant strategy.
    """
    mapping = mapping or SimpleMapping(dtd)
    schema = mapping.database_schema()
    rows: Dict[str, Set[Tuple]] = {name: set() for name in schema.relation_names}

    for node in tree.nodes():
        if not dtd.has_type(node.label):
            raise ShreddingError(
                f"node {node.node_id} has element type {node.label!r} "
                f"not declared by DTD {dtd.name!r}"
            )
        relation_name = mapping.relation_for(node.label)
        parent_id = ROOT_PARENT if node.parent is None else node.parent.node_id
        value = node.value if node.value is not None else MISSING_VALUE
        rows[relation_name].add((parent_id, node.node_id, value))

    if schema.has_relation(DOC_ORDER):
        rows[DOC_ORDER] = interval_numbering(tree)

    database = Database(schema)
    for name, relation_rows in rows.items():
        database.set_relation(
            name, Relation(schema.relation(name).columns, relation_rows, name=name)
        )
    return ShreddedDocument(database=database, mapping=mapping, tree=tree)


def shred_inlined(
    tree: XMLTree, dtd: DTD, partition: Optional[InliningPartition] = None
) -> Database:
    """Shred ``tree`` with the shared-inlining layout.

    Each subgraph-head node becomes one row of its relation; descendants
    inlined into that subgraph contribute their text values to the row's
    value columns.  The ``parentId`` of a head row is the nearest ancestor
    that heads a relation (``'_'`` for the document root) and ``parentCode``
    records that ancestor's element type when disambiguation is needed.
    """
    partition = partition or shared_inlining(dtd)
    schema = partition.database_schema()
    heads = {relation.head for relation in partition.relations}
    rows: Dict[str, Set[Tuple]] = {relation.name: set() for relation in partition.relations}

    def nearest_head_ancestor(node: XMLNode) -> Optional[XMLNode]:
        current = node.parent
        while current is not None and current.label not in heads:
            current = current.parent
        return current

    def inlined_values(node: XMLNode, relation) -> Dict[str, str]:
        """Collect text values of descendants inlined into ``node``'s row."""
        values: Dict[str, str] = {}
        if node.label in relation.value_columns and node.value is not None:
            values[relation.value_columns[node.label]] = node.value
        stack = list(node.children)
        while stack:
            child = stack.pop()
            if child.label in heads:
                continue  # child starts its own subgraph row
            if child.label in relation.value_columns and child.value is not None:
                values.setdefault(relation.value_columns[child.label], child.value)
            stack.extend(child.children)
        return values

    for node in tree.nodes():
        if node.label not in heads:
            continue
        relation = partition.relation_for(node.label)
        ancestor = nearest_head_ancestor(node)
        parent_id = ROOT_PARENT if ancestor is None else ancestor.node_id
        row: List[object] = [node.node_id, parent_id]
        if relation.has_parent_code:
            row.append(ancestor.label if ancestor is not None else ROOT_PARENT)
        values = inlined_values(node, relation)
        for member in relation.members:
            column = relation.value_columns.get(member)
            if column is not None:
                row.append(values.get(column, MISSING_VALUE))
        rows[relation.name].add(tuple(row))

    database = Database(schema)
    for name, relation_rows in rows.items():
        database.set_relation(
            name, Relation(schema.relation(name).columns, relation_rows, name=name)
        )
    return database
