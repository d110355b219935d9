"""Schema derivation for DTD-based shredding.

``SimpleMapping`` implements the storage layout the paper's translation
algorithms assume (Sect. 2.3): every element type ``A`` maps to a relation
``R_A(F, T, V)`` where each tuple ``(f, t, v)`` is an edge from node ``f``
to an ``A``-node ``t`` with text value ``v`` (``'_'`` when absent, and
``f = '_'`` exactly when ``t`` is the document root).

``shared_inlining`` implements the shared-inlining partitioning of
Shanmugasundaram et al.: the DTD graph is split into subgraphs such that no
subgraph contains a ``*``-labelled edge and every element type belongs to
exactly one subgraph; each subgraph becomes one relation with ``ID``,
``parentId`` (and ``parentCode`` when the subgraph has several possible
parents) plus one value column per inlined text type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.dtd.model import DTD
from repro.dtd.graph import DTDGraph
from repro.errors import ShreddingError
from repro.relational.schema import (
    DOC_ORDER,
    DatabaseSchema,
    NODE_COLUMNS,
    ORDER_COLUMNS,
    RelationSchema,
)

__all__ = [
    "ROOT_PARENT",
    "MISSING_VALUE",
    "SimpleMapping",
    "InlinedRelation",
    "InliningPartition",
    "shared_inlining",
]

# Sentinels used in stored tuples, following the paper's convention.
ROOT_PARENT = "_"
MISSING_VALUE = "_"


class SimpleMapping:
    """The simplified per-element-type mapping ``tau: A -> R_A(F, T, V)``.

    Parameters
    ----------
    dtd:
        The DTD being mapped.
    prefix:
        Prefix of generated relation names (default ``"R_"``), so element
        type ``course`` maps to relation ``R_course``.
    """

    def __init__(self, dtd: DTD, prefix: str = "R_") -> None:
        self._dtd = dtd
        self._prefix = prefix
        self._relations: Dict[str, str] = {
            element_type: f"{prefix}{element_type}" for element_type in dtd.element_types
        }

    @property
    def dtd(self) -> DTD:
        """The mapped DTD."""
        return self._dtd

    def relation_for(self, element_type: str) -> str:
        """Relation name storing nodes of ``element_type``."""
        try:
            return self._relations[element_type]
        except KeyError:
            raise ShreddingError(f"unknown element type {element_type!r}") from None

    def element_for(self, relation: str) -> str:
        """Inverse lookup: the element type stored in ``relation``."""
        for element_type, name in self._relations.items():
            if name == relation:
                return element_type
        raise ShreddingError(f"unknown relation {relation!r}")

    def relation_names(self) -> List[str]:
        """All generated relation names (root's relation first)."""
        return [self._relations[t] for t in self._dtd.element_types]

    def database_schema(self) -> DatabaseSchema:
        """Build the :class:`DatabaseSchema` for this mapping.

        Besides one ``R_A(F, T, V)`` relation per element type, the schema
        carries the ``DOC_ORDER(T, PRE, SIZE)`` side relation holding
        the interval (pre/size) node numbering; it is deliberately not a
        node relation, so ``R_id`` and the ``ALL_NODES`` view are unchanged.
        """
        schemas = [
            RelationSchema(self._relations[t], NODE_COLUMNS) for t in self._dtd.element_types
        ]
        node_names = [s.name for s in schemas]
        schemas.append(RelationSchema(DOC_ORDER, ORDER_COLUMNS))
        return DatabaseSchema(
            schemas,
            node_relations=node_names,
            element_relations=dict(self._relations),
        )

    def __repr__(self) -> str:
        return f"SimpleMapping(dtd={self._dtd.name!r}, relations={len(self._relations)})"


@dataclass
class InlinedRelation:
    """One relation of a shared-inlining schema.

    Attributes
    ----------
    name:
        Relation name.
    head:
        The element type heading the subgraph (owns the ``ID`` column).
    members:
        All element types stored in this relation (head included); each
        member's node is represented by the head row it is inlined into.
    value_columns:
        Mapping from member text types to their value column name.
    has_parent_code:
        True when several element types can be the parent of the head, in
        which case a ``parentCode`` column disambiguates.
    """

    name: str
    head: str
    members: List[str]
    value_columns: Dict[str, str]
    has_parent_code: bool

    def columns(self) -> Tuple[str, ...]:
        cols = ["ID", "parentId"]
        if self.has_parent_code:
            cols.append("parentCode")
        cols.extend(self.value_columns[m] for m in self.members if m in self.value_columns)
        return tuple(cols)

    def schema(self) -> RelationSchema:
        """The :class:`RelationSchema` of this relation."""
        return RelationSchema(self.name, self.columns())


@dataclass
class InliningPartition:
    """The result of shared inlining: relations plus the member assignment."""

    dtd: DTD
    relations: List[InlinedRelation]
    relation_of: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.relation_of:
            for relation in self.relations:
                for member in relation.members:
                    self.relation_of[member] = relation.name

    def relation_for(self, element_type: str) -> InlinedRelation:
        """Return the relation holding ``element_type``."""
        name = self.relation_of.get(element_type)
        if name is None:
            raise ShreddingError(f"element type {element_type!r} is not mapped")
        for relation in self.relations:
            if relation.name == name:
                return relation
        raise ShreddingError(f"relation {name!r} missing from partition")

    def database_schema(self) -> DatabaseSchema:
        """Build a :class:`DatabaseSchema` for the inlined layout."""
        return DatabaseSchema(
            [relation.schema() for relation in self.relations],
            node_relations=[],
            element_relations={
                element_type: name for element_type, name in self.relation_of.items()
            },
        )


def _subgraph_heads(dtd: DTD) -> Set[str]:
    """Element types that head their own relation under shared inlining."""
    graph = DTDGraph(dtd)
    heads: Set[str] = {dtd.root}
    for spec in dtd.edges():
        if spec.starred:
            heads.add(spec.child)
    for element_type in dtd.element_types:
        if len(dtd.parents(element_type)) > 1:
            heads.add(element_type)
    # Any type on a cycle must head a relation, otherwise inlining would not
    # terminate (recursive DTDs are exactly why the paper needs the LFP).
    heads |= dtd.recursive_types()
    return heads


def shared_inlining(dtd: DTD, prefix: str = "R") -> InliningPartition:
    """Partition the DTD into inlining subgraphs and derive their relations.

    Mirrors the description in Sect. 2.3: no ``*``-edge appears inside a
    subgraph, every element type belongs to exactly one subgraph, subgraph
    heads carry ``ID``/``parentId`` keys, and heads reachable from more than
    one other subgraph get a ``parentCode`` column.
    """
    heads = _subgraph_heads(dtd)
    members: Dict[str, List[str]] = {head: [head] for head in heads}

    def owner_of(element_type: str) -> str:
        # Walk up through non-head parents; the simple mapping guarantees a
        # unique non-starred parent chain for non-head types.
        current = element_type
        seen: Set[str] = set()
        while current not in heads:
            parents = dtd.parents(current)
            if not parents:
                raise ShreddingError(
                    f"element type {current!r} has no parent and is not a subgraph head"
                )
            if current in seen:
                raise ShreddingError(f"cycle through non-head type {current!r}")
            seen.add(current)
            current = parents[0]
        return current

    for element_type in dtd.element_types:
        if element_type in heads:
            continue
        members[owner_of(element_type)].append(element_type)

    relations: List[InlinedRelation] = []
    for head in sorted(members, key=lambda h: (h != dtd.root, h)):
        member_list = members[head]
        value_columns = {
            member: (member if member != "ID" else f"{member}_val")
            for member in member_list
            if member in dtd.text_types
        }
        has_parent_code = len(dtd.parents(head)) > 1
        relations.append(
            InlinedRelation(
                name=f"{prefix}_{head}",
                head=head,
                members=member_list,
                value_columns=value_columns,
                has_parent_code=has_parent_code,
            )
        )
    return InliningPartition(dtd=dtd, relations=relations)
