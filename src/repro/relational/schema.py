"""Relational schemas: per-relation column lists and whole-database schemas.

The shredding layer produces a :class:`DatabaseSchema` describing one
relation per element type (the paper's simplified mapping ``R_A(F, T, V)``)
or the shared-inlining layout; the relational engine only needs the column
lists plus the list of *node relations* (the relations whose ``T`` column
enumerates document nodes, used to build the identity relation ``R_id``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SchemaError

__all__ = [
    "RelationSchema",
    "DatabaseSchema",
    "F",
    "T",
    "V",
    "NODE_COLUMNS",
    "DOC_ORDER",
    "PRE",
    "SIZE",
    "ORDER_COLUMNS",
]

# Canonical column names of the paper's simplified storage mapping.
F = "F"  # from (parentId)
T = "T"  # to (node ID)
V = "V"  # text value of the T node ('_' when absent)

NODE_COLUMNS: Tuple[str, str, str] = (F, T, V)

# The interval (pre/size) document-order side relation.  One row per
# document node: ``(T, PRE, SIZE)`` where ``SIZE`` counts the proper
# descendants, which are exactly the nodes with ``PRE`` in the half-open
# window ``(pre, pre + size]``.  It is *not* a node relation (its rows are not
# ``(F, T, V)`` edges), so it never contributes to ``R_id`` or the
# ``ALL_NODES`` view.
DOC_ORDER = "DOC_ORDER"
PRE = "PRE"
SIZE = "SIZE"

ORDER_COLUMNS: Tuple[str, str, str] = (T, PRE, SIZE)


@dataclass(frozen=True)
class RelationSchema:
    """Schema of a single relation: a name and ordered column names."""

    name: str
    columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError(f"duplicate column names in relation {self.name!r}")

    def has_column(self, column: str) -> bool:
        """Return True if ``column`` belongs to this relation."""
        return column in self.columns

    def ddl(self) -> str:
        """Render a CREATE TABLE statement (VARCHAR columns, key on T if present)."""
        cols = ",\n  ".join(f"{c} VARCHAR(64)" for c in self.columns)
        key = f",\n  PRIMARY KEY ({T})" if T in self.columns else ""
        return f"CREATE TABLE {self.name} (\n  {cols}{key}\n);"


class DatabaseSchema:
    """A set of relation schemas plus bookkeeping for the XML-derived layout.

    Parameters
    ----------
    relations:
        The relation schemas.
    node_relations:
        Names of the relations whose rows are document nodes (``(F, T, V)``
        triples).  The union of their ``T``/``V`` columns defines the
        identity relation ``R_id`` used for ``eps`` and ``E*`` handling.
    element_relations:
        Mapping from element-type name to the relation storing its nodes.
    """

    def __init__(
        self,
        relations: Iterable[RelationSchema],
        node_relations: Optional[Sequence[str]] = None,
        element_relations: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._relations: Dict[str, RelationSchema] = {}
        for schema in relations:
            if schema.name in self._relations:
                raise SchemaError(f"duplicate relation name {schema.name!r}")
            self._relations[schema.name] = schema
        self._node_relations: List[str] = list(node_relations or [])
        for name in self._node_relations:
            if name not in self._relations:
                raise SchemaError(f"node relation {name!r} is not declared")
        self._element_relations: Dict[str, str] = dict(element_relations or {})
        for element_type, relation in self._element_relations.items():
            if relation not in self._relations:
                raise SchemaError(
                    f"element type {element_type!r} maps to undeclared relation {relation!r}"
                )

    # -- accessors --------------------------------------------------------------

    @property
    def relation_names(self) -> List[str]:
        """All relation names, in declaration order."""
        return list(self._relations)

    @property
    def node_relations(self) -> List[str]:
        """Names of the node relations (used to build ``R_id``)."""
        return list(self._node_relations)

    def relation(self, name: str) -> RelationSchema:
        """Return the schema of relation ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def has_relation(self, name: str) -> bool:
        """Return True if the schema declares relation ``name``."""
        return name in self._relations

    def relation_for_element(self, element_type: str) -> str:
        """Return the relation storing nodes of ``element_type``."""
        try:
            return self._element_relations[element_type]
        except KeyError:
            raise SchemaError(f"no relation mapped for element type {element_type!r}") from None

    def element_types(self) -> List[str]:
        """Element types that have a mapped relation."""
        return list(self._element_relations)

    def __len__(self) -> int:
        return len(self._relations)

    def __repr__(self) -> str:
        return f"DatabaseSchema(relations={self.relation_names})"

    def ddl(self) -> str:
        """Render CREATE TABLE statements for every relation."""
        return "\n\n".join(self._relations[name].ddl() for name in self._relations)
