"""A database instance: a schema plus one relation per schema entry."""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.errors import ExecutionError, SchemaError
from repro.relational.relation import Relation
from repro.relational.schema import DatabaseSchema, NODE_COLUMNS, T, V

__all__ = ["Database", "absent_rows_error"]


def absent_rows_error(name: str, count: int, example: Optional[Tuple] = None) -> ExecutionError:
    """The error a store raises, changing nothing, for a delta that deletes
    ``count`` rows absent from relation ``name``."""
    example_text = "" if example is None else f" (e.g. {example!r})"
    return ExecutionError(
        f"delta deletes {count} row(s) absent from relation {name!r}{example_text}; "
        "the delta was computed against a different database state"
    )


class Database:
    """A set of named relations conforming to a :class:`DatabaseSchema`.

    The database distinguishes *base* relations (declared by the schema,
    filled by the shredder) from *temporary* relations created while a
    translated program runs; temporaries live in the executor, not here.
    """

    def __init__(self, schema: DatabaseSchema, relations: Optional[Mapping[str, Relation]] = None) -> None:
        self._schema = schema
        self._relations: Dict[str, Relation] = {}
        for name in schema.relation_names:
            self._relations[name] = Relation(schema.relation(name).columns, name=name)
        for name, relation in (relations or {}).items():
            self.set_relation(name, relation)

    # -- accessors --------------------------------------------------------------

    @property
    def schema(self) -> DatabaseSchema:
        """The database schema."""
        return self._schema

    def relation(self, name: str) -> Relation:
        """Return the relation named ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def set_relation(self, name: str, relation: Relation) -> None:
        """Replace the contents of relation ``name`` (columns must match)."""
        expected = self._schema.relation(name).columns
        if tuple(relation.columns) != tuple(expected):
            raise SchemaError(
                f"relation {name!r} expects columns {list(expected)}, "
                f"got {list(relation.columns)}"
            )
        self._relations[name] = relation.copy(name=name)

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __repr__(self) -> str:
        sizes = {name: len(rel) for name, rel in self._relations.items()}
        return f"Database({sizes})"

    def total_rows(self) -> int:
        """Total number of rows across all base relations."""
        return sum(len(rel) for rel in self._relations.values())

    # -- identity relation -------------------------------------------------------

    def identity_relation(self) -> Relation:
        """The identity relation ``R_id``: one ``(v, v, v.val)`` tuple per node.

        Built from the schema's node relations, whose rows are ``(F, T, V)``
        triples; used when translating ``eps`` and ``(E)*`` (Sect. 5.1).
        """
        rows = set()
        for name in self._schema.node_relations:
            relation = self._relations[name]
            t_index = relation.column_index(T)
            v_index = relation.column_index(V)
            for row in relation:
                rows.add((row[t_index], row[t_index], row[v_index]))
        return Relation(NODE_COLUMNS, rows, name="R_id")
