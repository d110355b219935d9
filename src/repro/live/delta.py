"""Shred deltas: the relational footprint of a document mutation.

A :class:`ShredDelta` records, per base relation, the rows a mutation
removes and the rows it adds, such that applying the delta to the shredded
database of the pre-mutation tree yields exactly the database that
:func:`~repro.shredding.shredder.shred_document` would produce for the
post-mutation tree.  Deltas compose: ``merge_deltas(d1, d2)`` is the delta
of applying the two underlying mutations in sequence.  Composition is sound
because the ids of committed deletes are never reused (``XMLTree`` hands
out increasing ids, and gives back only a rolled-back script's, whose
delta no store kept), so a row deleted by one mutation can only reappear
via an insert carried by a *later* delta, never spontaneously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

from repro.relational.database import Database, absent_rows_error
from repro.relational.relation import Relation

__all__ = ["ShredDelta", "merge_deltas", "apply_delta_to_database"]

Row = Tuple
RowSet = FrozenSet[Row]

_EMPTY: RowSet = frozenset()


@dataclass(frozen=True)
class ShredDelta:
    """Row-level inserts and deletes per base relation.

    ``deletes`` are applied before ``inserts``; both map relation names to
    frozen row sets.  Relations absent from both maps are untouched.  The
    ``DOC_ORDER`` side relation participates like any other relation: a
    structural mutation carries the renumbered interval rows as an ordinary
    delete/insert pair.
    """

    deletes: Mapping[str, RowSet] = field(default_factory=dict)
    inserts: Mapping[str, RowSet] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        deletes: Mapping[str, Iterable[Row]],
        inserts: Mapping[str, Iterable[Row]],
    ) -> "ShredDelta":
        """Normalise mappings-of-iterables into a delta, dropping empties."""
        return cls(
            deletes={name: frozenset(rows) for name, rows in deletes.items() if rows},
            inserts={name: frozenset(rows) for name, rows in inserts.items() if rows},
        )

    def is_empty(self) -> bool:
        """True when the delta changes no rows."""
        return not self.deletes and not self.inserts

    def relations(self) -> Tuple[str, ...]:
        """Sorted names of relations the delta touches."""
        return tuple(sorted(set(self.deletes) | set(self.inserts)))

    def delete_count(self) -> int:
        """Total rows removed."""
        return sum(len(rows) for rows in self.deletes.values())

    def insert_count(self) -> int:
        """Total rows added."""
        return sum(len(rows) for rows in self.inserts.values())

    def summary(self) -> Dict[str, int]:
        """Compact row counts, e.g. for HTTP responses and CLI output."""
        return {
            "relations": len(self.relations()),
            "rows_deleted": self.delete_count(),
            "rows_inserted": self.insert_count(),
        }


def merge_deltas(first: ShredDelta, second: ShredDelta) -> ShredDelta:
    """Compose two deltas applied in sequence into one.

    Per relation: a row inserted by ``first`` and deleted by ``second``
    cancels; a row deleted by ``second`` that ``first`` did not insert must
    have existed before ``first``, so it joins the merged deletes.
    """
    deletes: Dict[str, RowSet] = {}
    inserts: Dict[str, RowSet] = {}
    for name in set(first.deletes) | set(first.inserts) | set(second.deletes) | set(second.inserts):
        del1 = first.deletes.get(name, _EMPTY)
        ins1 = first.inserts.get(name, _EMPTY)
        del2 = second.deletes.get(name, _EMPTY)
        ins2 = second.inserts.get(name, _EMPTY)
        merged_inserts = (ins1 - del2) | ins2
        merged_deletes = del1 | (del2 - ins1)
        if merged_deletes:
            deletes[name] = merged_deletes
        if merged_inserts:
            inserts[name] = merged_inserts
    return ShredDelta(deletes=deletes, inserts=inserts)


def apply_delta_to_database(database: Database, delta: ShredDelta) -> None:
    """Apply ``delta`` to a :class:`Database` via ``set_relation``: all of it, or none.

    The reference the mutation tests compare backend stores against; no
    backend calls it.  Every relation the delta touches is checked before
    any is replaced: a delete of a row that is not present raises
    :class:`~repro.errors.ExecutionError` (the delta was computed against
    a different database state) and leaves the database unchanged, and so
    does an inserted row of the wrong width
    (:class:`~repro.errors.SchemaError`).
    """
    updated: Dict[str, Relation] = {}
    for name in delta.relations():
        relation = database.relation(name)
        removals = delta.deletes.get(name, _EMPTY)
        missing = removals - relation.rows
        if missing:
            raise absent_rows_error(name, len(missing), min(missing, key=repr))
        additions = Relation(relation.columns, delta.inserts.get(name, _EMPTY))
        rows = relation.rows - removals
        rows |= additions.rows
        updated[name] = Relation._from_parts(relation.columns, rows, name)
    for name, relation in updated.items():
        database.set_relation(name, relation)
