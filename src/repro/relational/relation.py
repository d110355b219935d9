"""Relations: named columns plus a set of rows.

Rows are plain tuples aligned with the column list; the engine uses set
semantics throughout (as the paper's relational algebra does), so duplicate
rows collapse automatically.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import SchemaError

__all__ = ["Relation"]

Row = Tuple


def _value_sort_key(value) -> Tuple[int, float, str]:
    """Type-tagged sort key: None, then numbers numerically, then by string."""
    if value is None:
        return (0, 0.0, "")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (1, value, "")
    return (2, 0.0, str(value))


def _row_sort_key(row: "Row") -> Tuple[Tuple[int, float, str], ...]:
    return tuple(_value_sort_key(v) for v in row)


class Relation:
    """An in-memory relation with named columns and set semantics.

    Parameters
    ----------
    columns:
        Ordered column names.
    rows:
        Iterable of tuples, each of the same arity as ``columns``.
    name:
        Optional name (used in error messages and SQL emission).
    """

    __slots__ = ("_columns", "_rows", "name")

    def __init__(
        self,
        columns: Sequence[str],
        rows: Iterable[Row] = (),
        name: str = "",
    ) -> None:
        self._columns: Tuple[str, ...] = tuple(columns)
        self.name = name
        self._rows: Set[Row] = set()
        width = len(self._columns)
        for row in rows:
            if len(row) != width:
                raise SchemaError(
                    f"row {row!r} has {len(row)} values but relation "
                    f"{name or '<anonymous>'} has {width} columns"
                )
            self._rows.add(tuple(row))

    @classmethod
    def _from_parts(
        cls, columns: Tuple[str, ...], rows: Set[Row], name: str = ""
    ) -> "Relation":
        """Engine-internal constructor: adopt ``rows`` without re-validation.

        The columnar executor decodes result sets whose arity is correct by
        construction; skipping the per-row width check avoids a full pass
        over the result on every call.  ``rows`` is adopted, not copied.
        """
        relation = cls.__new__(cls)
        relation._columns = columns
        relation._rows = rows
        relation.name = name
        return relation

    # -- accessors --------------------------------------------------------------

    @property
    def columns(self) -> Tuple[str, ...]:
        """Ordered column names."""
        return self._columns

    @property
    def rows(self) -> Set[Row]:
        """The row set (do not mutate in place; use :meth:`add`)."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._columns == other._columns and self._rows == other._rows

    def __hash__(self) -> int:  # pragma: no cover - relations are not hashable keys
        raise TypeError("Relation objects are not hashable")

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Relation{label}(columns={list(self._columns)}, rows={len(self._rows)})"

    # -- helpers ----------------------------------------------------------------

    def column_index(self, column: str) -> int:
        """Return the position of ``column``; raises :class:`SchemaError` if absent."""
        try:
            return self._columns.index(column)
        except ValueError:
            raise SchemaError(
                f"relation {self.name or '<anonymous>'} has no column {column!r} "
                f"(columns: {list(self._columns)})"
            ) from None

    def add(self, row: Row) -> None:
        """Add a row (must match the arity of the relation)."""
        if len(row) != len(self._columns):
            raise SchemaError(
                f"row {row!r} has {len(row)} values but relation has "
                f"{len(self._columns)} columns"
            )
        self._rows.add(tuple(row))

    def column_values(self, column: str) -> Set:
        """Return the set of values appearing in ``column``."""
        index = self.column_index(column)
        return {row[index] for row in self._rows}

    def project(self, columns: Sequence[str]) -> "Relation":
        """Return the projection onto ``columns`` (renames are not applied here).

        Set semantics throughout: duplicate projected rows collapse, like
        every other operation on a :class:`Relation`.  (An earlier signature
        took a ``distinct`` flag that was silently ignored — there is no
        multiset path in this engine.)
        """
        indexes = [self.column_index(c) for c in columns]
        rows = {tuple(row[i] for i in indexes) for row in self._rows}
        return Relation(columns, rows)

    def restrict(self, column: str, value) -> "Relation":
        """Return rows whose ``column`` equals ``value``."""
        index = self.column_index(column)
        return Relation(self._columns, {row for row in self._rows if row[index] == value})

    def index_on(self, column: str) -> Dict[object, List[Row]]:
        """Build a hash index ``value -> rows`` on ``column`` (used by joins)."""
        idx = self.column_index(column)
        index: Dict[object, List[Row]] = {}
        for row in self._rows:
            index.setdefault(row[idx], []).append(row)
        return index

    def copy(self, name: Optional[str] = None) -> "Relation":
        """Shallow copy (rows are immutable tuples, already validated)."""
        return Relation._from_parts(
            self._columns, set(self._rows), name=name or self.name
        )

    def sorted_rows(self) -> List[Row]:
        """Rows in a stable, type-aware order (for tests, reports, shrinker output).

        Each value sorts by ``(type_tag, value)`` — None first, then numbers
        numerically, then everything else by string form — so node ids order
        as ``2 < 10`` rather than by their string forms (``"10" < "2"``),
        and mixed-type rows still compare without a ``TypeError``.
        """
        return sorted(self._rows, key=_row_sort_key)
