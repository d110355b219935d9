"""SQL text emission for translated programs.

The in-memory executor is what the benchmarks run against, but the whole
point of the paper is that the produced queries are *ordinary SQL with a
low-end recursion feature*.  This module renders a
:class:`~repro.relational.algebra.Program` as SQL text in four dialects:

* ``GENERIC`` — ANSI-style SQL with ``WITH RECURSIVE`` for the LFP operator;
* ``DB2`` — the DB2 ``WITH ... AS (... UNION ALL ...)`` recursive common
  table expression shown in Fig. 4;
* ``ORACLE`` — Oracle's ``CONNECT BY`` hierarchical query for the simple
  LFP, also shown in Fig. 4;
* ``SQLITE`` — SQL that SQLite actually accepts and executes: no
  parenthesised compound-SELECT operands, ``CREATE TEMPORARY TABLE ... AS
  SELECT`` without parentheses, and ``WITH RECURSIVE`` with ``UNION`` (set
  semantics) so recursion terminates regardless of data shape.

GENERIC/DB2/ORACLE output is primarily for inspection and documentation;
SQLITE output is executed for real by
:class:`repro.backends.sqlite.SqliteBackend` and differentially validated
against the in-memory executor.
"""

from __future__ import annotations

import enum
import re
from typing import List

from repro.relational.algebra import (
    AntiJoin,
    Compose,
    Difference,
    EmptyRelation,
    EquiJoin,
    Fixpoint,
    IdentityRelation,
    Intersect,
    IntervalJoin,
    Program,
    Project,
    RAExpr,
    RecursiveUnion,
    Scan,
    Select,
    SemiJoin,
    TagProject,
    Union,
)
from repro.relational.schema import F, PRE, SIZE, T, V

__all__ = [
    "SQLDialect",
    "program_to_sql",
    "program_statements",
    "expression_to_sql",
    "quote_identifier",
]


class SQLDialect(enum.Enum):
    """Supported SQL output dialects."""

    GENERIC = "generic"
    DB2 = "db2"
    ORACLE = "oracle"
    SQLITE = "sqlite"


def _literal(value: object) -> str:
    if value is None:
        return "NULL"
    return "'" + str(value).replace("'", "''") + "'"


# Identifiers that parse as plain names everywhere and need no quoting.
_PLAIN_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# SQL keywords that would be misparsed as syntax if used as bare table
# names.  DTD element names (hence relation names like ``R_select``) carry
# the mapping prefix, but custom mappings and DTD names containing ``-`` or
# ``.`` (both legal in the DTD grammar) reach the renderer verbatim.
_RESERVED_WORDS = frozenset(
    """
    ALL AND AS ASC BETWEEN BY CASE CHECK COLUMN CONSTRAINT CREATE CROSS
    CURRENT DEFAULT DELETE DESC DISTINCT DROP ELSE END ESCAPE EXCEPT EXISTS
    FOREIGN FROM FULL GROUP HAVING IN INDEX INNER INSERT INTERSECT INTO IS
    JOIN KEY LEFT LIKE LIMIT MINUS NATURAL NOT NULL OFFSET ON OR ORDER
    OUTER PRIMARY RECURSIVE REFERENCES RIGHT SELECT SET TABLE TEMPORARY
    THEN UNION UNIQUE UPDATE USING VALUES VIEW WHEN WHERE WITH
    """.split()
)


def quote_identifier(name: str, always: bool = False) -> str:
    """Render ``name`` as a SQL identifier.

    By default plain alphanumeric names stay bare (keeping the emitted SQL
    readable and the golden texts stable); names containing ``-``/``.``/
    quotes — legal in DTD element names, hence in relation names — and
    names colliding with SQL keywords are double-quoted with embedded
    quotes doubled, which is the escaping every supported dialect accepts.
    ``always=True`` quotes unconditionally (the SQLite renderer and DDL
    generator use this so identifiers never depend on the keyword list).
    """
    if (
        not always
        and _PLAIN_IDENTIFIER_RE.match(name)
        and name.upper() not in _RESERVED_WORDS
    ):
        return name
    return '"' + name.replace('"', '""') + '"'


class _SQLRenderer:
    def __init__(self, dialect: SQLDialect) -> None:
        self._dialect = dialect
        self._counter = 0

    def _alias(self, prefix: str = "t") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    # Each render method returns a SELECT statement producing columns F, T, V.

    def render(self, expr: RAExpr) -> str:
        if isinstance(expr, Scan):
            if self._dialect is SQLDialect.SQLITE:
                # Temporaries are not always (F, T, V): the SQL'99 recursive
                # union materialises an extra TAG column, so scans must keep
                # whatever columns the relation actually has.  The name is
                # always quoted because DTD element names (hence relation
                # names) may contain '-' or '.'.
                return f"SELECT * FROM {quote_identifier(expr.name, always=True)}"
            return f"SELECT {F}, {T}, {V} FROM {quote_identifier(expr.name)}"
        if isinstance(expr, IdentityRelation):
            return f"SELECT {T} AS {F}, {T}, {V} FROM ALL_NODES"
        if isinstance(expr, EmptyRelation):
            # A zero-row (F, T, V) relation.  Oracle and DB2 require a FROM
            # clause, so the dummy one-row tables stand in there.
            source = ""
            if self._dialect is SQLDialect.ORACLE:
                source = " FROM DUAL"
            elif self._dialect is SQLDialect.DB2:
                source = " FROM SYSIBM.SYSDUMMY1"
            return f"SELECT '' AS {F}, '' AS {T}, '' AS {V}{source} WHERE 1 = 0"
        if isinstance(expr, Select):
            inner = self.render(expr.input)
            alias = self._alias()
            conds = " AND ".join(
                f"{alias}.{c.column} {'=' if c.op == '=' else '<>'} {_literal(c.value)}"
                for c in expr.conditions
            )
            return f"SELECT {alias}.* FROM ({inner}) {alias} WHERE {conds}"
        if isinstance(expr, Project):
            inner = self.render(expr.input)
            alias = self._alias()
            aliases = expr.aliases or expr.columns
            cols = ", ".join(
                f"{alias}.{col} AS {out}" for col, out in zip(expr.columns, aliases)
            )
            return f"SELECT DISTINCT {cols} FROM ({inner}) {alias}"
        if isinstance(expr, TagProject):
            inner = self.render(expr.input)
            alias = self._alias()
            return (
                f"SELECT {alias}.{F}, {alias}.{T}, {alias}.{V}, "
                f"{_literal(expr.tag)} AS TAG FROM ({inner}) {alias}"
            )
        if isinstance(expr, Compose):
            left = self.render(expr.left)
            right = self.render(expr.right)
            la, ra = self._alias("l"), self._alias("r")
            return (
                f"SELECT {la}.{F} AS {F}, {ra}.{T} AS {T}, {ra}.{V} AS {V} "
                f"FROM ({left}) {la} JOIN ({right}) {ra} ON {la}.{T} = {ra}.{F}"
            )
        if isinstance(expr, EquiJoin):
            left = self.render(expr.left)
            right = self.render(expr.right)
            la, ra = self._alias("l"), self._alias("r")
            cols = ", ".join(
                f"{la if side == 'L' else ra}.{column} AS {alias_}"
                for side, column, alias_ in expr.output
            )
            return (
                f"SELECT {cols} FROM ({left}) {la} JOIN ({right}) {ra} "
                f"ON {la}.{expr.left_column} = {ra}.{expr.right_column}"
            )
        if isinstance(expr, SemiJoin):
            left = self.render(expr.left)
            right = self.render(expr.right)
            la = self._alias("l")
            return (
                f"SELECT {la}.* FROM ({left}) {la} WHERE {la}.{expr.left_column} IN "
                f"(SELECT {expr.right_column} FROM ({right}) {self._alias('q')})"
            )
        if isinstance(expr, AntiJoin):
            left = self.render(expr.left)
            right = self.render(expr.right)
            la = self._alias("l")
            return (
                f"SELECT {la}.* FROM ({left}) {la} WHERE {la}.{expr.left_column} NOT IN "
                f"(SELECT {expr.right_column} FROM ({right}) {self._alias('q')})"
            )
        if isinstance(expr, Union):
            if self._dialect is SQLDialect.SQLITE:
                # SQLite rejects parenthesised compound-SELECT operands, so
                # each branch is wrapped in a derived table instead.
                parts = [
                    f"SELECT * FROM ({self.render(child)}) {self._alias('u')}"
                    for child in expr.inputs
                ]
            else:
                parts = [f"({self.render(child)})" for child in expr.inputs]
            return "\nUNION\n".join(parts)
        if isinstance(expr, Difference):
            keyword = "MINUS" if self._dialect is SQLDialect.ORACLE else "EXCEPT"
            return self._compound(expr.left, keyword, expr.right)
        if isinstance(expr, Intersect):
            return self._compound(expr.left, "INTERSECT", expr.right)
        if isinstance(expr, Fixpoint):
            return self._render_fixpoint(expr)
        if isinstance(expr, RecursiveUnion):
            return self._render_recursive_union(expr)
        if isinstance(expr, IntervalJoin):
            return self._render_interval_join(expr)
        raise TypeError(f"cannot render {expr!r} as SQL")

    def _render_interval_join(self, expr: IntervalJoin) -> str:
        # The interval descendant strategy: two self-joins against the
        # DOC_ORDER numbering pick every right-side node whose PRE falls in
        # the ancestor's half-open window (pre, pre + size].
        left = self.render(expr.left)
        right = self.render(expr.right)
        if isinstance(expr.order, Scan):
            order = quote_identifier(
                expr.order.name, always=self._dialect is SQLDialect.SQLITE
            )
        else:
            order = f"({self.render(expr.order)})"
        la, ra = self._alias("l"), self._alias("r")
        dl, dr = self._alias("d"), self._alias("d")
        return (
            f"SELECT DISTINCT {dl}.{T} AS {F}, {ra}.{T} AS {T}, {ra}.{V} AS {V}\n"
            f"FROM ({left}) {la}\n"
            f"JOIN {order} {dl} ON {dl}.{T} = {la}.{T}\n"
            f"JOIN {order} {dr} ON {dr}.{PRE} > {dl}.{PRE} "
            f"AND {dr}.{PRE} <= {dl}.{PRE} + {dl}.{SIZE}\n"
            f"JOIN ({right}) {ra} ON {ra}.{T} = {dr}.{T}"
        )

    def _compound(self, left: RAExpr, keyword: str, right: RAExpr) -> str:
        if self._dialect is SQLDialect.SQLITE:
            la, ra = self._alias("c"), self._alias("c")
            return (
                f"SELECT * FROM ({self.render(left)}) {la}\n{keyword}\n"
                f"SELECT * FROM ({self.render(right)}) {ra}"
            )
        return f"({self.render(left)})\n{keyword}\n({self.render(right)})"

    # -- recursion ---------------------------------------------------------------

    def _render_fixpoint(self, expr: Fixpoint) -> str:
        base = self.render(expr.base)
        # A target anchor without a source anchor means the closure runs
        # *backwards* from tuples ending in the anchored set (second
        # push-selection case of Sect. 5.2): seeds keep their target fixed
        # and each step prepends an edge, mirroring Executor._fixpoint_backward.
        backward = expr.target_anchor is not None and expr.source_anchor is None
        # The bare predicate is kept separate from its WHERE/AND keyword:
        # the rendered anchor may itself contain WHERE clauses, so textual
        # keyword substitution on the combined filter would corrupt them.
        anchor_filter = ""
        if expr.source_anchor is not None:
            anchor = self.render(expr.source_anchor)
            anchor_filter = f"{F} IN (SELECT {T} FROM ({anchor}) {self._alias('a')})"
        elif backward:
            anchor = self.render(expr.target_anchor)
            anchor_filter = f"{T} IN (SELECT {F} FROM ({anchor}) {self._alias('a')})"
        seed_filter = f" WHERE {anchor_filter}" if anchor_filter else ""

        if self._dialect is SQLDialect.ORACLE:
            # Oracle CONNECT BY over the single input relation (Fig. 4 left).
            start_with = f"START WITH 1 = 1{f' AND {anchor_filter}' if anchor_filter else ''}"
            if backward:
                return (
                    f"SELECT {F}, CONNECT_BY_ROOT {T} AS {T}, CONNECT_BY_ROOT {V} AS {V}\n"
                    f"FROM ({base})\n"
                    f"CONNECT BY {T} = PRIOR {F}\n"
                    f"{start_with}"
                )
            return (
                f"SELECT CONNECT_BY_ROOT {F} AS {F}, {T}, {V}\n"
                f"FROM ({base})\n"
                f"CONNECT BY PRIOR {T} = {F}\n"
                f"{start_with}"
            )
        # Generic / DB2 / SQLite: recursive common table expression over one
        # relation.  SQLite gets a unique CTE name (fixpoints can nest inside
        # one statement) and UNION instead of UNION ALL so the recursion
        # terminates with set semantics, like the in-memory fixpoint.
        sqlite = self._dialect is SQLDialect.SQLITE
        name = self._alias("lfp") if sqlite else "lfp"
        union_kw = "UNION" if sqlite else "UNION ALL"
        with_kw = "WITH" if self._dialect is SQLDialect.DB2 else "WITH RECURSIVE"
        if backward:
            step = (
                f"  SELECT step.{F}, {name}.{T}, {name}.{V}\n"
                f"  FROM {name} JOIN ({base}) step ON step.{T} = {name}.{F}\n"
            )
        else:
            step = (
                f"  SELECT {name}.{F}, step.{T}, step.{V}\n"
                f"  FROM {name} JOIN ({base}) step ON {name}.{T} = step.{F}\n"
            )
        return (
            f"{with_kw} {name} ({F}, {T}, {V}) AS (\n"
            f"  SELECT {F}, {T}, {V} FROM ({base}) seed{seed_filter}\n"
            f"  {union_kw}\n"
            f"{step}"
            f")\n"
            f"SELECT DISTINCT {F}, {T}, {V} FROM {name}"
        )

    def _render_recursive_union(self, expr: RecursiveUnion) -> str:
        sqlite = self._dialect is SQLDialect.SQLITE
        name = self._alias("rec") if sqlite else "r"
        union_kw = "UNION" if sqlite else "UNION ALL"
        with_kw = "WITH" if self._dialect is SQLDialect.DB2 else "WITH RECURSIVE"
        init = self.render(expr.init)
        branches: List[str] = []
        for step in expr.steps:
            edge = self.render(step.relation)
            alias = self._alias("e")
            branches.append(
                # The origin node stays in F (matching EdgeStep semantics and
                # the executor) so the recursion yields ancestor/descendant
                # pairs that compose with the rest of the program.  Tags are
                # element-type names and go through _literal: a quote in a
                # tag must not corrupt the statement.
                f"  SELECT {name}.{F} AS {F}, {alias}.{T} AS {T}, {alias}.{V} AS {V}, "
                f"{_literal(step.child_tag)} AS TAG\n"
                f"  FROM {name} JOIN ({edge}) {alias} ON {name}.{T} = {alias}.{F} "
                f"AND {name}.TAG = {_literal(step.parent_tag)}"
            )
        branches_sql = f"\n  {union_kw}\n".join(branches)
        return (
            f"{with_kw} {name} ({F}, {T}, {V}, TAG) AS (\n"
            f"  {init}\n"
            f"  {union_kw}\n"
            f"{branches_sql}\n"
            f")\n"
            f"SELECT DISTINCT {F}, {T}, {V}, TAG FROM {name}"
        )


def expression_to_sql(expr: RAExpr, dialect: SQLDialect = SQLDialect.GENERIC) -> str:
    """Render a single relational expression as a SELECT statement."""
    return _SQLRenderer(dialect).render(expr)


def program_statements(
    program: Program, dialect: SQLDialect = SQLDialect.GENERIC
) -> List[str]:
    """Render a program as executable statements, one per assignment plus the
    result SELECT (no trailing semicolons).

    This is the single source of truth for the statement shapes: both the
    script renderer (:func:`program_to_sql`) and the backends that actually
    execute the SQL consume it, so golden-text tests pin exactly what runs.
    """
    renderer = _SQLRenderer(dialect)
    statements: List[str] = []
    for assignment in program.assignments:
        body = renderer.render(assignment.expression)
        if dialect is SQLDialect.SQLITE:
            # SQLite rejects a parenthesised SELECT after AS.
            statements.append(
                "CREATE TEMPORARY TABLE "
                f"{quote_identifier(assignment.target, always=True)} AS\n{body}"
            )
        else:
            statements.append(
                f"CREATE TEMPORARY TABLE {quote_identifier(assignment.target)} "
                f"AS (\n{body}\n)"
            )
    statements.append(renderer.render(program.result))
    return statements


def program_to_sql(program: Program, dialect: SQLDialect = SQLDialect.GENERIC) -> str:
    """Render a program as a SQL script.

    Each assignment becomes a ``CREATE TEMPORARY TABLE ... AS`` statement,
    so the script mirrors the ``R_e <- e2s(e)`` sequence of Sect. 5.1,
    followed by the result SELECT.
    """
    return "\n\n".join(f"{s};" for s in program_statements(program, dialect))
