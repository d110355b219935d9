"""The SQLite backend: run translated SQL for real on an RDBMS.

This is the strongest correctness check in the repository: the paper's
claim is that XPath over recursive DTDs translates to *ordinary SQL with a
low-end recursion operator*, and SQLite's ``WITH RECURSIVE`` is exactly
such an operator.  The backend

1. generates DDL from a :class:`~repro.relational.schema.DatabaseSchema`
   (one ``TEXT``-columned table per relation, indexes on the join columns,
   plus the ``ALL_NODES`` view backing the identity relation ``R_id``);
2. bulk-loads the shredded document through ``executemany`` — once, at
   construction time; the connection then persists for the backend's
   lifetime, which is what lets a serving layer keep a loaded store warm;
3. executes each program assignment as a ``CREATE TEMPORARY TABLE ... AS``
   statement rendered in the :data:`~repro.relational.sqlgen.SQLDialect.SQLITE`
   dialect, then fetches the result SELECT.

Temporaries are shared across plans and calls.  The backend keeps one
:class:`~repro.relational.temporaries.SharedTemporaries` table, as the
columnar store does: a temporary is keyed by its canonical expression, so
the closures the paper's lowering emits for many queries over one DTD get
one entry, and that entry one temp-table name.  The backend creates a
shared table the first time a plan needs it and keeps it for the next
plan, so a warm plan runs its result SELECT alone.
:meth:`SqliteBackend.apply_delta` drops every shared table right after its
commit, and each run first drops the tables no live prepared plan uses any
more.

Concurrency: the backend opens one private in-memory database on one
connection, and one lock serializes every use of it.  Any thread may call
the backend, and temporary tables belong to the connection, so a shared
table one thread creates serves every thread's later plans.  A server
answers in parallel through the process pool, one backend per worker.
The connection cannot cross ``fork`` or ``spawn``: pickling refuses, and
a forked child that inherits the backend gets
:class:`~repro.errors.ExecutionError` on first use.

Prepared execution (:meth:`SqliteBackend.prepare` /
:meth:`SqliteBackend.execute_prepared`) renders the statement list once per
plan, each temporary under its shared table's name, and registers the
plan's temporaries in the shared table for as long as the prepared plan
lives.  :meth:`SqliteBackend.execute` is prepare-then-execute, so a
one-shot call runs exactly the statements a served one does; its
temporaries are released with its plan.

The answer is read from the fetched ``T`` column alone: SQLite's TEXT
affinity hands node ids back as strings, which
:class:`~repro.backends.base.BackendResult` turns into distinct ints in
ascending order (a string sort would put ``'10'`` before ``'9'``), the
form :class:`~repro.backends.memory.MemoryBackend` answers in too.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Iterator, List, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids a cycle)
    from repro.live.delta import ShredDelta

from repro import obs
from repro.backends.base import Backend, BackendResult, PreparedProgram
from repro.errors import ExecutionError
from repro.relational.algebra import Assignment, Program, RAExpr, rename_scans
from repro.relational.database import Database, absent_rows_error
from repro.relational.schema import DOC_ORDER, DatabaseSchema, F, NODE_COLUMNS, PRE, T, V
from repro.relational.sqlgen import SQLDialect, program_statements, quote_identifier
from repro.relational.temporaries import SharedEntry, SharedTemporaries

__all__ = ["SqliteBackend", "sqlite_schema_ddl", "IDENTITY_VIEW"]

# Name of the view the SQL renderer scans for the identity relation R_id.
IDENTITY_VIEW = "ALL_NODES"


def _quoted(name: str) -> str:
    """Unconditionally quote an identifier for generated DDL/DML.

    Relation names come from DTD element names, which may contain ``-`` or
    ``.`` (and, via custom mappings, in principle anything) — every
    identifier in generated DDL/DML goes through the one shared escaper.
    """
    return quote_identifier(name, always=True)


def sqlite_schema_ddl(schema: DatabaseSchema) -> List[str]:
    """DDL statements creating ``schema``'s tables, indexes and R_id view.

    Every column is ``TEXT`` (node ids and the ``'_'`` sentinels live in the
    same columns); the ``F``/``T`` columns get indexes because every join
    and every recursive step probes them.  The ``ALL_NODES`` view unions the
    node relations so ``IdentityRelation`` renders against a real object.
    """
    statements: List[str] = []
    for name in schema.relation_names:
        relation = schema.relation(name)
        # The DOC_ORDER ranks must compare numerically — TEXT affinity would
        # make '10' < '9' and silently break the interval range predicate.
        numeric = set(relation.columns) - {T} if name == DOC_ORDER else set()
        columns = ", ".join(
            f"{_quoted(column)} {'INTEGER' if column in numeric else 'TEXT'}"
            for column in relation.columns
        )
        statements.append(f"CREATE TABLE {_quoted(name)} ({columns})")
        index_columns = (T, PRE) if name == DOC_ORDER else (F, T)
        for column in index_columns:
            if relation.has_column(column):
                statements.append(
                    f"CREATE INDEX {_quoted(f'idx_{name}_{column}')} "
                    f"ON {_quoted(name)} ({_quoted(column)})"
                )
    node_selects = [
        f"SELECT {F}, {T}, {V} FROM {_quoted(name)}"
        for name in schema.node_relations
        if tuple(schema.relation(name).columns) == NODE_COLUMNS
    ]
    if node_selects:
        body = "\nUNION\n".join(node_selects)
    else:
        body = f"SELECT '' AS {F}, '' AS {T}, '' AS {V} WHERE 0"
    statements.append(f"CREATE VIEW {IDENTITY_VIEW} ({F}, {T}, {V}) AS\n{body}")
    return statements


class _SharedTable(SharedEntry):
    """A shared temporary on SQLite: the temp-table name the backend
    creates it under (``#`` never occurs in a relation or temporary name
    the translator emits)."""

    __slots__ = ("name",)

    def __init__(self, key: RAExpr, name: str) -> None:
        super().__init__(key)
        self.name = name


@dataclass(frozen=True)
class _SqlitePlan:
    """The precomputed payload of a prepared program: rendered statements.

    ``statements`` holds one ``CREATE TEMPORARY TABLE`` per shared table in
    ``tables``, then the result SELECT; ``targets`` names each created
    table by the program's own temporary, for spans.
    """

    statements: Tuple[str, ...]
    targets: Tuple[str, ...]
    tables: Tuple[_SharedTable, ...]


class SqliteBackend(Backend):
    """Execute translated programs on SQLite.

    Parameters
    ----------
    database:
        The shredded database; its schema is turned into DDL and its
        relations bulk-loaded into a private in-memory SQLite database at
        construction time.
    """

    name = "sqlite"
    dialect = SQLDialect.SQLITE

    def __init__(self, database: Database) -> None:
        super().__init__(database)
        self._pid = os.getpid()
        # Any thread may use the connection, one at a time under ``_lock``.
        self._connection = sqlite3.connect(":memory:", check_same_thread=False)
        self._lock = threading.Lock()
        self._closed = False
        # The shared tables that exist on the connection.
        self._tables: Set[_SharedTable] = set()
        table_ids = itertools.count()
        self._temporaries: SharedTemporaries[_SharedTable] = SharedTemporaries(
            self._schema.has_relation,
            lambda key: _SharedTable(key, f"shared#{next(table_ids)}"),
        )
        self._load(database)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        if os.getpid() != self._pid:
            return  # a forked child leaves the parent's connection alone
        with self._lock:
            if not self._closed:
                self._closed = True
                self._connection.close()

    @contextlib.contextmanager
    def _connected(self) -> Iterator[sqlite3.Connection]:
        """The connection, held under the backend's lock."""
        # The pid check comes before the lock: a forked child inherits the
        # lock as it was at the fork, possibly held by a parent thread that
        # does not exist in the child, and waiting for it would hang.
        if os.getpid() != self._pid:
            raise ExecutionError(
                f"sqlite backend is process-affine: created in pid {self._pid}, "
                f"used in pid {os.getpid()}; rebuild the store inside the "
                "worker process instead of sharing it across fork/spawn"
            )
        with self._lock:
            if self._closed:
                raise ExecutionError("sqlite backend is closed")
            yield self._connection

    def __reduce__(self):
        # Refuse pickling (the multiprocessing transport) with a clear error
        # instead of the opaque "cannot pickle '_thread.lock'" TypeError.
        raise ExecutionError(
            "SqliteBackend cannot be pickled: its in-memory database and "
            "connection do not survive fork/spawn; ship the Database and "
            "rebuild the backend in the worker process"
        )

    def _load(self, database: Database) -> None:
        """Create the schema's tables and bulk-load the database's rows."""
        connection = self._connection
        for statement in sqlite_schema_ddl(self._schema):
            connection.execute(statement)
        for name in self._schema.relation_names:
            relation = database.relation(name)
            placeholders = ", ".join("?" * len(relation.columns))
            connection.executemany(
                f"INSERT INTO {_quoted(name)} VALUES ({placeholders})",
                [tuple(str(value) for value in row) for row in relation.rows],
            )
        connection.commit()

    # -- live updates ------------------------------------------------------------

    def apply_delta(self, delta: "ShredDelta") -> None:
        """Apply a shred delta as DELETE/INSERT batches in one transaction.

        Deletes match full rows (every column in the ``WHERE`` clause —
        shredded rows are unique per relation, so each removes at most one
        row), and each relation's batch must remove exactly as many rows as
        the delta lists; a delete row of the wrong width matches none.
        Inserts reuse the bulk-load path.  A batch that removes too few
        rows, or any SQLite failure, rolls the whole transaction back and
        raises :class:`~repro.errors.ExecutionError`, so the loaded tables
        never expose a half-applied mutation and answers stay the old
        ones.  The tables are the backend's one store: the database it was
        built from is never written.  Every shared table was built from the
        old rows, so all of them are dropped right after the commit, before
        any other call runs.
        """
        with obs.span(
            "apply_delta",
            backend=self.name,
            relations=len(delta.relations()),
            rows_deleted=delta.delete_count(),
            rows_inserted=delta.insert_count(),
        ), self._connected() as connection:
            try:
                if not connection.in_transaction:
                    connection.execute("BEGIN")
                for name in delta.relations():
                    columns = self._schema.relation(name).columns
                    removals = delta.deletes.get(name, frozenset())
                    if removals:
                        predicate = " AND ".join(
                            f"{_quoted(column)} = ?" for column in columns
                        )
                        removed = connection.executemany(
                            f"DELETE FROM {_quoted(name)} WHERE {predicate}",
                            [tuple(map(str, row)) for row in removals if len(row) == len(columns)],
                        ).rowcount
                        if removed != len(removals):
                            raise absent_rows_error(name, len(removals) - removed)
                    additions = delta.inserts.get(name, frozenset())
                    if additions:
                        placeholders = ", ".join("?" * len(columns))
                        connection.executemany(
                            f"INSERT INTO {_quoted(name)} VALUES ({placeholders})",
                            [tuple(str(value) for value in row) for row in additions],
                        )
                connection.commit()
            except BaseException as exc:
                connection.rollback()
                if isinstance(exc, sqlite3.Error):
                    raise ExecutionError(f"sqlite delta application failed: {exc}") from exc
                raise
            self._drop_tables(connection, list(self._tables))

    # -- execution ---------------------------------------------------------------

    def prepare(self, program: Program) -> PreparedProgram:
        """Prune and render once, each temporary under its shared table's name.

        The pruned program's temporaries join the shared table
        (:class:`~repro.relational.temporaries.SharedTemporaries`) for as
        long as the returned plan lives.  Reads of a temporary are renamed
        with it, except reads of one that shadows a base relation: those
        read the base relation, as in the in-memory engines.
        """
        with obs.span("prepare", backend=self.name) as sp:
            pruned = program.pruned()
            view = self._temporaries.view(pruned)
            renames: Dict[str, str] = {}
            creates: Dict[_SharedTable, Tuple[str, Assignment]] = {}
            for target, table in view.items():
                if table not in creates:
                    expression = rename_scans(pruned.expression_for(target), renames)
                    creates[table] = (target, Assignment(table.name, expression))
                if not self._schema.has_relation(target):
                    renames[target] = table.name
            shared = Program(
                [assignment for _, assignment in creates.values()],
                rename_scans(pruned.result, renames),
            )
            plan = _SqlitePlan(
                statements=tuple(program_statements(shared, SQLDialect.SQLITE)),
                targets=tuple(target for target, _ in creates.values()),
                tables=tuple(creates),
            )
            sp.set(statements=len(plan.statements))
        return PreparedProgram(backend=self.name, program=pruned, payload=plan)

    def explain(self, program: Program) -> List[Tuple[str, List[str]]]:
        """``EXPLAIN QUERY PLAN`` rows of every statement ``program`` runs.

        One ``(target, rows)`` pair per statement in execution order; the
        result SELECT's target is ``<result>``.  The program is rendered
        under its own temporary names, not the shared tables', so explaining
        leaves the shared tables alone.  Each temporary is created after its
        plan is read, so the next statement is planned against the table it
        will really scan; all are dropped before returning.
        """
        pruned = program.pruned()
        statements = program_statements(pruned, SQLDialect.SQLITE)
        created: List[str] = []
        explained: List[Tuple[str, List[str]]] = []
        with self._connected() as connection:
            cursor = connection.cursor()
            try:
                for assignment, statement in zip(pruned.assignments, statements):
                    explained.append(
                        (assignment.target, self._query_plan(cursor, statement))
                    )
                    cursor.execute(statement)
                    created.append(assignment.target)
                explained.append(("<result>", self._query_plan(cursor, statements[-1])))
            except sqlite3.Error as exc:
                raise ExecutionError(f"sqlite explain failed: {exc}") from exc
            finally:
                for name in created:
                    cursor.execute(f"DROP TABLE IF EXISTS temp.{_quoted(name)}")
                cursor.close()
        return explained

    @staticmethod
    def _query_plan(cursor: sqlite3.Cursor, statement: str) -> List[str]:
        """The plan's rows, each indented two spaces per level of its tree.

        SQLite reports the tree as ``(id, parent)`` pairs, parents first; a
        top-level row's parent is 0, which no row has as its id.
        """
        cursor.execute(f"EXPLAIN QUERY PLAN {statement}")
        depth: Dict[int, int] = {}
        lines: List[str] = []
        for node_id, parent, _, detail in cursor.fetchall():
            depth[node_id] = level = depth.get(parent, -1) + 1
            lines.append("  " * level + str(detail))
        return lines

    def execute_prepared(self, prepared: PreparedProgram) -> BackendResult:
        """Run a prepared plan: the shared tables that do not exist yet,
        then the result SELECT.

        ``temporaries_evaluated`` counts the tables this call created and
        ``temporaries_reused`` the ones that already existed.
        """
        if prepared.backend != self.name:
            raise ValueError(
                f"program was prepared for backend {prepared.backend!r}, "
                f"cannot execute on {self.name!r}"
            )
        plan = prepared.payload
        if not isinstance(plan, _SqlitePlan):  # prepared via the base class
            prepared = self.prepare(prepared.program)
            plan = prepared.payload
        with obs.span("execute", backend=self.name) as sp:
            columns, rows, elapsed, evaluated = self._run_plan(plan)
            # The result SELECT may fetch a row more than once; ``rows``
            # counts each distinct row once, as the memory backend does.
            counts = {
                "rows": len(set(rows)),
                "temporaries_evaluated": evaluated,
                "temporaries_reused": len(plan.tables) - evaluated,
            }
            sp.set(**counts)
        stats: Dict[str, float] = {"elapsed_seconds": elapsed, **counts}
        return BackendResult(self.name, map(itemgetter(columns.index(T)), rows), stats)

    def execute(self, program: Program) -> BackendResult:
        """Prepare ``program`` and run it (see :meth:`execute_prepared`).

        Assignments the result never uses are pruned first (mirroring the
        lazy in-memory strategy, which also never materialises them).
        """
        return self.execute_prepared(self.prepare(program))

    # -- statement running -------------------------------------------------------

    def _run_plan(self, plan: _SqlitePlan) -> Tuple[List[str], List[tuple], float, int]:
        """Execute a rendered plan under the lock.

        Drops the shared tables no live prepared plan uses any more, creates
        the plan's tables that do not exist yet and fetches the result.
        Returns ``(columns, rows, elapsed, created)``: the result's column
        names, its fetched rows, the time spent in the translated statements
        alone and the number of tables created.  Dropping stale tables is
        backend bookkeeping, and timing it would bias every memory-vs-sqlite
        comparison the backend axis exists to make.  The drop happens here,
        not when a plan is released: a release runs inside garbage
        collection on any thread, which must not touch the connection.
        """
        elapsed = 0.0
        created = 0
        with self._connected() as connection:
            cursor = connection.cursor()
            try:
                # Read without the shared table's lock: ``users`` reaches 0
                # only as its entry leaves the table, and a left entry never
                # returns.
                self._drop_tables(
                    connection, [table for table in self._tables if not table.users]
                )
                for target, table, statement in zip(
                    plan.targets, plan.tables, plan.statements
                ):
                    if table in self._tables:
                        continue
                    with obs.span("sql-statement", target=target):
                        start = time.perf_counter()
                        cursor.execute(statement)
                        elapsed += time.perf_counter() - start
                    self._tables.add(table)
                    created += 1
                with obs.span("sql-statement", target="<result>"):
                    start = time.perf_counter()
                    cursor.execute(plan.statements[-1])
                    columns = [description[0] for description in cursor.description]
                    rows = cursor.fetchall()
                    elapsed += time.perf_counter() - start
            except sqlite3.Error as exc:
                raise ExecutionError(f"sqlite execution failed: {exc}") from exc
            finally:
                cursor.close()
        return columns, rows, elapsed, created

    def _drop_tables(
        self, connection: sqlite3.Connection, tables: List[_SharedTable]
    ) -> None:
        """Drop shared tables from the connection (lock held)."""
        for table in tables:
            connection.execute(f"DROP TABLE IF EXISTS temp.{_quoted(table.name)}")
            self._tables.discard(table)
