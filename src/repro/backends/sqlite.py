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
one entry, and that entry one temp-table name.  Each connection creates a
shared table the first time a plan on it needs one and keeps it for the
next plan, so a warm plan runs its result SELECT alone.  A connection
drops its own stale tables at its next use: all of them after
:meth:`SqliteBackend.apply_delta`, and each one no live prepared plan
uses any more.

Concurrency: the default in-memory database is opened in SQLite's
shared-cache mode under a unique URI, and every thread that touches the
backend lazily gets its *own* connection to it.  Connections are never
shared across threads (sidestepping "recursive use of cursors" and
cross-thread errors wholesale), temporary tables are per-connection so
parallel queries cannot collide, and the loaded base tables are only ever
read after construction.  Each connection also keeps its own record of the
shared tables it holds; no thread ever touches another's connection.

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

import itertools
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids a cycle)
    from repro.live.delta import ShredDelta

from repro import obs
from repro.backends.base import Backend, BackendResult, PreparedProgram
from repro.errors import ExecutionError
from repro.relational.algebra import Assignment, Program, RAExpr, rename_scans
from repro.relational.database import Database
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
    """A shared temporary on SQLite: the temp-table name every connection
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


class _Connection:
    """One thread's connection and the shared tables it holds.

    ``version`` is the backend's data version the tables were built at.
    """

    __slots__ = ("connection", "tables", "version")

    def __init__(self, connection: sqlite3.Connection) -> None:
        self.connection = connection
        self.tables: Set[_SharedTable] = set()
        self.version = 0


class SqliteBackend(Backend):
    """Execute translated programs on SQLite.

    Parameters
    ----------
    database:
        The shredded database; its schema is turned into DDL and its
        relations bulk-loaded at construction time.
    path:
        SQLite database path.  The default ``":memory:"`` becomes a unique
        shared-cache in-memory database so per-thread connections all see
        the same loaded tables.
    """

    name = "sqlite"
    dialect = SQLDialect.SQLITE
    # Shared-cache URIs embed the pid and sqlite3 connections cannot cross a
    # fork/spawn boundary: instances are process-local and must be rebuilt in
    # each worker (the pool's worker initializers key off this flag).
    process_affine = True

    _instance_ids = itertools.count()

    def __init__(self, database: Database, path: str = ":memory:") -> None:
        super().__init__(database)
        self._pid = os.getpid()
        if path == ":memory:":
            self._uri = (
                f"file:repro-sqlite-{os.getpid()}-{next(self._instance_ids)}"
                "?mode=memory&cache=shared"
            )
            self._is_uri = True
        else:
            self._uri = path
            self._is_uri = False
        self._lock = threading.Lock()
        # (owning thread, connection) pairs; dead threads' connections are
        # reaped whenever a new one opens, so short-lived caller threads
        # cannot leak handles.
        self._connections: List[Tuple[threading.Thread, sqlite3.Connection]] = []
        self._local = threading.local()
        self._closed = False
        # Bumped after every applied delta: tables created before it are stale.
        self._version = 0
        table_ids = itertools.count()
        self._temporaries: SharedTemporaries[_SharedTable] = SharedTemporaries(
            database.__contains__,
            lambda key: _SharedTable(key, f"shared#{next(table_ids)}"),
        )
        # The anchor connection keeps the shared in-memory database alive for
        # the backend's whole lifetime (it would vanish with its last
        # connection otherwise) and performs the one-time DDL + bulk load.
        self._anchor = self._open_connection()
        self._local.state = _Connection(self._anchor)
        self._create_schema()
        self._load()

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._closed = True
            connections, self._connections = self._connections, []
        for _, connection in connections:
            connection.close()

    def _open_connection(self) -> sqlite3.Connection:
        # check_same_thread=False so close() can reap connections owned by
        # worker threads; each connection is still *used* by one thread only.
        connection = sqlite3.connect(
            self._uri, uri=self._is_uri, check_same_thread=False
        )
        with self._lock:
            if self._closed:
                connection.close()
                raise ExecutionError("sqlite backend is closed")
            dead = [
                (thread, conn)
                for thread, conn in self._connections
                if not thread.is_alive()
            ]
            if dead:
                self._connections = [
                    entry for entry in self._connections if entry not in dead
                ]
            self._connections.append((threading.current_thread(), connection))
        for _, stale in dead:
            stale.close()
        return connection

    def _state(self) -> _Connection:
        """This thread's connection and its shared tables, opened lazily."""
        # The pid check must come first: after a fork the child inherits the
        # parent's thread-local *and* its connection object, but the
        # shared-cache database behind them belongs to the parent.  Touching
        # it would silently read an empty (or freshly re-created) database.
        if os.getpid() != self._pid:
            raise ExecutionError(
                f"sqlite backend is process-affine: created in pid {self._pid}, "
                f"used in pid {os.getpid()}; rebuild the store inside the "
                "worker process instead of sharing it across fork/spawn"
            )
        if self._closed:
            raise ExecutionError("sqlite backend is closed")
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _Connection(self._open_connection())
        return state

    def _conn(self) -> sqlite3.Connection:
        """This thread's connection, opened lazily on first use."""
        return self._state().connection

    def __reduce__(self):
        # Refuse pickling (the multiprocessing transport) with a clear error
        # instead of the opaque "cannot pickle '_thread.lock'" TypeError.
        raise ExecutionError(
            "SqliteBackend cannot be pickled: shared-cache in-memory URIs and "
            "connections do not survive fork/spawn; ship the Database and "
            "rebuild the backend in the worker process"
        )

    # -- loading -----------------------------------------------------------------

    def _create_schema(self) -> None:
        cursor = self._conn().cursor()
        for statement in sqlite_schema_ddl(self._database.schema):
            cursor.execute(statement)
        self._conn().commit()

    def _load(self) -> None:
        connection = self._conn()
        for name in self._database.schema.relation_names:
            relation = self._database.relation(name)
            width = len(relation.columns)
            placeholders = ", ".join("?" * width)
            connection.executemany(
                f"INSERT INTO {_quoted(name)} VALUES ({placeholders})",
                [tuple(str(value) for value in row) for row in relation.rows],
            )
        connection.commit()

    # -- live updates ------------------------------------------------------------

    def apply_delta(self, delta: "ShredDelta") -> None:
        """Apply a shred delta as DELETE/INSERT batches in one transaction.

        Deletes match full rows (every column in the ``WHERE`` clause —
        shredded rows are unique per relation, so this removes exactly one
        row each); inserts reuse the bulk-load path.  Any SQLite failure
        rolls the whole transaction back, so the loaded tables never expose
        a half-applied mutation.  The in-memory :class:`Database` the
        backend was built from is kept in sync afterwards: it is the
        recovery source when the backend is rebuilt in a fresh process.
        Every connection drops the shared tables it built from the old rows
        at its next use.
        """
        from repro.live.delta import apply_delta_to_database

        connection = self._conn()
        with obs.span(
            "apply_delta",
            backend=self.name,
            relations=len(delta.relations()),
            rows_deleted=delta.delete_count(),
            rows_inserted=delta.insert_count(),
        ):
            # Validate against (and update) the Python-side database first:
            # a delta that does not apply cleanly there must not reach SQLite.
            apply_delta_to_database(self._database, delta)
            try:
                cursor = connection.cursor()
                if not connection.in_transaction:
                    cursor.execute("BEGIN")
                for name in delta.relations():
                    columns = self._database.schema.relation(name).columns
                    removals = delta.deletes.get(name, frozenset())
                    if removals:
                        predicate = " AND ".join(
                            f"{_quoted(column)} = ?" for column in columns
                        )
                        cursor.executemany(
                            f"DELETE FROM {_quoted(name)} WHERE {predicate}",
                            [tuple(str(value) for value in row) for row in removals],
                        )
                    additions = delta.inserts.get(name, frozenset())
                    if additions:
                        placeholders = ", ".join("?" * len(columns))
                        cursor.executemany(
                            f"INSERT INTO {_quoted(name)} VALUES ({placeholders})",
                            [tuple(str(value) for value in row) for row in additions],
                        )
                connection.commit()
            except sqlite3.Error as exc:
                connection.rollback()
                raise ExecutionError(f"sqlite delta application failed: {exc}") from exc
            # After the commit: a table created from the old rows must never
            # be recorded under the new version.
            with self._lock:
                self._version += 1

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
                if target not in self._database:
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
        cursor = self._conn().cursor()
        created: List[str] = []
        explained: List[Tuple[str, List[str]]] = []
        try:
            for assignment, statement in zip(pruned.assignments, statements):
                explained.append((assignment.target, self._query_plan(cursor, statement)))
                cursor.execute(statement)
                created.append(assignment.target)
            explained.append(("<result>", self._query_plan(cursor, statements[-1])))
        except sqlite3.Error as exc:
            raise ExecutionError(f"sqlite explain failed: {exc}") from exc
        finally:
            self._drop_temporaries(cursor, created)
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
        """Run a prepared plan on this thread's connection: the shared tables
        the connection lacks, then the result SELECT.

        ``temporaries_evaluated`` counts the tables this call created and
        ``temporaries_reused`` the ones the connection already held.
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
        """Execute a rendered plan on this thread's connection.

        Drops the connection's stale shared tables, creates the plan's
        tables the connection lacks and fetches the result.  Returns
        ``(columns, rows, elapsed, created)``: the result's column names,
        its fetched rows, the time spent in the translated statements alone
        and the number of tables created.  Dropping stale tables is backend
        bookkeeping, and timing it would bias every memory-vs-sqlite
        comparison the backend axis exists to make.
        """
        state = self._state()
        cursor = state.connection.cursor()
        elapsed = 0.0
        created = 0
        try:
            self._drop_stale(state, cursor)
            for target, table, statement in zip(plan.targets, plan.tables, plan.statements):
                if table in state.tables:
                    continue
                with obs.span("sql-statement", target=target):
                    start = time.perf_counter()
                    cursor.execute(statement)
                    elapsed += time.perf_counter() - start
                state.tables.add(table)
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

    def _drop_stale(self, state: _Connection, cursor: sqlite3.Cursor) -> None:
        """Drop ``state``'s tables built before the last delta, and the ones
        no live prepared plan uses any more."""
        version = self._version
        if state.version != version:
            stale = list(state.tables)
        else:
            # Read without the shared table's lock: ``users`` reaches 0 only
            # as its entry leaves the table, and a left entry never returns.
            stale = [table for table in state.tables if not table.users]
        for table in stale:
            cursor.execute(f"DROP TABLE IF EXISTS temp.{_quoted(table.name)}")
            state.tables.discard(table)
        state.version = version

    @staticmethod
    def _drop_temporaries(cursor: sqlite3.Cursor, names: List[str]) -> None:
        for name in names:
            try:
                cursor.execute(f"DROP TABLE IF EXISTS temp.{_quoted(name)}")
            except sqlite3.Error:
                # Best-effort teardown: a failed DROP (e.g. close() raced an
                # in-flight query on another thread) must not mask the real
                # error; temp tables die with the connection anyway.
                break
