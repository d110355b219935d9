"""Columnar, operator-at-a-time execution of relational programs.

The tuple executor (:mod:`repro.relational.executor`) walks Python sets of
tuples one row at a time — the slow idiom for an interpreter, because every
row pays the full dispatch cost.  This module keeps the *algebra* (every
``algebra.py`` node type, with identical result sets and error behaviour)
but changes the *representation*:

* **Dictionary encoding** — every value (node ids, text values, tags) is
  interned once in a shared :class:`ValueDictionary`, so all columns are
  flat lists of small ints and equality on codes is equality on values.
* **Columnar relations** — a :class:`ColumnarRelation` holds parallel
  column arrays (one Python list of codes per column), a row set, or
  both.  Operators read their input in the form it was produced in:
  grouping, adjacency and semijoin passes iterate a row-set relation's
  rows directly, and only passes that work column-wise (selection's
  index vectors) ask for the column arrays.
* **Batched operators** — :class:`ColumnarExecutor` evaluates each
  operator over a whole relation at once: selections narrow an index
  vector, projections gather + dedupe through one ``set(zip(...))`` call,
  composes/joins are hash joins over row tuples grouped by key, and the
  fixpoint operators run per-origin breadth-first search over an adjacency
  map built once per base relation (the semi-naive frontier collapses to
  int-set reachability).  Recursive unions batch the frontier per
  iteration, grouped by tag code.

The executor is selected with ``EngineConfig(executor="columnar")`` (the
default) or ``"tuple"`` (the original engine, kept as the differential
oracle's baseline arm); ``tests/properties/test_executor_equivalence.py``
asserts node-for-node equivalence between the two.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import threading
import time
import weakref
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import (
    Callable,
    Deque,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import obs
from repro.errors import ExecutionError, SchemaError
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
    rename_scans,
)
from repro.relational.database import Database
from repro.relational.executor import ExecutionStats
from repro.relational.relation import Relation
from repro.relational.schema import F, NODE_COLUMNS, PRE, SIZE, T, V

__all__ = [
    "EXECUTOR_NAMES",
    "DEFAULT_EXECUTOR",
    "COLUMNAR_MIN_ROWS",
    "ValueDictionary",
    "ColumnarRelation",
    "TemporaryEntry",
    "ColumnarDatabase",
    "ColumnarExecutor",
    "columnar_store",
    "executor_names",
]

#: Registered executor names, in preference order.  ``columnar`` is the
#: default engine; ``tuple`` is the original row-at-a-time executor, kept
#: as the oracle/baseline arm.
EXECUTOR_NAMES: Tuple[str, ...] = ("columnar", "tuple")
DEFAULT_EXECUTOR = "columnar"

#: Below this many total base-relation rows, dictionary-encoding a cold
#: store costs more than an entire tuple-executor run over the raw sets.
#: Callers that resolve ``executor="columnar"`` (the memory backend, the
#: pipeline) fall back to the tuple engine for such tiny cold documents
#: instead of paying the encoding just to throw it away.
COLUMNAR_MIN_ROWS = 64

_TAG_COLUMNS = (F, T, V, "TAG")


def executor_names() -> List[str]:
    """Names of all executors (sorted, for CLI choices)."""
    return sorted(EXECUTOR_NAMES)


class ValueDictionary:
    """A shared value-interning dictionary: value ⇄ dense int code.

    Shredded databases mix ints (node ids) and strings (text values, tags,
    the ``'_'`` sentinels); encoding everything through one dictionary makes
    every column a flat list of ints where code equality is value equality.
    The dictionary is append-only: reads are lock-free (safe under the GIL),
    writes take a lock so concurrent backends sharing one store cannot hand
    two values the same code.
    """

    __slots__ = ("_codes", "_values", "_lock")

    def __init__(self) -> None:
        self._codes: Dict[object, int] = {}
        self._values: List[object] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def encode(self, value: object) -> int:
        """Intern ``value`` and return its code (stable for the dictionary's life)."""
        code = self._codes.get(value)
        if code is not None:
            return code
        with self._lock:
            code = self._codes.get(value)
            if code is None:
                code = len(self._values)
                self._values.append(value)
                self._codes[value] = code
            return code

    def encode_column(self, values: Iterable[object]) -> List[int]:
        """Encode a whole column (one lookup per value, interning misses)."""
        get = self._codes.get
        encode = self.encode
        out: List[int] = []
        append = out.append
        for value in values:
            code = get(value)
            append(code if code is not None else encode(value))
        return out

    def decode(self, code: int) -> object:
        """The value behind ``code``."""
        return self._values[code]

    def decode_rows(self, rows: Iterable[Tuple[int, ...]]) -> Set[Tuple]:
        """Decode a set of code rows back into value rows."""
        values = self._values
        return {tuple(map(values.__getitem__, row)) for row in rows}


class ColumnarRelation:
    """A relation stored as parallel column arrays of dictionary codes.

    Either representation — a tuple of per-column code lists (``cols``) or a
    set of code-tuple rows (``rows``) — can seed the relation.  Operators
    that scan a relation read whichever form exists through
    :meth:`iter_rows` and :meth:`column`, which build nothing; :meth:`cols`
    and :meth:`rows` derive the other form (one ``itemgetter`` pass per
    column, or one ``zip``) and cache it, for passes that need that form.
    Relations are immutable once built; the constructors take ownership of
    the containers they are handed.

    ``memo`` attaches derived structures (hash-join groupings, fixpoint
    adjacency maps) to the relation they describe, and they live as long as
    the relation.  A base relation lives as long as its
    :class:`ColumnarDatabase`; a materialized temporary lives in the store's
    shared table for as long as some live program uses it (see
    :meth:`ColumnarDatabase.temps_for`).  Either way, every query over the
    store that reads the relation reuses its memos.
    """

    __slots__ = ("columns", "name", "_cols", "_rows", "_memo")

    def __init__(
        self,
        columns: Sequence[str],
        cols: Optional[Sequence[List[int]]] = None,
        rows: Optional[Set[Tuple[int, ...]]] = None,
        name: str = "",
    ) -> None:
        self.columns: Tuple[str, ...] = tuple(columns)
        self.name = name
        if cols is None and rows is None:
            rows = set()
        if cols is not None and len(cols) != len(self.columns):
            raise SchemaError(
                f"relation {name or '<anonymous>'} has {len(self.columns)} "
                f"columns but got {len(cols)} column arrays"
            )
        self._cols: Optional[Tuple[List[int], ...]] = (
            None if cols is None else tuple(cols)
        )
        self._rows: Optional[Set[Tuple[int, ...]]] = rows
        self._memo: Dict[object, object] = {}

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        cols = self._cols
        return len(cols[0]) if cols else 0

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"ColumnarRelation{label}(columns={list(self.columns)}, rows={len(self)})"
        )

    def column_index(self, column: str) -> int:
        """Position of ``column``; raises :class:`SchemaError` if absent."""
        try:
            return self.columns.index(column)
        except ValueError:
            raise SchemaError(
                f"relation {self.name or '<anonymous>'} has no column {column!r} "
                f"(columns: {list(self.columns)})"
            ) from None

    def cols(self) -> Tuple[List[int], ...]:
        """The column arrays (derived from the row set on first use).

        Each column is one ``itemgetter`` pass over the set; an unchanged
        set iterates in the same order every time, so the columns stay
        row-aligned.
        """
        if self._cols is None:
            rows = self._rows
            self._cols = tuple(
                list(map(itemgetter(index), rows)) if rows else []
                for index in range(len(self.columns))
            )
        return self._cols

    def has_rows(self) -> bool:
        """Whether the row-set form exists (produced or already derived)."""
        return self._rows is not None

    def iter_rows(self) -> Iterable[Tuple[int, ...]]:
        """Every row once, read from whichever form exists; caches nothing."""
        if self._rows is not None:
            return self._rows
        return zip(*self._cols)

    def column(self, index: int) -> Iterable[int]:
        """The codes of column ``index``, read from whichever form exists.

        Row-aligned with :meth:`iter_rows` and with every other
        ``column`` of the relation; caches nothing.
        """
        if self._cols is not None:
            return self._cols[index]
        return map(itemgetter(index), self._rows)

    def rows(self) -> Set[Tuple[int, ...]]:
        """The row set (derived from the column arrays on first use).

        The returned set is the relation's own cache — treat it as
        read-only.
        """
        if self._rows is None:
            cols = self._cols or ()
            self._rows = set(zip(*cols)) if cols and cols[0] else set()
        return self._rows

    def memo(self, key: object, build: Callable[[], object]) -> object:
        """Return the cached structure under ``key``, building it on a miss."""
        value = self._memo.get(key)
        if value is None:
            value = build()
            self._memo[key] = value
        return value


class TemporaryEntry:
    """One temporary in a store's shared table (see :meth:`ColumnarDatabase.temps_for`).

    ``key`` is the temporary's canonical expression, ``relation`` its
    materialized value (``None`` until a run evaluates it) and ``users`` the
    number of live programs whose namespace holds the entry.  Entries compare
    and hash by identity, so a canonical key can name the temporaries it
    reads by their entries.
    """

    __slots__ = ("key", "relation", "users")

    def __init__(self, key: RAExpr) -> None:
        self.key = key
        self.relation: Optional[ColumnarRelation] = None
        self.users = 0

    def __str__(self) -> str:
        # How keys that read this entry print: its own key, braced.
        return f"{{{self.key}}}"

    def __repr__(self) -> str:
        state = "empty" if self.relation is None else f"rows={len(self.relation)}"
        return f"TemporaryEntry({self}, {state}, users={self.users})"


class ColumnarDatabase:
    """A :class:`~repro.relational.database.Database` encoded columnarly.

    Every base relation is dictionary-encoded once (all relations share one
    :class:`ValueDictionary`), and the identity relation ``R_id`` is built
    once and cached — the tuple executor rebuilds it per executor instance.
    The store snapshots the database's version counter; :func:`columnar_store`
    rebuilds stale stores after ``set_relation`` mutations.

    The store also keeps one table of materialized temporaries for every
    :class:`~repro.relational.algebra.Program` run against it, keyed by each
    temporary's canonical expression — see :meth:`temps_for`.  Plans that
    compute the same closure (the paper's lowering emits the same fixpoints
    over the same edge relations for many queries over one DTD) share one
    entry, so the store evaluates it once; a cached plan that runs again
    resolves its temporaries from the table and pays only the result
    expression plus decoding.  An entry lives while some program that uses
    it lives (the plan cache bounds those), and :meth:`apply_delta` drops
    the whole table.
    """

    def __init__(self, database: Database) -> None:
        self._database = database
        self._version = database.version
        self._dictionary = ValueDictionary()
        self._relations: Dict[str, ColumnarRelation] = {}
        self._identity: Optional[ColumnarRelation] = None
        # The shared temporary table and each live program's view of it.
        # ``_lock`` guards both; a program's weakref callback only queues
        # its release on ``_released`` and applies it if the lock is free,
        # because the callback can run inside ``temps_for`` on the thread
        # that holds the lock (see ``_drain``).
        self._entries: Dict[RAExpr, TemporaryEntry] = {}
        self._views: Dict[int, Tuple[weakref.ref, Dict[str, TemporaryEntry]]] = {}
        self._lock = threading.Lock()
        self._released: Deque[
            Tuple[int, weakref.ref, Tuple[TemporaryEntry, ...]]
        ] = collections.deque()
        encode = self._dictionary.encode_column
        for name in database:
            relation = database.relation(name)
            cols = tuple(
                encode(map(itemgetter(index), relation.rows))
                for index in range(len(relation.columns))
            )
            self._relations[name] = ColumnarRelation(
                relation.columns, cols=cols, name=name
            )

    @property
    def database(self) -> Database:
        """The underlying row database this store encodes."""
        return self._database

    @property
    def version(self) -> int:
        """The database version this store was encoded from."""
        return self._version

    @property
    def dictionary(self) -> ValueDictionary:
        """The shared value dictionary."""
        return self._dictionary

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def relation(self, name: str) -> ColumnarRelation:
        """The encoded base relation named ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def identity(self) -> ColumnarRelation:
        """The identity relation ``R_id`` (built once, cached).

        One ``(v, v, v.val)`` triple per node, assembled from the schema's
        node relations with a C-level ``zip`` over the T/V columns.
        """
        if self._identity is None:
            rows: Set[Tuple[int, ...]] = set()
            for name in self._database.schema.node_relations:
                relation = self._relations.get(name)
                if relation is None:
                    continue
                cols = relation.cols()
                t_col = cols[relation.column_index(T)]
                v_col = cols[relation.column_index(V)]
                rows.update(zip(t_col, t_col, v_col))
            self._identity = ColumnarRelation(NODE_COLUMNS, rows=rows, name="R_id")
        return self._identity

    def apply_delta(self, delta: object, version: int) -> None:
        """Patch the encoding in place from a live-update row delta.

        ``delta`` is duck-typed (:class:`repro.live.delta.ShredDelta`): two
        mappings ``deletes`` / ``inserts`` from relation name to sets of
        value rows.  Only the touched relations are re-materialized — the
        shared dictionary is append-only so every existing code stays valid,
        and untouched relations keep their encodings *and* their memoized
        join structures.  The identity relation is rebuilt only when a node
        relation changed, and the shared temporary table is dropped
        wholesale (its entries may read any relation).  ``version`` is the
        database version counter after the delta was applied to the row
        store; adopting it keeps :func:`columnar_store` returning this
        patched store instead of re-encoding from scratch.

        Relations where the delta is as large as the relation itself (the
        common case for ``DOC_ORDER``, whose pre/post numbers shift globally
        on any structural edit) are re-encoded wholesale from the row store
        — encoding ``n`` final rows beats encoding ``2n`` delta rows on top
        of a full set copy.
        """
        encode = self._dictionary.encode
        deletes: Mapping[str, Iterable[Tuple]] = delta.deletes  # type: ignore[attr-defined]
        inserts: Mapping[str, Iterable[Tuple]] = delta.inserts  # type: ignore[attr-defined]
        node_relations = set(self._database.schema.node_relations)
        for name in set(deletes) | set(inserts):
            old = self._relations.get(name)
            if old is None:
                continue
            delete_rows = deletes.get(name, ())
            insert_rows = inserts.get(name, ())
            if len(delete_rows) + len(insert_rows) >= len(old):
                current = self._database.relation(name)
                rows = {tuple(map(encode, row)) for row in current.rows}
            else:
                rows = set(old.rows())
                for row in delete_rows:
                    rows.discard(tuple(map(encode, row)))
                for row in insert_rows:
                    rows.add(tuple(map(encode, row)))
            self._relations[name] = ColumnarRelation(old.columns, rows=rows, name=name)
            if name in node_relations:
                self._identity = None
        with self._locked():
            # Dropping the views drops their weakrefs, so the callbacks of
            # the programs they served never fire against the new table.
            self._entries.clear()
            self._views.clear()
        self._version = version

    def temps_for(self, program: Program) -> Dict[str, TemporaryEntry]:
        """``program``'s temporaries on this store: name → shared table entry.

        The store encodes an immutable snapshot of the database and a
        prepared :class:`~repro.relational.algebra.Program` is itself
        immutable, so a temporary materialized against this store is valid
        for as long as both live — and so is any temporary of any program
        computed the same way.  On a program's first call the store
        canonicalizes it once: each assignment's expression, with every
        temporary it reads renamed to that temporary's entry
        (:func:`~repro.relational.algebra.rename_scans`), is looked up in
        the table, and equal keys share one entry.  A temporary that shadows
        a base relation or is read before its assignment is renamed to a
        fresh placeholder instead, so keys that read it are never shared.

        Each entry counts the live programs that use it.  When a program is
        garbage-collected (the plan cache evicted it), a weakref callback
        releases its entries, and an entry no live program uses leaves the
        table — so the table never holds more than the per-program
        namespaces it replaced.  :meth:`apply_delta` drops the whole table.
        """
        program_id = id(program)
        record = self._views.get(program_id)
        if record is not None and record[0]() is program:
            return record[1]
        with self._locked():
            record = self._views.get(program_id)
            if record is not None and record[0]() is program:
                view = record[1]
            else:
                view = self._canonicalize(program)
                entries = tuple(set(view.values()))
                for entry in entries:
                    entry.users += 1
                store = weakref.ref(self)

                def release(ref: weakref.ref) -> None:
                    owner = store()
                    if owner is not None:
                        owner._released.append((program_id, ref, entries))
                        owner._drain()

                self._views[program_id] = (weakref.ref(program, release), view)
        return view

    def shared_temporaries(self) -> Tuple[TemporaryEntry, ...]:
        """A snapshot of the entries in the shared temporary table."""
        with self._locked():
            entries = tuple(self._entries.values())
        return entries

    def _canonicalize(self, program: Program) -> Dict[str, TemporaryEntry]:
        """Map each temporary of ``program`` to its table entry (lock held)."""
        renames: Dict[str, Hashable] = {name: object() for name in program.temporaries()}
        view: Dict[str, TemporaryEntry] = {}
        for assignment in program.assignments:
            name = assignment.target
            if name in view:
                continue  # the first assignment of a name is the one that runs
            key = rename_scans(assignment.expression, renames)
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = TemporaryEntry(key)
            view[name] = entry
            if name not in self._relations:
                renames[name] = entry
        return view

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """Hold the table lock, then apply the releases queued meanwhile."""
        try:
            with self._lock:
                yield
        finally:
            self._drain()

    def _drain(self) -> None:
        """Apply queued releases, unless another frame holds the lock.

        Every frame that takes the lock goes through :meth:`_locked`, which
        drains after letting go, so a release queued meanwhile is never
        stranded.
        """
        released = self._released
        while released and self._lock.acquire(blocking=False):
            try:
                while released:
                    program_id, ref, entries = released.popleft()
                    record = self._views.get(program_id)
                    if record is not None and record[0] is ref:
                        del self._views[program_id]
                    for entry in entries:
                        entry.users -= 1
                        if not entry.users and self._entries.get(entry.key) is entry:
                            del self._entries[entry.key]
            finally:
                self._lock.release()


def columnar_store(database: Database) -> ColumnarDatabase:
    """The (cached) columnar encoding of ``database``.

    The store is stashed on the database object and rebuilt whenever the
    database's version counter moved (``set_relation`` bumps it), so callers
    sharing one shredded document — the memory backend, the pipeline, every
    fuzz-grid arm — share one encoding and its warm caches.
    """
    store = getattr(database, "_columnar_store", None)
    if (
        not isinstance(store, ColumnarDatabase)
        or store.database is not database
        or store.version != database.version
    ):
        store = ColumnarDatabase(database)
        database._columnar_store = store  # type: ignore[attr-defined]
    return store


class _Scope:
    """What one run resolves names through: the program, its entries in the
    store's shared table, and the temporaries this run already resolved."""

    __slots__ = ("program", "shared", "resolved")

    def __init__(
        self, program: Optional[Program], shared: Mapping[str, TemporaryEntry]
    ) -> None:
        self.program = program
        self.shared = shared
        self.resolved: Dict[str, ColumnarRelation] = {}


class ColumnarExecutor:
    """Evaluate relational-algebra programs operator-at-a-time over columns.

    Mirrors :class:`~repro.relational.executor.Executor`'s public surface —
    ``run``/``evaluate``/``stats``, lazy (top-down) or eager assignment
    evaluation, identical :class:`~repro.errors.ExecutionError`/
    :class:`~repro.errors.SchemaError` behaviour — but executes each
    operator as a batched pass over encoded columns.  ``run`` returns a
    decoded :class:`~repro.relational.relation.Relation`, so callers cannot
    tell the executors apart except by speed.

    ``stats`` is an :class:`~repro.relational.executor.ExecutionStats` and
    is reset at the start of every ``run`` (per-run numbers).  Each operator
    evaluation is wrapped in an ``op.<type>`` obs span and feeds the
    ``executor.batch_rows`` histogram with its output batch size.
    """

    def __init__(self, database: "Database | ColumnarDatabase", lazy: bool = True) -> None:
        if isinstance(database, ColumnarDatabase):
            self._store = database
        else:
            self._store = columnar_store(database)
        self._lazy = lazy
        self.stats = ExecutionStats()
        self._batch_rows = obs.registry().histogram("executor.batch_rows")

    # -- public API -------------------------------------------------------------

    def run(self, program: Program) -> Relation:
        """Execute a program and return the (decoded) result relation.

        Temporaries resolve through the store's shared table
        (:meth:`ColumnarDatabase.temps_for`): one already materialized —
        by an earlier run of this plan or by any plan that computes it the
        same way — is taken from the table and counted in
        ``stats.temporaries_reused``; only the rest are evaluated (and
        published to the table) and counted in
        ``stats.temporaries_evaluated``.  A warm re-run of a cached plan
        evaluates none.
        """
        self.stats.reset()
        start = time.perf_counter()
        scope = _Scope(program, self._store.temps_for(program))
        if not self._lazy:
            for assignment in program.assignments:
                if assignment.target not in scope.resolved:
                    self._temporary(assignment.target, scope)
        result = self._evaluate(program.result, scope)
        decoded = self._decode(result)
        self.stats.elapsed_seconds += time.perf_counter() - start
        return decoded

    def evaluate(self, expr: RAExpr) -> Relation:
        """Evaluate a standalone expression (no temporaries in scope)."""
        return self._decode(self._evaluate(expr, _Scope(None, {})))

    # -- internals --------------------------------------------------------------

    def _decode(self, relation: ColumnarRelation) -> Relation:
        rows = self._store.dictionary.decode_rows(relation.rows())
        return Relation._from_parts(relation.columns, rows, name=relation.name)

    def _resolve_scan(self, name: str, scope: _Scope) -> ColumnarRelation:
        relation = scope.resolved.get(name)
        if relation is not None:
            return relation
        if name in self._store:
            return self._store.relation(name)
        entry = scope.shared.get(name)
        if entry is None or (entry.relation is None and not self._lazy):
            raise ExecutionError(f"unknown relation {name!r}")
        return self._temporary(name, scope)

    def _temporary(self, name: str, scope: _Scope) -> ColumnarRelation:
        """Temporary ``name``: taken from its table entry, or evaluated and
        published there."""
        entry = scope.shared[name]
        relation = entry.relation
        if relation is None:
            # Runs on two threads may both evaluate an entry; their results
            # are equal, so whichever is published last is as good.
            expression = scope.program.expression_for(name)  # type: ignore[union-attr]
            relation = entry.relation = self._evaluate(expression, scope)
            self.stats.temporaries_evaluated += 1
        else:
            self.stats.temporaries_reused += 1
        scope.resolved[name] = relation
        return relation

    def _evaluate(self, expr: RAExpr, scope: _Scope) -> ColumnarRelation:
        if isinstance(expr, Scan):
            return self._resolve_scan(expr.name, scope)
        handler = self._HANDLERS.get(type(expr))
        if handler is None:
            raise ExecutionError(f"unknown relational expression {expr!r}")
        with obs.span(self._SPAN_NAMES[type(expr)]) as sp:
            relation = handler(self, expr, scope)
            if sp:
                sp.set(rows=len(relation))
        self._batch_rows.observe(len(relation))
        return relation

    # -- operators ---------------------------------------------------------------

    def _identity(self, expr, scope) -> ColumnarRelation:
        return self._store.identity()

    def _empty(self, expr, scope) -> ColumnarRelation:
        return ColumnarRelation(NODE_COLUMNS)

    def _select(self, expr: Select, scope) -> ColumnarRelation:
        relation = self._evaluate(expr.input, scope)
        cols = relation.cols()
        encode = self._store.dictionary.encode
        keep: Optional[List[int]] = None
        for condition in expr.conditions:
            column = cols[relation.column_index(condition.column)]
            code = encode(condition.value)
            if condition.op == "=":
                if keep is None:
                    keep = [i for i, c in enumerate(column) if c == code]
                else:
                    keep = [i for i in keep if column[i] == code]
            elif condition.op == "!=":
                if keep is None:
                    keep = [i for i, c in enumerate(column) if c != code]
                else:
                    keep = [i for i in keep if column[i] != code]
            else:
                raise ExecutionError(f"unsupported condition operator {condition.op!r}")
        if keep is None:
            return relation
        gathered = tuple([column[i] for i in keep] for column in cols)
        return ColumnarRelation(relation.columns, cols=gathered)

    def _project(self, expr: Project, scope) -> ColumnarRelation:
        relation = self._evaluate(expr.input, scope)
        indexes = [relation.column_index(c) for c in expr.columns]
        out_columns = expr.aliases if expr.aliases else expr.columns
        if len(out_columns) != len(expr.columns):
            raise SchemaError("projection aliases must match projected columns")
        if indexes:
            rows = set(zip(*(relation.column(i) for i in indexes)))
        else:
            rows = {()} if len(relation) else set()
        self.stats.tuples_materialized += len(rows)
        return ColumnarRelation(out_columns, rows=rows)

    def _tag_project(self, expr: TagProject, scope) -> ColumnarRelation:
        relation = self._evaluate(expr.input, scope)
        fi, ti, vi = (relation.column_index(c) for c in (F, T, V))
        tag_code = self._store.dictionary.encode(expr.tag)
        rows = set(
            zip(
                relation.column(fi),
                relation.column(ti),
                relation.column(vi),
                itertools.repeat(tag_code, len(relation)),
            )
        )
        return ColumnarRelation(_TAG_COLUMNS, rows=rows)

    @staticmethod
    def _group_rows(
        relation: ColumnarRelation, key_index: int
    ) -> Dict[int, List[Tuple[int, ...]]]:
        """The relation's row tuples, bucketed by the key column's code.

        Buckets hold the row tuples themselves, not a new pair per row, so
        they are distinct because the relation's rows are.
        """

        def build() -> Dict[int, List[Tuple[int, ...]]]:
            groups: Dict[int, List[Tuple[int, ...]]] = {}
            for row in relation.iter_rows():
                key = row[key_index]
                bucket = groups.get(key)
                if bucket is None:
                    groups[key] = bucket = []
                bucket.append(row)
            return groups

        return relation.memo(("rows-by", key_index), build)  # type: ignore[return-value]

    def _compose(self, expr: Compose, scope) -> ColumnarRelation:
        left = self._evaluate(expr.left, scope)
        if not len(left):
            return ColumnarRelation(NODE_COLUMNS)
        right = self._evaluate(expr.right, scope)
        if not len(right):
            return ColumnarRelation(NODE_COLUMNS)
        lf, lt = left.column_index(F), left.column_index(T)
        rf, rt, rv = (right.column_index(c) for c in (F, T, V))
        # Hash join: the right side grouped by the join key (memoized, so a
        # base relation is grouped once per store, and the fixpoints reuse
        # that grouping), probed with each row of the left side.
        rows: Set[Tuple[int, ...]] = set()
        add = rows.add
        get_matches = self._group_rows(right, rf).get
        for row in left.iter_rows():
            matches = get_matches(row[lt])
            if matches:
                origin = row[lf]
                for match in matches:
                    add((origin, match[rt], match[rv]))
        self.stats.join_output_rows += len(rows)
        return ColumnarRelation(NODE_COLUMNS, rows=rows)

    def _equijoin(self, expr: EquiJoin, scope) -> ColumnarRelation:
        left = self._evaluate(expr.left, scope)
        right = self._evaluate(expr.right, scope)
        left_idx = left.column_index(expr.left_column)
        right_idx = right.column_index(expr.right_column)
        out_columns = tuple(alias for _, _, alias in expr.output)
        pickers = [
            (side == "L", (left if side == "L" else right).column_index(column))
            for side, column, _ in expr.output
        ]
        index: Dict[int, List[Tuple[int, ...]]] = {}
        for match in right.rows():
            index.setdefault(match[right_idx], []).append(match)
        rows: Set[Tuple[int, ...]] = set()
        add = rows.add
        get = index.get
        for row in left.rows():
            matches = get(row[left_idx])
            if matches:
                for match in matches:
                    add(
                        tuple(
                            row[i] if is_left else match[i] for is_left, i in pickers
                        )
                    )
        self.stats.join_output_rows += len(rows)
        return ColumnarRelation(out_columns, rows=rows)

    def _semijoin(self, expr, scope, keep_matching: bool) -> ColumnarRelation:
        left = self._evaluate(expr.left, scope)
        if not len(left):
            return ColumnarRelation(left.columns)
        right = self._evaluate(expr.right, scope)
        keys = set(right.column(right.column_index(expr.right_column)))
        index = left.column_index(expr.left_column)
        if left.has_rows():
            if keep_matching:
                rows = {row for row in left.rows() if row[index] in keys}
            else:
                rows = {row for row in left.rows() if row[index] not in keys}
            return ColumnarRelation(left.columns, rows=rows)
        cols = left.cols()
        column = cols[index]
        if keep_matching:
            keep = [i for i, c in enumerate(column) if c in keys]
        else:
            keep = [i for i, c in enumerate(column) if c not in keys]
        gathered = tuple([col[i] for i in keep] for col in cols)
        return ColumnarRelation(left.columns, cols=gathered)

    def _semi(self, expr: SemiJoin, scope) -> ColumnarRelation:
        return self._semijoin(expr, scope, keep_matching=True)

    def _anti(self, expr: AntiJoin, scope) -> ColumnarRelation:
        return self._semijoin(expr, scope, keep_matching=False)

    def _union(self, expr: Union, scope) -> ColumnarRelation:
        relations = [self._evaluate(child, scope) for child in expr.inputs]
        non_empty = [rel for rel in relations if rel.columns]
        if not non_empty:
            return ColumnarRelation(NODE_COLUMNS)
        columns = non_empty[0].columns
        rows: Set[Tuple[int, ...]] = set()
        for rel in non_empty:
            if rel.columns != columns:
                raise SchemaError(
                    f"union over mismatched columns {rel.columns} vs {columns}"
                )
            rows.update(rel.iter_rows())
        self.stats.union_output_rows += len(rows)
        return ColumnarRelation(columns, rows=rows)

    def _difference(self, expr: Difference, scope) -> ColumnarRelation:
        left = self._evaluate(expr.left, scope)
        right = self._evaluate(expr.right, scope)
        return ColumnarRelation(left.columns, rows=left.rows() - right.rows())

    def _intersect(self, expr: Intersect, scope) -> ColumnarRelation:
        left = self._evaluate(expr.left, scope)
        right = self._evaluate(expr.right, scope)
        return ColumnarRelation(left.columns, rows=left.rows() & right.rows())

    # -- fixpoints ---------------------------------------------------------------
    #
    # The tuple executor iterates a pair frontier: each round extends every
    # (origin, node, value) tuple along the edges.  Over codes the same
    # fixpoint factors into per-origin reachability — reach(a) over the
    # F→T adjacency of the base, emitting (a, t, v) for every base row
    # (b, t, v) with b ∈ reach(a) — which visits each (origin, node) pair
    # once instead of once per extension path.

    @classmethod
    def _adjacency(
        cls, relation: ColumnarRelation, from_index: int, to_index: int
    ) -> Dict[int, List[int]]:
        """``from`` code -> its ``to`` codes, read off :meth:`_group_rows`.

        A target may repeat in a list when rows share an edge but differ
        elsewhere; :meth:`_reach` visits each node once regardless.
        """

        def build() -> Dict[int, List[int]]:
            pick = itemgetter(to_index)
            return {
                source: list(map(pick, bucket))
                for source, bucket in cls._group_rows(relation, from_index).items()
            }

        return relation.memo(("adjacency", from_index, to_index), build)  # type: ignore[return-value]

    @staticmethod
    def _reach(start: int, adjacency: Dict[int, List[int]]) -> Set[int]:
        """All codes reachable from ``start`` (inclusive) over ``adjacency``."""
        seen = {start}
        stack = [start]
        pop = stack.pop
        push = stack.append
        get = adjacency.get
        while stack:
            node = pop()
            targets = get(node)
            if targets:
                for target in targets:
                    if target not in seen:
                        seen.add(target)
                        push(target)
        return seen

    def _fixpoint(self, expr: Fixpoint, scope) -> ColumnarRelation:
        base = self._evaluate(expr.base, scope)
        fi, ti, vi = (base.column_index(c) for c in (F, T, V))
        if expr.target_anchor is not None and expr.source_anchor is None:
            return self._fixpoint_backward(expr, base, fi, ti, vi, scope)

        adjacency = self._adjacency(base, fi, ti)
        out_rows = self._group_rows(base, fi)
        if expr.source_anchor is not None:
            anchor = self._evaluate(expr.source_anchor, scope)
            allowed = set(anchor.column(anchor.column_index(T)))
            origins = [origin for origin in out_rows if origin in allowed]
        else:
            origins = list(out_rows)

        result: Set[Tuple[int, ...]] = set()
        update = result.update
        get_rows = out_rows.get
        for origin in origins:
            self.stats.fixpoint_iterations += 1
            for node in self._reach(origin, adjacency):
                matches = get_rows(node)
                if matches:
                    update((origin, match[ti], match[vi]) for match in matches)
        self.stats.tuples_materialized += len(result)
        return ColumnarRelation(NODE_COLUMNS, rows=result)

    def _fixpoint_backward(
        self, expr: Fixpoint, base: ColumnarRelation, fi, ti, vi, scope
    ) -> ColumnarRelation:
        anchor = self._evaluate(expr.target_anchor, scope)
        allowed = set(anchor.column(anchor.column_index(F)))
        reverse = self._adjacency(base, ti, fi)

        # Seed rows are the base rows whose T lands in the anchor; group
        # their (t, v) payloads by source so each distinct source runs one
        # ancestor search.
        seeds: Dict[int, Set[Tuple[int, int]]] = {}
        for row in base.iter_rows():
            if row[ti] in allowed:
                source = row[fi]
                bucket = seeds.get(source)
                if bucket is None:
                    seeds[source] = bucket = set()
                bucket.add((row[ti], row[vi]))

        result: Set[Tuple[int, ...]] = set()
        update = result.update
        for source, payload in seeds.items():
            self.stats.fixpoint_iterations += 1
            ancestors = self._reach(source, reverse)
            for ancestor in ancestors:
                update((ancestor, target, value) for target, value in payload)
        self.stats.tuples_materialized += len(result)
        return ColumnarRelation(NODE_COLUMNS, rows=result)

    def _interval_join(self, expr: IntervalJoin, scope) -> ColumnarRelation:
        left = self._evaluate(expr.left, scope)
        if not len(left):
            return ColumnarRelation(NODE_COLUMNS)
        right = self._evaluate(expr.right, scope)
        if not len(right):
            return ColumnarRelation(NODE_COLUMNS)
        order = self._evaluate(expr.order, scope)
        decode = self._store.dictionary.decode

        def build_intervals() -> Dict[int, Tuple[int, int]]:
            # Node code -> (pre, size), decoded once: the window arithmetic
            # needs the integer ranks, not their dictionary codes.
            return {
                t: (int(decode(p)), int(decode(s)))
                for t, p, s in zip(
                    order.column(order.column_index(T)),
                    order.column(order.column_index(PRE)),
                    order.column(order.column_index(SIZE)),
                )
            }

        interval = order.memo("ivj-intervals", build_intervals)

        def build_targets() -> Tuple[List[int], List[Tuple[int, int, int]]]:
            ordered = sorted(
                (interval[t][0], t, v)
                for t, v in zip(
                    right.column(right.column_index(T)),
                    right.column(right.column_index(V)),
                )
                if t in interval
            )
            return [pre for pre, _, _ in ordered], ordered

        pres, targets = right.memo(("ivj-targets", order.name), build_targets)
        rows: Set[Tuple[int, ...]] = set()
        add = rows.add
        get = interval.get
        for ancestor in set(left.column(left.column_index(T))):
            window = get(ancestor)
            if window is None:
                continue
            pre, size = window
            lo = bisect_right(pres, pre)
            hi = bisect_left(pres, pre + size + 1)
            for _, node, value in targets[lo:hi]:
                add((ancestor, node, value))
        self.stats.join_output_rows += len(rows)
        return ColumnarRelation(NODE_COLUMNS, rows=rows)

    def _recursive_union(self, expr: RecursiveUnion, scope) -> ColumnarRelation:
        init = self._evaluate(expr.init, scope)
        if tuple(init.columns) != _TAG_COLUMNS:
            raise SchemaError(
                f"recursive union init must have columns {_TAG_COLUMNS}, "
                f"got {init.columns}"
            )
        encode = self._store.dictionary.encode
        steps = []
        for step in expr.steps:
            relation = self._evaluate(step.relation, scope)
            rf, rt, rv = (relation.column_index(c) for c in (F, T, V))
            steps.append(
                (
                    encode(step.parent_tag),
                    encode(step.child_tag),
                    self._group_rows(relation, rf),
                    rt,
                    rv,
                )
            )

        # Semi-naive: each iteration extends only the tuples discovered in
        # the previous one, with the frontier batched per parent tag.  (The
        # tuple executor deliberately re-scans the whole accumulated
        # relation each round — the SQL'99 cost model; the fixpoint is the
        # same set either way.)
        result: Set[Tuple[int, ...]] = set(init.iter_rows())
        frontier = result
        while frontier:
            self.stats.recursive_union_iterations += 1
            by_tag: Dict[int, List[Tuple[int, int]]] = {}
            for origin, node, _value, tag in frontier:
                by_tag.setdefault(tag, []).append((origin, node))
            new: Set[Tuple[int, ...]] = set()
            add = new.add
            for parent_tag, child_tag, groups, rt, rv in steps:
                frontier_rows = by_tag.get(parent_tag)
                if not frontier_rows:
                    continue
                produced = 0
                get_rows = groups.get
                for origin, node in frontier_rows:
                    extensions = get_rows(node)
                    if extensions:
                        for match in extensions:
                            candidate = (origin, match[rt], match[rv], child_tag)
                            if candidate not in result:
                                add(candidate)
                                produced += 1
                self.stats.join_output_rows += produced
            result |= new
            frontier = new
        self.stats.tuples_materialized += len(result)
        return ColumnarRelation(_TAG_COLUMNS, rows=result)

    #: Operator dispatch (Scan is resolved before dispatch; see _evaluate).
    _HANDLERS: Dict[type, Callable] = {
        IdentityRelation: _identity,
        EmptyRelation: _empty,
        Select: _select,
        Project: _project,
        TagProject: _tag_project,
        Compose: _compose,
        EquiJoin: _equijoin,
        SemiJoin: _semi,
        AntiJoin: _anti,
        Union: _union,
        Difference: _difference,
        Intersect: _intersect,
        Fixpoint: _fixpoint,
        RecursiveUnion: _recursive_union,
        IntervalJoin: _interval_join,
    }

    _SPAN_NAMES: Dict[type, str] = {
        node_type: f"op.{node_type.__name__.lower()}" for node_type in _HANDLERS
    }
