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
* **Demand-driven temporaries** — an evaluation may carry a *demand*, the
  set of ``F`` codes its caller will read.  The program's root selection
  ``SELECT[F = '_']`` seeds it and composes pass their left side's ``T``
  codes on to their right side, so a temporary with no full result in the
  store's shared table is computed only for the origins an answer can
  reach (the magic-set idea of Bancilhon, Maier, Sagiv and Ullman, PODS
  1986, applied at execution time; the programs do not change).

It is the only engine the memory backend runs, on every database size.
The tuple executor stays as the reference implementation:
``tests/properties/test_executor_equivalence.py`` asserts node-for-node
equivalence between the two.
"""

from __future__ import annotations

import itertools
import threading
import time
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
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
)
from repro.relational.database import Database, absent_rows_error
from repro.relational.stats import ExecutionStats
from repro.relational.relation import Relation
from repro.relational.schema import F, NODE_COLUMNS, PRE, SIZE, T, V
from repro.relational.temporaries import SharedEntry, SharedTemporaries

__all__ = [
    "ValueDictionary",
    "ColumnarRelation",
    "TemporaryEntry",
    "ColumnarDatabase",
    "ColumnarExecutor",
]

_TAG_COLUMNS = (F, T, V, "TAG")


class ValueDictionary:
    """A shared value-interning dictionary: value ⇄ dense int code.

    Shredded databases mix ints (node ids) and strings (text values, tags,
    the ``'_'`` sentinels); encoding everything through one dictionary makes
    every column a flat list of ints where code equality is value equality.
    The dictionary is append-only: reads are lock-free (safe under the GIL),
    writes take a lock so concurrent runs on one store cannot hand two
    values the same code.
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

    def lookup(self, value: object) -> Optional[int]:
        """The code of ``value``, or ``None`` if it was never interned."""
        return self._codes.get(value)

    def decode(self, code: int) -> object:
        """The value behind ``code``."""
        return self._values[code]

    def decode_rows(self, rows: Iterable[Tuple[int, ...]]) -> Set[Tuple]:
        """Decode a set of code rows back into value rows."""
        values = self._values
        return {tuple(map(values.__getitem__, row)) for row in rows}

    def decode_distinct(self, codes: Iterable[int]) -> List[object]:
        """The distinct values behind ``codes``, one lookup per distinct code."""
        return list(map(self._values.__getitem__, set(codes)))


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


class TemporaryEntry(SharedEntry):
    """One temporary in a store's shared table (see :meth:`ColumnarDatabase.temps_for`).

    Beside the canonical ``key`` and the count of live ``users``
    (:class:`~repro.relational.temporaries.SharedEntry`), ``relation`` is
    the full materialized value (``None`` until a run evaluates it in full)
    and ``demanded`` the results under a demand (a frozenset of ``F``
    codes -> exactly the rows of the full result with those ``F`` codes).
    A full result serves every demand, so publishing one drops the
    demanded results.
    """

    __slots__ = ("relation", "demanded")

    def __init__(self, key: RAExpr) -> None:
        super().__init__(key)
        self.relation: Optional[ColumnarRelation] = None
        self.demanded: Dict[FrozenSet[int], ColumnarRelation] = {}

    def __repr__(self) -> str:
        state = "empty" if self.relation is None else f"rows={len(self.relation)}"
        return (
            f"TemporaryEntry({self}, {state}, demanded={len(self.demanded)}, "
            f"users={self.users})"
        )


class ColumnarDatabase:
    """The memory engine's store: a database's base relations, encoded columnarly.

    The store is built from a :class:`~repro.relational.database.Database`
    and keeps that database's row sets, copying no row.  Each base relation
    lives in one form: its source value rows until its first read, then its
    dictionary codes (all relations share one :class:`ValueDictionary`), so
    a relation no plan reads — ``DOC_ORDER`` outside the interval strategy
    — is never encoded.  The identity relation ``R_id`` is built once and
    cached — the tuple executor rebuilds it per executor instance.
    :meth:`apply_delta` is the one route that changes the store's rows; a
    later ``set_relation`` on the database replaces the database's relation,
    not the store's, so it changes no answer.  :meth:`snapshot` reads the
    current rows back as a database.

    The store also keeps one table of materialized temporaries for every
    :class:`~repro.relational.algebra.Program` run against it, keyed by each
    temporary's canonical expression — see :meth:`temps_for`.  Plans that
    compute the same closure (the paper's lowering emits the same fixpoints
    over the same edge relations for many queries over one DTD) share one
    entry, so the store evaluates it once; a cached plan that runs again
    resolves its temporaries from the table and pays only the result
    expression.  An entry lives while some program that uses
    it lives (the plan cache bounds those), and :meth:`apply_delta` drops
    the whole table.
    """

    def __init__(self, database: Database) -> None:
        self._schema = database.schema
        # A relation's value rows until its first read encodes it.
        self._sources: Dict[str, Set[Tuple]] = {
            name: database.relation(name).rows for name in database
        }
        self._dictionary = ValueDictionary()
        self._relations: Dict[str, ColumnarRelation] = {}
        self._identity: Optional[ColumnarRelation] = None
        self._temporaries: SharedTemporaries[TemporaryEntry] = SharedTemporaries(
            self._schema.has_relation, TemporaryEntry
        )

    @property
    def dictionary(self) -> ValueDictionary:
        """The shared value dictionary."""
        return self._dictionary

    def __contains__(self, name: str) -> bool:
        return self._schema.has_relation(name)

    def relation(self, name: str) -> ColumnarRelation:
        """The encoded base relation named ``name`` (encoded on first read)."""
        relation = self._relations.get(name)
        if relation is not None:
            return relation
        columns = self._schema.relation(name).columns  # SchemaError if unknown
        source = self._sources.get(name)
        if source is None:  # another thread encoded it since the first lookup
            return self._relations[name]
        encode = self._dictionary.encode_column
        cols = tuple(encode(map(itemgetter(i), source)) for i in range(len(columns)))
        # Two threads may encode one relation; both encodings are equal,
        # and every reader keeps the first one published.
        relation = self._relations.setdefault(
            name, ColumnarRelation(columns, cols=cols, name=name)
        )
        self._sources.pop(name, None)
        return relation

    def identity(self) -> ColumnarRelation:
        """The identity relation ``R_id`` (built once, cached).

        One ``(v, v, v.val)`` triple per node, assembled from the schema's
        node relations with a C-level ``zip`` over the T/V columns.
        """
        if self._identity is None:
            rows: Set[Tuple[int, ...]] = set()
            for name in self._schema.node_relations:
                relation = self.relation(name)
                cols = relation.cols()
                t_col = cols[relation.column_index(T)]
                v_col = cols[relation.column_index(V)]
                rows.update(zip(t_col, t_col, v_col))
            self._identity = ColumnarRelation(NODE_COLUMNS, rows=rows, name="R_id")
        return self._identity

    def snapshot(self) -> Database:
        """A :class:`Database` of the store's current rows (a copy)."""
        database = Database(self._schema)
        for name in self._schema.relation_names:
            rows = self._sources.get(name)
            if rows is None:  # encoded, and published before its source was dropped
                rows = self._dictionary.decode_rows(self._relations[name].iter_rows())
            database.set_relation(name, Relation(self._schema.relation(name).columns, rows))
        return database

    def apply_delta(self, delta: object) -> None:
        """Apply a live-update row delta to the store: all of it, or none.

        ``delta`` is duck-typed (:class:`repro.live.delta.ShredDelta`): two
        mappings ``deletes`` / ``inserts`` from relation name to sets of
        value rows.  Every relation it touches is checked before any
        changes: a delete of an absent row raises
        :class:`~repro.errors.ExecutionError`, and an encoded relation's
        rows are looked up without interning a value.  Then an encoded
        relation's codes are patched (the shared dictionary is append-only,
        so every existing code stays valid) and a relation not encoded yet
        gets a new source row set, left to its first read.  Untouched
        relations keep their encodings *and* their memoized join
        structures.  The identity relation is rebuilt only when a node
        relation changed, and the shared temporary table, with every
        demanded result on its entries, is dropped wholesale (its entries
        may read any relation).
        """
        deletes: Mapping[str, Iterable[Tuple]] = delta.deletes  # type: ignore[attr-defined]
        inserts: Mapping[str, Iterable[Tuple]] = delta.inserts  # type: ignore[attr-defined]
        touched = set(deletes) | set(inserts)
        lookup = self._dictionary.lookup
        for name in touched:
            self._schema.relation(name)  # SchemaError if unknown
            encoded = self._relations.get(name)
            if encoded is None:
                present = self._sources[name]
                missing = [row for row in deletes.get(name, ()) if row not in present]
            else:
                present = encoded.rows()
                missing = [
                    row for row in deletes.get(name, ())
                    if tuple(map(lookup, row)) not in present
                ]
            if missing:
                raise absent_rows_error(name, len(missing), min(missing, key=repr))
        encode = self._dictionary.encode
        for name in touched:
            encoded = self._relations.get(name)
            if encoded is None:
                rows = self._sources[name].difference(deletes.get(name, ()))
                rows.update(inserts.get(name, ()))
                self._sources[name] = rows
            else:
                codes = set(encoded.rows())
                codes.difference_update(
                    tuple(map(lookup, row)) for row in deletes.get(name, ())
                )
                codes.update(tuple(map(encode, row)) for row in inserts.get(name, ()))
                self._relations[name] = ColumnarRelation(
                    encoded.columns, rows=codes, name=name
                )
        if touched.intersection(self._schema.node_relations):
            self._identity = None
        self._temporaries.clear()

    def temps_for(self, program: Program) -> Dict[str, TemporaryEntry]:
        """``program``'s temporaries on this store: name → shared table entry.

        The store's rows change only in :meth:`apply_delta`, which drops
        the whole table, and a prepared
        :class:`~repro.relational.algebra.Program` is immutable, so a
        temporary materialized against this store is valid for as long as
        the program lives — and so is any temporary of any program computed
        the same way.  Programs share entries by canonical expression, and
        an entry lives while some program that uses it lives
        (:meth:`SharedTemporaries.view
        <repro.relational.temporaries.SharedTemporaries.view>`).
        """
        return self._temporaries.view(program)

    def shared_temporaries(self) -> Tuple[TemporaryEntry, ...]:
        """A snapshot of the entries in the shared temporary table."""
        return self._temporaries.entries()


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

    Mirrors the lazy mode of :class:`~repro.relational.executor.Executor`
    — ``run``/``evaluate``/``stats``, top-down assignment evaluation,
    identical :class:`~repro.errors.ExecutionError`/
    :class:`~repro.errors.SchemaError` behaviour — but executes each
    operator as a batched pass over encoded columns.  ``run`` returns a
    decoded :class:`~repro.relational.relation.Relation`, so callers cannot
    tell the executors apart except by speed; :meth:`run_encoded` returns
    the same result still encoded, for callers that read only part of it.
    Given a :class:`~repro.relational.database.Database`, the executor
    encodes a store of its own; executors that should share encodings and
    temporaries are given one :class:`ColumnarDatabase`.

    Evaluation is demand-driven.  :meth:`_evaluate` takes an optional
    *demand*, the set of ``F`` codes its caller will read, and returns
    exactly the rows of the full result whose ``F`` code is in it — never a
    superset, so ``EXCEPT``, ``INTERSECT`` and anti-joins stay sound.
    ``SELECT[F = c]`` starts a demand (every translated program ends in
    ``SELECT[F = '_']``), and:

    * a demanded compose evaluates its left input under the demand and its
      right input under the left result's ``T`` codes — unless the right
      input is held in full (a base relation, ``R_id`` or a temporary with
      a full result), which is probed through its memoized ``F`` grouping;
    * unions, differences and intersections pass the demand to every input;
    * demanded semi- and anti-joins pass it to their left input, and the
      left's join codes to their right input when its join column is ``F``;
    * a forward fixpoint computes its base in full, so closure bases stay
      shared, and runs only the demanded origins; a backward one emits only
      the demanded ancestors;
    * base relations, ``R_id`` and full temporaries are restricted through
      their memoized ``F`` grouping, in O(demand + output);
    * every other operator evaluates its inputs in full and restricts its
      output.

    Without a demand everything runs in full, as the tuple executor does.

    ``stats`` is an :class:`~repro.relational.stats.ExecutionStats` and
    is reset at the start of every ``run`` (per-run numbers).  Each operator
    evaluation is wrapped in an ``op.<type>`` obs span and feeds the
    ``executor.batch_rows`` histogram with its output batch size.
    """

    def __init__(self, database: "Database | ColumnarDatabase") -> None:
        if isinstance(database, ColumnarDatabase):
            self._store = database
        else:
            self._store = ColumnarDatabase(database)
        self.stats = ExecutionStats()
        self._batch_rows = obs.registry().histogram("executor.batch_rows")

    # -- public API -------------------------------------------------------------

    def run(self, program: Program) -> Relation:
        """Execute a program and return the (decoded) result relation."""
        return self._decode(self.run_encoded(program))

    def run_encoded(self, program: Program) -> ColumnarRelation:
        """Execute a program and return the result relation, still encoded.

        Its codes decode through the store's
        :attr:`ColumnarDatabase.dictionary`.  Temporaries resolve through
        the store's shared table (:meth:`ColumnarDatabase.temps_for`): a
        result already there — full, or cached under the same demand by any
        plan that computes it the same way — is counted in
        ``stats.temporaries_reused``; only the rest are evaluated (and
        published to the table) and counted in
        ``stats.temporaries_evaluated``, with ``temporaries_demanded`` and
        ``temporaries_demanded_reused`` counting the demanded ones.  A warm
        re-run of a cached plan evaluates none.
        """
        self.stats.reset()
        start = time.perf_counter()
        scope = _Scope(program, self._store.temps_for(program))
        result = self._evaluate(program.result, scope)
        self.stats.elapsed_seconds += time.perf_counter() - start
        return result

    def evaluate(self, expr: RAExpr) -> Relation:
        """Evaluate a standalone expression (no temporaries in scope)."""
        return self._decode(self._evaluate(expr, _Scope(None, {})))

    # -- internals --------------------------------------------------------------

    def _decode(self, relation: ColumnarRelation) -> Relation:
        rows = self._store.dictionary.decode_rows(relation.rows())
        return Relation._from_parts(relation.columns, rows, name=relation.name)

    def _resolve_scan(
        self, name: str, scope: _Scope, demand: Optional[FrozenSet[int]]
    ) -> ColumnarRelation:
        relation = scope.resolved.get(name)
        if relation is None:
            if name not in self._store:
                if name not in scope.shared:
                    raise ExecutionError(f"unknown relation {name!r}")
                return self._temporary(name, scope, demand)
            relation = self._store.relation(name)
        return relation if demand is None else self._restrict(relation, demand)

    def _temporary(
        self, name: str, scope: _Scope, demand: Optional[FrozenSet[int]]
    ) -> ColumnarRelation:
        """Temporary ``name`` under ``demand``: taken from its table entry,
        or evaluated and published there.

        Runs on two threads may both evaluate an entry, or one demand of it;
        their results are equal, so whichever is published last is as good.
        """
        entry = scope.shared[name]
        stats = self.stats
        relation = entry.relation
        if relation is not None:
            stats.temporaries_reused += 1
            scope.resolved[name] = relation
            return relation if demand is None else self._restrict(relation, demand)
        if demand is not None:
            relation = entry.demanded.get(demand)
            if relation is not None:
                stats.temporaries_reused += 1
                stats.temporaries_demanded_reused += 1
                return relation
        expression = scope.program.expression_for(name)  # type: ignore[union-attr]
        relation = self._evaluate(expression, scope, demand)
        stats.temporaries_evaluated += 1
        if demand is None:
            entry.relation = relation
            entry.demanded = {}  # the full result serves every demand
            scope.resolved[name] = relation
        else:
            stats.temporaries_demanded += 1
            entry.demanded[demand] = relation
        return relation

    def _held_in_full(self, expr: RAExpr, scope: _Scope) -> bool:
        """Whether ``expr`` reads a relation the store holds in full: a base
        relation, ``R_id`` or a temporary with a full result."""
        if isinstance(expr, Scan):
            name = expr.name
            if name in scope.resolved or name in self._store:
                return True
            entry = scope.shared.get(name)
            return entry is not None and entry.relation is not None
        return isinstance(expr, IdentityRelation)

    def _restrict(
        self, relation: ColumnarRelation, demand: FrozenSet[int]
    ) -> ColumnarRelation:
        """The rows of ``relation`` whose ``F`` code is in ``demand``, read
        through its memoized ``F`` grouping: O(demand + output)."""
        get = self._group_rows(relation, relation.column_index(F)).get
        rows: Set[Tuple[int, ...]] = set()
        update = rows.update
        for code in demand:
            bucket = get(code)
            if bucket:
                update(bucket)
        return ColumnarRelation(relation.columns, rows=rows)

    def _evaluate(
        self, expr: RAExpr, scope: _Scope, demand: Optional[FrozenSet[int]] = None
    ) -> ColumnarRelation:
        """``expr``'s result: in full, or only its rows with ``F`` in ``demand``."""
        if isinstance(expr, Scan):
            return self._resolve_scan(expr.name, scope, demand)
        node_type = type(expr)
        handler = self._HANDLERS.get(node_type)
        if handler is None:
            raise ExecutionError(f"unknown relational expression {expr!r}")
        with obs.span(self._SPAN_NAMES[node_type]) as sp:
            if node_type in self._TAKES_DEMAND:
                relation = handler(self, expr, scope, demand)
            else:
                relation = handler(self, expr, scope)
                if demand is not None:
                    relation = self._restrict(relation, demand)
            if sp:
                sp.set(rows=len(relation))
                if demand is not None:
                    sp.set(demand=len(demand))
        self._batch_rows.observe(len(relation))
        return relation

    # -- operators ---------------------------------------------------------------

    def _identity(self, expr, scope) -> ColumnarRelation:
        return self._store.identity()

    def _empty(self, expr, scope) -> ColumnarRelation:
        return ColumnarRelation(NODE_COLUMNS)

    def _select(self, expr: Select, scope, demand) -> ColumnarRelation:
        # Each F = c condition narrows the demand instead of filtering: the
        # input then holds only rows that satisfy it.
        encode = self._store.dictionary.encode
        conditions = []
        for condition in expr.conditions:
            if condition.column == F and condition.op == "=":
                code = encode(condition.value)
                if demand is None or code in demand:
                    demand = frozenset((code,))
                else:
                    demand = frozenset()
            else:
                conditions.append(condition)
        relation = self._evaluate(expr.input, scope, demand)
        if not conditions:
            return relation
        cols = relation.cols()
        keep: Optional[List[int]] = None
        for condition in conditions:
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

    def _compose(self, expr: Compose, scope, demand) -> ColumnarRelation:
        left = self._evaluate(expr.left, scope, demand)
        if not len(left):
            return ColumnarRelation(NODE_COLUMNS)
        lf, lt = left.column_index(F), left.column_index(T)
        # Under a demand, only the right rows the left side ends at can join.
        right_demand = None
        if demand is not None and not self._held_in_full(expr.right, scope):
            right_demand = frozenset(left.column(lt))
        right = self._evaluate(expr.right, scope, right_demand)
        if not len(right):
            return ColumnarRelation(NODE_COLUMNS)
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

    def _semijoin(self, expr, scope, demand, keep_matching: bool) -> ColumnarRelation:
        left = self._evaluate(expr.left, scope, demand)
        if not len(left):
            return ColumnarRelation(left.columns)
        index = left.column_index(expr.left_column)
        # Under a demand, a right side joined on F is read only at the left
        # side's join codes: the only keys a left row can match.
        right_demand = None
        if demand is not None and expr.right_column == F:
            right_demand = frozenset(left.column(index))
        right = self._evaluate(expr.right, scope, right_demand)
        keys = set(right.column(right.column_index(expr.right_column)))
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

    def _semi(self, expr: SemiJoin, scope, demand) -> ColumnarRelation:
        return self._semijoin(expr, scope, demand, keep_matching=True)

    def _anti(self, expr: AntiJoin, scope, demand) -> ColumnarRelation:
        return self._semijoin(expr, scope, demand, keep_matching=False)

    def _union(self, expr: Union, scope, demand) -> ColumnarRelation:
        relations = [self._evaluate(child, scope, demand) for child in expr.inputs]
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

    def _difference(self, expr: Difference, scope, demand) -> ColumnarRelation:
        left = self._evaluate(expr.left, scope, demand)
        right = self._evaluate(expr.right, scope, demand)
        return ColumnarRelation(left.columns, rows=left.rows() - right.rows())

    def _intersect(self, expr: Intersect, scope, demand) -> ColumnarRelation:
        left = self._evaluate(expr.left, scope, demand)
        right = self._evaluate(expr.right, scope, demand)
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

    def _fixpoint(self, expr: Fixpoint, scope, demand) -> ColumnarRelation:
        base = self._evaluate(expr.base, scope)
        fi, ti, vi = (base.column_index(c) for c in (F, T, V))
        if expr.target_anchor is not None and expr.source_anchor is None:
            return self._fixpoint_backward(expr, base, fi, ti, vi, scope, demand)

        adjacency = self._adjacency(base, fi, ti)
        out_rows = self._group_rows(base, fi)
        if demand is None:
            origins = list(out_rows)
        else:
            origins = [origin for origin in demand if origin in out_rows]
        if expr.source_anchor is not None:
            anchor = self._evaluate(expr.source_anchor, scope)
            allowed = set(anchor.column(anchor.column_index(T)))
            origins = [origin for origin in origins if origin in allowed]

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
        self, expr: Fixpoint, base: ColumnarRelation, fi, ti, vi, scope, demand
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
            if demand is not None:
                ancestors &= demand
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

    #: The operators whose handlers take a demand and return exactly the
    #: demanded rows; ``_evaluate`` restricts the others' full output.
    _TAKES_DEMAND = frozenset(
        {Select, Compose, SemiJoin, AntiJoin, Union, Difference, Intersect, Fixpoint}
    )

    _SPAN_NAMES: Dict[type, str] = {
        node_type: f"op.{node_type.__name__.lower()}" for node_type in _HANDLERS
    }
