"""The in-memory backend: an adapter over the columnar executor."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro import obs
from repro.backends.base import Backend, BackendResult
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids a cycle)
    from repro.live.delta import ShredDelta
from repro.relational.algebra import Program
from repro.relational.columnar import ColumnarDatabase, ColumnarExecutor
from repro.relational.database import Database
from repro.relational.schema import T
from repro.relational.sqlgen import SQLDialect

__all__ = ["MemoryBackend"]


class MemoryBackend(Backend):
    """Execute programs on the columnar engine of ``repro.relational``.

    Every plan runs on :class:`~repro.relational.columnar.ColumnarExecutor`,
    the batched operator-at-a-time engine over dictionary-encoded column
    arrays, whatever the size of the database.  The backend builds and
    keeps its own :class:`~repro.relational.columnar.ColumnarDatabase`,
    which encodes each base relation on its first read, so a relation no
    plan reads is never encoded.  Temporaries stay in the store's shared
    table, in full or for the origins an answer reached (see
    :class:`~repro.relational.columnar.ColumnarExecutor`), for the next plan
    that needs them; registration warms a store by executing its warm-up
    queries (:meth:`repro.service.QueryService.warm`).

    Every :meth:`execute` call builds a fresh executor over the store, so
    concurrent calls from many threads are lock-free reads — there is no
    shared mutable state outside the append-only columnar store.  The
    database is immutable outside :meth:`apply_delta`, which is the one
    sanctioned mutation route; a database mutated behind the backend's back
    no longer matches the store's version, and queries raise
    :class:`~repro.errors.ExecutionError` instead of silently re-encoding.
    A pickled backend ships its database and builds a new store on load.

    Parameters
    ----------
    database:
        The shredded database to execute over.
    """

    name = "memory"
    dialect = SQLDialect.GENERIC

    def __init__(self, database: Database) -> None:
        super().__init__(database)
        self._store = ColumnarDatabase(database)

    def __reduce__(self):
        # The store is derived from the database (and holds locks).
        return type(self), (self._database,)

    def apply_delta(self, delta: "ShredDelta") -> None:
        """Mutate the backing :class:`Database` in place from a delta.

        Each touched relation is replaced via ``set_relation``, which bumps
        the database version.  When the store still matches the pre-delta
        version it is patched in place — the shared value dictionary and
        every untouched relation's encoding (and memoized join structures)
        survive — instead of being thrown away and re-encoded from scratch.
        A store the database moved past outside this route is encoded
        again.  This is the one sanctioned way to mutate a registered
        document's database.
        """
        from repro.live.delta import apply_delta_to_database

        with obs.span(
            "apply_delta",
            backend=self.name,
            relations=len(delta.relations()),
            rows_deleted=delta.delete_count(),
            rows_inserted=delta.insert_count(),
        ):
            current = self._store.version == self._database.version
            apply_delta_to_database(self._database, delta)
            if current:
                self._store.apply_delta(delta)
            else:
                self._store = ColumnarDatabase(self._database)

    def execute(self, program: Program) -> BackendResult:
        """Run ``program`` and read the answer from the still-encoded result.

        Only the result's distinct ``T`` codes are decoded; no result row is.
        """
        with obs.span("execute", backend=self.name) as sp:
            store = self._store
            if store.version != self._database.version:
                raise ExecutionError(
                    "database mutated since its store was encoded (version "
                    f"{self._database.version} != encoded {store.version}); "
                    "route mutations through Backend.apply_delta so derived "
                    "state stays consistent"
                )
            executor = ColumnarExecutor(store)
            relation = executor.run_encoded(program)
            codes = relation.column(relation.column_index(T))
            node_ids = store.dictionary.decode_distinct(codes)
            stats: Dict[str, float] = executor.stats.as_dict()
            stats["rows"] = len(relation)
            sp.set(
                rows=len(relation),
                temporaries_evaluated=executor.stats.temporaries_evaluated,
                temporaries_reused=executor.stats.temporaries_reused,
                temporaries_demanded=executor.stats.temporaries_demanded,
                temporaries_demanded_reused=executor.stats.temporaries_demanded_reused,
            )
        return BackendResult(self.name, node_ids, stats)
