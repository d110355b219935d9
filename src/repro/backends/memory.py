"""The in-memory backend: an adapter over the columnar executor."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro import obs
from repro.backends.base import Backend, BackendResult

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
    database the backend is built from is read, never written:
    :meth:`apply_delta` changes the store alone, and a ``set_relation`` on
    the database afterwards changes no answer.  A pickled backend ships the
    store's current rows and builds a new store on load.

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
        # The store holds locks: ship its rows, deltas included.
        return type(self), (self._store.snapshot(),)

    def apply_delta(self, delta: "ShredDelta") -> None:
        """Patch the store in place, after checking the whole delta (see
        :meth:`~repro.relational.columnar.ColumnarDatabase.apply_delta`)."""
        with obs.span(
            "apply_delta",
            backend=self.name,
            relations=len(delta.relations()),
            rows_deleted=delta.delete_count(),
            rows_inserted=delta.insert_count(),
        ):
            self._store.apply_delta(delta)

    def execute(self, program: Program) -> BackendResult:
        """Run ``program`` and read the answer from the still-encoded result.

        Only the result's distinct ``T`` codes are decoded; no result row is.
        """
        with obs.span("execute", backend=self.name) as sp:
            store = self._store
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
