"""The in-memory backend: an adapter over the columnar executor."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro import obs
from repro.backends.base import Backend, BackendResult
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids a cycle)
    from repro.live.delta import ShredDelta
from repro.relational.algebra import Program
from repro.relational.columnar import ColumnarDatabase, ColumnarExecutor, columnar_store
from repro.relational.database import Database
from repro.relational.schema import T
from repro.relational.sqlgen import SQLDialect

__all__ = ["MemoryBackend"]


class MemoryBackend(Backend):
    """Execute programs on the columnar engine of ``repro.relational``.

    Every plan runs on :class:`~repro.relational.columnar.ColumnarExecutor`,
    the batched operator-at-a-time engine over dictionary-encoded column
    arrays, whatever the size of the database.  The backend encodes the
    shared store at construction, so the per-call path only pays for
    operator evaluation, and temporaries one plan computes are reused by
    the next plan that needs them.

    Every :meth:`execute` call builds a fresh executor over the store, so
    concurrent calls from many threads are lock-free reads — there is no
    shared mutable state outside the append-only columnar store.  The
    database is immutable outside :meth:`apply_delta`, which is the one
    sanctioned mutation route; a database mutated behind the backend's back
    trips the registration-version guard and queries raise
    :class:`~repro.errors.ExecutionError` instead of silently re-encoding.

    Parameters
    ----------
    database:
        The shredded database to execute over.
    """

    name = "memory"
    dialect = SQLDialect.GENERIC

    def __init__(self, database: Database) -> None:
        super().__init__(database)
        # Encode the store eagerly so the (amortised) dictionary-encoding
        # cost is paid at registration time, not on the first query.
        columnar_store(database)
        # Snapshot of database.version: queries refuse to run against a
        # database mutated behind the backend's back (see apply_delta).
        self._registered_version = database.version

    def apply_delta(self, delta: "ShredDelta") -> None:
        """Mutate the backing :class:`Database` in place from a delta.

        Each touched relation is replaced via ``set_relation``, which bumps
        the database version.  When the current columnar store still matches
        the pre-delta version it is patched in place — the shared value
        dictionary and every untouched relation's encoding (and memoized
        join structures) survive — instead of being thrown away and
        re-encoded from scratch on the next query.  The backend's own
        registration snapshot is resynced, so queries keep flowing — this is
        the one sanctioned way to mutate a registered document's database.
        """
        from repro.live.delta import apply_delta_to_database

        with obs.span(
            "apply_delta",
            backend=self.name,
            relations=len(delta.relations()),
            rows_deleted=delta.delete_count(),
            rows_inserted=delta.insert_count(),
        ):
            store = getattr(self._database, "_columnar_store", None)
            pre_version = self._database.version
            apply_delta_to_database(self._database, delta)
            if (
                isinstance(store, ColumnarDatabase)
                and store.database is self._database
                and store.version == pre_version
            ):
                store.apply_delta(delta, self._database.version)
            self._registered_version = self._database.version

    def _check_not_stale(self) -> None:
        if self._database.version != self._registered_version:
            raise ExecutionError(
                "database mutated since registration "
                f"(version {self._database.version} != registered "
                f"{self._registered_version}); route mutations through "
                "Backend.apply_delta so derived state stays consistent"
            )

    def execute(self, program: Program) -> BackendResult:
        """Run ``program`` and read the answer from the still-encoded result.

        Only the result's distinct ``T`` codes are decoded; no result row is.
        """
        with obs.span("execute", backend=self.name) as sp:
            self._check_not_stale()
            store = columnar_store(self._database)
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
            )
        return BackendResult(self.name, node_ids, stats)
