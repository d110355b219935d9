"""The in-memory backend: an adapter over the relational executors."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro import obs
from repro.backends.base import Backend, BackendResult, normalize_rows
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids a cycle)
    from repro.live.delta import ShredDelta
from repro.relational.algebra import Program
from repro.relational.columnar import (
    COLUMNAR_MIN_ROWS,
    DEFAULT_EXECUTOR,
    EXECUTOR_NAMES,
    ColumnarExecutor,
    columnar_store,
)
from repro.relational.database import Database
from repro.relational.executor import Executor
from repro.relational.sqlgen import SQLDialect

__all__ = ["MemoryBackend"]


class MemoryBackend(Backend):
    """Execute programs on the pure-Python engines of ``repro.relational``.

    Two executors are available, selected by the ``executor`` option (the
    :attr:`~repro.api.EngineConfig.executor` knob):

    * ``columnar`` (default) — the batched operator-at-a-time engine of
      :mod:`repro.relational.columnar`.  The backend resolves the shared
      dictionary-encoded store up front, so the per-call path only pays for
      operator evaluation.  Databases smaller than
      :data:`~repro.relational.columnar.COLUMNAR_MIN_ROWS` rows are routed
      to the tuple engine instead: dictionary-encoding a handful of rows
      costs more than the batched operators save, which showed up as a
      ~0.9x cold-start regression on tiny fuzz documents (BENCH_6);
    * ``tuple`` — the original row-at-a-time hash-join/LFP engine, kept as
      the differential oracle's baseline arm.

    Every :meth:`execute` call builds a fresh executor over the database,
    so concurrent calls from many threads are lock-free reads — there is no
    shared mutable state outside the append-only columnar store.  The
    database is immutable outside :meth:`apply_delta`, which is the one
    sanctioned mutation route; a database mutated behind the backend's back
    trips the registration-version guard and queries raise
    :class:`~repro.errors.ExecutionError` instead of silently re-encoding.

    Parameters
    ----------
    database:
        The shredded database to execute over.
    lazy:
        Evaluation strategy: lazy/top-down (default, the paper's strategy)
        or eager assignment-by-assignment.
    executor:
        ``"columnar"`` or ``"tuple"`` (see above).
    """

    name = "memory"
    dialect = SQLDialect.GENERIC
    config_options = ("executor",)

    def __init__(
        self, database: Database, lazy: bool = True, executor: str = DEFAULT_EXECUTOR
    ) -> None:
        super().__init__(database)
        self._lazy = lazy
        if executor not in EXECUTOR_NAMES:
            known = ", ".join(sorted(EXECUTOR_NAMES))
            raise ValueError(f"unknown executor {executor!r} (known: {known})")
        self._executor_name = executor
        if executor == "columnar" and database.total_rows() >= COLUMNAR_MIN_ROWS:
            # Encode the store eagerly so the (amortised) dictionary-encoding
            # cost is paid at registration time, not on the first query.
            columnar_store(database)
        # Snapshot of database.version: queries refuse to run against a
        # database mutated behind the backend's back (see apply_delta).
        self._registered_version = database.version

    @property
    def executor(self) -> str:
        """The configured executor name (``columnar`` or ``tuple``)."""
        return self._executor_name

    def _use_columnar(self) -> bool:
        # Cold-start guard: below the threshold the tuple engine wins, and
        # skipping dictionary encoding entirely keeps tiny documents cheap.
        return (
            self._executor_name == "columnar"
            and self._database.total_rows() >= COLUMNAR_MIN_ROWS
        )

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
        from repro.relational.columnar import ColumnarDatabase

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
        with obs.span("execute", backend=self.name, executor=self._executor_name) as sp:
            self._check_not_stale()
            if self._use_columnar():
                executor = ColumnarExecutor(
                    columnar_store(self._database), lazy=self._lazy
                )
            else:
                executor = Executor(self._database, lazy=self._lazy)
            relation = executor.run(program)
            stats: Dict[str, float] = executor.stats.as_dict()
            stats["rows"] = len(relation)
            sp.set(
                rows=len(relation),
                temporaries_evaluated=executor.stats.temporaries_evaluated,
                temporaries_reused=executor.stats.temporaries_reused,
            )
        return BackendResult(
            backend=self.name,
            columns=tuple(relation.columns),
            rows=normalize_rows(relation.rows),
            stats=stats,
        )
