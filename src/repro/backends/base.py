"""The pluggable execution-backend interface.

A :class:`Backend` executes translated relational
:class:`~repro.relational.algebra.Program` objects over one shredded
document database and returns a :class:`BackendResult`: the result rows in
a *normalized* form (every value rendered as a string, set semantics) plus
execution statistics.  Normalization is what makes results comparable
across engines with different type systems — the in-memory engine stores
Python ints for node ids while SQLite's TEXT affinity hands back strings.

Backends are the seam future engines (DuckDB, Postgres, sharded/batched
execution) plug into: implement :meth:`Backend.execute`, register the class
in :data:`repro.backends.BACKENDS` and every consumer — the CLI ``answer
--backend`` flag, the experiment harness backend axis and the differential
test suite — picks it up.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, FrozenSet, Iterable, Mapping, Sequence, Set, Tuple

from repro import obs
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids a cycle)
    from repro.live.delta import ShredDelta
from repro.relational.algebra import Program
from repro.relational.database import Database
from repro.relational.schema import T
from repro.relational.sqlgen import SQLDialect

__all__ = [
    "BackendResult",
    "Backend",
    "PreparedProgram",
    "normalize_rows",
    "NormalizedRow",
]

NormalizedRow = Tuple[str, ...]


def normalize_rows(rows: Iterable[Sequence[object]]) -> FrozenSet[NormalizedRow]:
    """Render every value as a string and collapse duplicates.

    This is the canonical form differential comparison uses: the in-memory
    engine produces ``(5, 7, '_')`` where SQLite produces ``('5', '7', '_')``;
    both normalize to ``('5', '7', '_')``.
    """
    return frozenset(tuple(str(value) for value in row) for row in rows)


@dataclass(frozen=True)
class BackendResult:
    """The outcome of executing one program on one backend.

    Attributes
    ----------
    backend:
        Name of the backend that produced the result.
    columns:
        Ordered column names of the result relation.
    rows:
        Normalized result rows (tuples of strings, set semantics).
    stats:
        Execution counters; every backend reports at least ``rows`` and
        ``elapsed_seconds`` (wall time), which is what the benchmark
        harness consumes.
    """

    backend: str
    columns: Tuple[str, ...]
    rows: FrozenSet[NormalizedRow]
    stats: Mapping[str, float] = field(default_factory=dict)

    @property
    def row_count(self) -> int:
        """Number of distinct result rows."""
        return len(self.rows)

    def column_values(self, column: str) -> Set[str]:
        """The set of (normalized) values in ``column``."""
        index = self.columns.index(column)
        return {row[index] for row in self.rows}

    def node_ids(self) -> Set[str]:
        """The answer set: values of the ``T`` column (the matched node ids)."""
        return self.column_values(T)


@dataclass(frozen=True)
class PreparedProgram:
    """A program made ready for repeated execution on one backend.

    Preparation factors the per-plan work out of the per-call path: the
    program is pruned once, and backends attach whatever they can
    precompute in ``payload`` (the SQLite backend stores its rendered
    statement list so repeated calls skip SQL generation entirely).  A
    prepared program is immutable and carries no connection state, so one
    instance may be executed concurrently from many threads.
    """

    backend: str
    program: Program
    payload: object = None


class Backend(abc.ABC):
    """Executes translated programs over one database.

    Subclasses set :attr:`name` (the identifier used by ``--backend`` flags
    and the registry), :attr:`dialect` (the SQL dialect the backend's plans
    are rendered in — what :meth:`repro.api.Engine.sql` renders by
    default) and implement :meth:`execute`.  Backends that hold external
    resources (connections, files) override :meth:`close`; all backends
    support use as context managers.

    :attr:`process_affine` declares whether instances are bound to the
    process that created them.  Affine backends (SQLite: shared-cache
    in-memory URIs embed the pid, and connections cannot cross ``fork`` or
    ``spawn``) must be *rebuilt* inside each worker process rather than
    shipped; the multiprocess serving tier keys its worker initializers off
    this flag, and affine backends raise
    :class:`~repro.errors.ExecutionError` on any cross-process use.
    """

    name: str = "abstract"
    dialect: SQLDialect = SQLDialect.GENERIC
    #: True when instances must not cross a process boundary (see class doc).
    process_affine: bool = False

    def __init__(self, database: Database) -> None:
        self._database = database

    @property
    def database(self) -> Database:
        """The database this backend executes over."""
        return self._database

    @abc.abstractmethod
    def execute(self, program: Program) -> BackendResult:
        """Execute ``program`` and return the normalized result."""

    # -- prepared execution ------------------------------------------------------

    def prepare(self, program: Program) -> PreparedProgram:
        """Make ``program`` ready for repeated execution (prune once).

        The base implementation covers engines with nothing further to
        precompute; backends with a render or planning step override this.
        """
        with obs.span("prepare", backend=self.name):
            return PreparedProgram(backend=self.name, program=program.pruned())

    def execute_prepared(self, prepared: PreparedProgram) -> BackendResult:
        """Execute a prepared program (must be prepared for this backend)."""
        if prepared.backend != self.name:
            raise ValueError(
                f"program was prepared for backend {prepared.backend!r}, "
                f"cannot execute on {self.name!r}"
            )
        return self.execute(prepared.program)

    def answer_node_ids(self, program: Program) -> Set[str]:
        """Convenience: execute and return the matched node-id set."""
        return self.execute(program).node_ids()

    # -- live updates ------------------------------------------------------------

    def apply_delta(self, delta: "ShredDelta") -> None:
        """Apply a :class:`~repro.live.delta.ShredDelta` to the backing store.

        The sanctioned route for mutating a registered document: the delta
        (produced by :class:`~repro.live.mutations.DocumentMutator`) carries
        row-level inserts/deletes per base relation, and the backend updates
        whatever materialisation it owns so subsequent queries observe the
        post-mutation document.  Backends without incremental-update support
        keep the read-only default and raise.
        """
        raise ExecutionError(
            f"backend {self.name!r} does not support incremental deltas; "
            "re-register the document instead"
        )

    def close(self) -> None:
        """Release backend resources (no-op by default)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(database={self._database!r})"
