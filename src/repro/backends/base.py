"""The pluggable execution-backend interface.

A :class:`Backend` executes translated relational
:class:`~repro.relational.algebra.Program` objects over one shredded
document database and returns a :class:`BackendResult`: the answer, which
is the distinct node ids of the result's ``T`` column as ints in ascending
order, plus execution statistics.  Every backend reports its answer in
this one form — the in-memory engine stores Python ints for node ids while
SQLite's TEXT affinity hands back strings — so answers compare directly
across engines.

Backends are the seam future engines (DuckDB, Postgres, sharded/batched
execution) plug into: implement :meth:`Backend.execute`, register the class
in :data:`repro.backends.BACKENDS` and every consumer — the CLI ``answer
--backend`` flag, the experiment harness backend axis and the differential
test suite — picks it up.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Tuple

from repro import obs
from repro._support import Frozen
from repro.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids a cycle)
    from repro.live.delta import ShredDelta
from repro.relational.algebra import Program
from repro.relational.database import Database
from repro.relational.sqlgen import SQLDialect

__all__ = [
    "BackendResult",
    "Backend",
    "PreparedProgram",
]


class BackendResult(Frozen):
    """The outcome of executing one program on one backend.

    Attributes
    ----------
    backend:
        Name of the backend that produced the result.
    stats:
        Execution counters; every backend reports at least ``rows`` (the
        number of distinct result rows) and ``elapsed_seconds`` (wall
        time), which is what the benchmark harness consumes.

    The answer itself is read with :meth:`node_ids`.  The constructor takes
    the result's ``T`` values in any order and with repeats and fixes the
    answer's form once, here: distinct ints in ascending node-id order.
    """

    backend: str
    _node_ids: Tuple[int, ...]
    stats: Mapping[str, float]

    def __init__(
        self,
        backend: str,
        node_ids: Iterable[object],
        stats: Optional[Mapping[str, float]] = None,
    ) -> None:
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "_node_ids", tuple(sorted(set(map(int, node_ids)))))
        object.__setattr__(self, "stats", {} if stats is None else stats)

    def node_ids(self) -> Tuple[int, ...]:
        """The answer: the matched node ids, ascending.

        Node-id order is document order until an insert lands before
        existing siblings: inserted nodes take the next free id.
        """
        return self._node_ids


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
        """Execute ``program`` and return its answer and stats."""

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
