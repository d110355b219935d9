"""Pluggable execution backends for translated programs.

Two implementations ship today:

* :class:`~repro.backends.memory.MemoryBackend` — the pure-Python
  columnar engine of ``repro.relational``; every in-process execution
  route, :class:`~repro.service.QueryService` on its default backend and
  the GAV views included, runs through it;
* :class:`~repro.backends.sqlite.SqliteBackend` — real execution on SQLite
  via the ``SQLITE`` SQL dialect (``WITH RECURSIVE`` for the LFP operator).

Use :func:`create_backend` to instantiate one by name; the registry is the
single point future backends (DuckDB, Postgres, sharded execution) hook
into.  Cross-backend correctness is checked by
:class:`repro.fuzz.DifferentialOracle`, which answers every case on every
backend of its engine grid against the XPath evaluator (``repro diff``
replays the workload queries through it).

Importing the package loads no engine.  Each backend class, and
:data:`BACKENDS` with all of them, loads on first access, so a process
that serves one backend never compiles the other (the memory engine's
columnar executor, or ``sqlite3``).
"""

from __future__ import annotations

from typing import List, Type

from repro._support import lazy_exports
from repro.backends.base import Backend, BackendResult, PreparedProgram
from repro.relational.database import Database
from repro.relational.sqlgen import SQLDialect

__all__ = [
    "Backend",
    "BackendResult",
    "PreparedProgram",
    "MemoryBackend",
    "SqliteBackend",
    "BACKENDS",
    "backend_class",
    "backend_names",
    "backend_dialect",
    "create_backend",
    "sqlite_schema_ddl",
]

# The registered backends: the name CLI flags and EngineConfig use -> the
# name this package exports the class under (see the lazy exports below).
_CLASS_NAMES = {"memory": "MemoryBackend", "sqlite": "SqliteBackend"}

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.backends.memory": ("MemoryBackend",),
        "repro.backends.sqlite": ("SqliteBackend", "sqlite_schema_ddl"),
        "repro.backends.registry": ("BACKENDS",),
    },
)


def backend_names() -> List[str]:
    """Names of all registered backends (sorted, for CLI choices).

    Loads no backend.
    """
    return sorted(_CLASS_NAMES)


def backend_class(name: str) -> Type[Backend]:
    """The class of the backend registered under ``name``, loading its module."""
    try:
        class_name = _CLASS_NAMES[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise ValueError(f"unknown backend {name!r} (known: {known})") from None
    return __getattr__(class_name)  # type: ignore[return-value]


def backend_dialect(name: str) -> SQLDialect:
    """The SQL dialect the backend registered under ``name`` executes.

    This is the dialect :meth:`repro.api.Engine.sql` renders in unless the
    caller names one — each backend declares it once on the class.
    """
    return backend_class(name).dialect


def create_backend(name: object, database: Database) -> Backend:
    """Instantiate a backend over ``database``.

    ``name`` is either a registered backend name or an
    :class:`~repro.api.EngineConfig` (anything with a ``backend``
    attribute), in which case the config's backend is used — the facade and
    service layers pass their config straight through.
    """
    name = getattr(name, "backend", name)
    if not isinstance(name, str):
        raise ValueError(f"backend must be a name or an EngineConfig, got {name!r}")
    return backend_class(name)(database)
