"""Pluggable execution backends for translated programs.

Two implementations ship today:

* :class:`~repro.backends.memory.MemoryBackend` — the pure-Python
  columnar engine of ``repro.relational``; every in-process execution
  route, :class:`~repro.core.pipeline.XPathToSQLTranslator` and the GAV
  views included, runs through it;
* :class:`~repro.backends.sqlite.SqliteBackend` — real execution on SQLite
  via the ``SQLITE`` SQL dialect (``WITH RECURSIVE`` for the LFP operator).

Use :func:`create_backend` to instantiate one by name; the registry is the
single point future backends (DuckDB, Postgres, sharded execution) hook
into.  Cross-backend correctness is checked by
:class:`repro.fuzz.DifferentialOracle`, which answers every case on every
backend of its engine grid against the XPath evaluator (``repro diff``
replays the workload queries through it).
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.backends.base import Backend, BackendResult, PreparedProgram
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SqliteBackend, sqlite_schema_ddl
from repro.relational.database import Database
from repro.relational.sqlgen import SQLDialect

__all__ = [
    "Backend",
    "BackendResult",
    "PreparedProgram",
    "MemoryBackend",
    "SqliteBackend",
    "BACKENDS",
    "backend_names",
    "backend_dialect",
    "create_backend",
    "sqlite_schema_ddl",
]

# Registry of available backends, keyed by the name used in CLI flags.
BACKENDS: Dict[str, Type[Backend]] = {
    MemoryBackend.name: MemoryBackend,
    SqliteBackend.name: SqliteBackend,
}


def backend_names() -> List[str]:
    """Names of all registered backends (sorted, for CLI choices)."""
    return sorted(BACKENDS)


def _backend_class(name: str) -> Type[Backend]:
    try:
        return BACKENDS[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise ValueError(f"unknown backend {name!r} (known: {known})") from None


def backend_dialect(name: str) -> SQLDialect:
    """The SQL dialect the backend registered under ``name`` executes.

    This is the dialect :meth:`repro.api.Engine.sql` renders in unless the
    caller names one — each backend declares it once on the class.
    """
    return _backend_class(name).dialect


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
    return _backend_class(name)(database)
