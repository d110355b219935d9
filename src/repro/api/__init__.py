"""``repro.api`` — the single supported public entry point of the library.

Three objects make up the surface:

* :class:`EngineConfig` — one frozen, validating, JSON-round-trippable
  configuration object carrying every engine knob (strategy, optimizer
  level, dialect, backend, lowering options, cache sizing);
* :class:`Engine` — a query engine over one DTD under one config:
  translate/``sql``/``explain`` plus :meth:`Engine.open_session`;
* :class:`Session` — a context-managed set of registered documents with
  ``answer``/``answer_batch``/``stream``/``explain``/``sql`` returning
  typed :class:`QueryResult` objects (lazy node materialization, plan
  metadata attached).

Everything below this facade (``repro.core``, ``repro.relational``,
``repro.backends`` internals, the CLI modules) is library-internal and may
change between releases; the facade and :mod:`repro.errors` are the stable
contract.  Errors raised here are rooted at
:class:`~repro.errors.ReproError`.

Example
-------
>>> from repro.api import Engine, EngineConfig
>>> from repro.dtd.samples import dept_dtd
>>> from repro.xmltree.generator import generate_document
>>> engine = Engine.from_dtd(dept_dtd(), EngineConfig(strategy="auto"))
>>> with engine.open_session(generate_document(engine.dtd, seed=1)) as session:
...     result = session.answer("dept//project")
...     _ = (len(result), result.plan.strategy)
"""

# NOTE: Engine/Session/QueryResult are exported lazily (PEP 562).  The
# engine module imports the service layer, which imports the translation
# pipeline, which imports ``repro.api.config`` — an eager import here would
# close that loop into a cycle.  ``repro.api.config`` itself is cycle-free
# and imported eagerly.
from repro.api.config import EngineConfig
from repro.errors import (
    ConfigError,
    DuplicateDocumentError,
    ReproError,
    SessionClosedError,
    SessionError,
    UnknownDocumentError,
)

__all__ = [
    "EngineConfig",
    "Engine",
    "Session",
    "QueryResult",
    "ReproError",
    "ConfigError",
    "SessionError",
    "SessionClosedError",
    "UnknownDocumentError",
    "DuplicateDocumentError",
]

_LAZY = {"Engine", "Session", "QueryResult"}


def __getattr__(name: str) -> object:
    if name in _LAZY:
        from repro.api import engine as _engine

        return getattr(_engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> "list[str]":
    return sorted(set(globals()) | _LAZY)
