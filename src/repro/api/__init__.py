"""``repro.api`` — the single supported public entry point of the library.

Three objects make up the surface:

* :class:`EngineConfig` — one frozen, validating, JSON-round-trippable
  configuration object carrying every engine knob (strategy, optimizer
  level, backend, lowering options, cache sizing);
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

from repro._support import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.api.config": ("EngineConfig",),
        "repro.api.engine": ("Engine", "Session", "QueryResult"),
        "repro.errors": (
            "ReproError",
            "ConfigError",
            "SessionError",
            "SessionClosedError",
            "UnknownDocumentError",
            "DuplicateDocumentError",
        ),
    },
)
