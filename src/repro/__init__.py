"""repro — a reproduction of "Query Translation from XPath to SQL in the Presence of Recursive DTDs".

The library translates XPath queries over (possibly recursive) DTDs into
sequences of SQL/relational-algebra queries that use only a simple
least-fixpoint operator, following Fan, Yu, Li, Ding and Qin (VLDB 2005 /
VLDB Journal 2009).  It ships every substrate the paper depends on — DTD
model and graphs, an XML generator and validator, an XPath evaluator, an
extended-XPath layer, a relational engine with the LFP operator, and
DTD-based shredding — plus the three translation strategies compared in the
paper's experiments (CycleEX, CycleE, SQLGen-R) and the experiment harness
that regenerates every table and figure.

Quickstart (the public facade)
------------------------------
>>> from repro import Engine, EngineConfig, generate_document
>>> from repro.dtd.samples import dept_dtd
>>> engine = Engine.from_dtd(dept_dtd(), EngineConfig(strategy="auto"))
>>> document = generate_document(engine.dtd, x_l=6, x_r=3, seed=1)
>>> with engine.open_session(document) as session:
...     projects = list(session.answer("dept//project"))

:class:`Engine`/:class:`Session`/:class:`EngineConfig` (see
:mod:`repro.api`) are the supported entry point; the lower layers
re-exported here remain available and take their configuration as one
:class:`EngineConfig` (``config=``), never as per-knob keyword arguments.
Every re-export is resolved on first access, so ``import repro`` loads
none of the layers until a name is used.
"""

from repro._support import lazy_exports

__version__ = "1.1.0"

# The complete supported public surface.  tests/api/test_public_surface.py
# snapshots this list (and CI imports the package and checks it), so growing
# the surface is an explicit, reviewed act — edit both places.
__all__ = [
    # -- the facade (preferred API) --
    "Engine",
    "Session",
    "EngineConfig",
    "QueryResult",
    "ReproError",
    "ConfigError",
    "SessionError",
    # -- schema/document substrate --
    "DTD",
    "parse_dtd",
    "parse_xpath",
    "generate_document",
    "shred_document",
    # -- translation layers --
    "XPathToSQLTranslator",
    "TranslationResult",
    "TranslationOptions",
    "DescendantStrategy",
    "SQLGenR",
    "SQLDialect",
    "GAVView",
    # -- execution backends --
    "Backend",
    "BackendResult",
    "MemoryBackend",
    "SqliteBackend",
    "create_backend",
    # -- fuzzing --
    "FuzzCase",
    "FuzzConfig",
    "DifferentialOracle",
    "run_fuzz",
    # -- serving --
    "PlanCache",
    "QueryService",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.api.config": ("EngineConfig",),
        "repro.api.engine": ("Engine", "QueryResult", "Session"),
        "repro.errors": ("ConfigError", "ReproError", "SessionError"),
        "repro.backends": (
            "Backend",
            "BackendResult",
            "MemoryBackend",
            "SqliteBackend",
            "create_backend",
        ),
        "repro.core.expath_to_sql": ("TranslationOptions",),
        "repro.core.pipeline": ("TranslationResult", "XPathToSQLTranslator"),
        "repro.core.sqlgen_r": ("SQLGenR",),
        "repro.core.xpath_to_expath": ("DescendantStrategy",),
        "repro.dtd.model": ("DTD",),
        "repro.dtd.parser": ("parse_dtd",),
        "repro.fuzz.cases": ("FuzzCase",),
        "repro.fuzz.harness": ("FuzzConfig", "run_fuzz"),
        "repro.fuzz.oracle": ("DifferentialOracle",),
        "repro.relational.sqlgen": ("SQLDialect",),
        "repro.service": ("PlanCache", "QueryService"),
        "repro.shredding.shredder": ("shred_document",),
        "repro.views.gav": ("GAVView",),
        "repro.xmltree.generator": ("generate_document",),
        "repro.xpath.parser": ("parse_xpath",),
    },
)
