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
:mod:`repro.api`) are the supported entry point; the lower layers imported
below remain available and take their configuration as one
:class:`EngineConfig` (``config=``), never as per-knob keyword arguments.
"""

from repro.api import (
    ConfigError,
    Engine,
    EngineConfig,
    QueryResult,
    ReproError,
    Session,
    SessionError,
)
from repro.backends import Backend, BackendResult, MemoryBackend, SqliteBackend, create_backend
from repro.core.expath_to_sql import TranslationOptions
from repro.core.pipeline import TranslationResult, XPathToSQLTranslator, answer_xpath
from repro.fuzz import DifferentialOracle, FuzzCase, FuzzConfig, run_fuzz
from repro.core.sqlgen_r import SQLGenR
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.relational.sqlgen import SQLDialect
from repro.service import PlanCache, QueryService
from repro.shredding.shredder import shred_document
from repro.views.gav import GAVView
from repro.xmltree.generator import generate_document
from repro.xpath.parser import parse_xpath

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
    "answer_xpath",
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
