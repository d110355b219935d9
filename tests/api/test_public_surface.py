"""The public-API surface snapshot.

``repro.__all__`` (and ``repro.api.__all__``) are the supported surface;
this test pins them to the committed snapshots below so accidental surface
growth — a new re-export slipping into ``repro/__init__.py`` — fails CI
instead of silently becoming API.  Growing the surface is fine, but it is
an explicit act: update the snapshot here in the same change.

The configuration surface is pinned the same way: :class:`EngineConfig`'s
fields are the one configuration route, so the constructors and batch
entry points below take ``config=`` and no per-knob keyword arguments.  A
knob reappearing as a loose parameter fails here.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

import repro
import repro.api
from repro.api import EngineConfig, Session
from repro.backends.memory import MemoryBackend
from repro.core.pipeline import XPathToSQLTranslator, answer_xpath
from repro.service import QueryService

# The committed snapshot of the top-level surface.  Keep sorted.
PUBLIC_SURFACE = sorted(
    [
        "Backend",
        "BackendResult",
        "ConfigError",
        "DTD",
        "DescendantStrategy",
        "DifferentialOracle",
        "Engine",
        "EngineConfig",
        "FuzzCase",
        "FuzzConfig",
        "GAVView",
        "MemoryBackend",
        "PlanCache",
        "QueryResult",
        "QueryService",
        "ReproError",
        "SQLDialect",
        "SQLGenR",
        "Session",
        "SessionError",
        "SqliteBackend",
        "TranslationOptions",
        "TranslationResult",
        "XPathToSQLTranslator",
        "__version__",
        "answer_xpath",
        "create_backend",
        "generate_document",
        "parse_dtd",
        "parse_xpath",
        "run_fuzz",
        "shred_document",
    ]
)

# The committed snapshot of the facade package's surface.  Keep sorted.
API_SURFACE = sorted(
    [
        "ConfigError",
        "DuplicateDocumentError",
        "Engine",
        "EngineConfig",
        "QueryResult",
        "ReproError",
        "Session",
        "SessionClosedError",
        "SessionError",
        "UnknownDocumentError",
    ]
)

# The committed snapshot of EngineConfig's fields, in declaration order.
ENGINE_CONFIG_FIELDS = [
    "strategy",
    "optimize_level",
    "dialect",
    "backend",
    "emission",
    "use_small_seed",
    "push_selections",
    "select_root",
    "plan_cache_size",
    "result_cache_size",
    "observability",
]

# The committed parameter lists of the configurable entry points.
SIGNATURES = {
    "XPathToSQLTranslator.__init__": (
        XPathToSQLTranslator.__init__,
        ["self", "dtd", "config", "mapping", "plan_cache"],
    ),
    "QueryService.__init__": (
        QueryService.__init__,
        ["self", "dtd", "config", "mapping", "plan_cache"],
    ),
    "answer_xpath": (answer_xpath, ["query", "tree", "dtd", "config"]),
    "MemoryBackend.__init__": (MemoryBackend.__init__, ["self", "database"]),
    "QueryService.answer_batch": (
        QueryService.answer_batch,
        ["self", "queries", "document_id"],
    ),
    "Session.answer_batch": (
        Session.answer_batch,
        ["self", "queries", "document_id"],
    ),
}


class TestPublicSurface:
    def test_top_level_all_matches_snapshot(self):
        assert sorted(repro.__all__) == PUBLIC_SURFACE

    def test_api_all_matches_snapshot(self):
        assert sorted(repro.api.__all__) == API_SURFACE

    def test_every_top_level_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_every_api_name_resolves(self):
        # Includes the lazily exported facade classes (PEP 562).
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None, name

    def test_no_duplicate_names(self):
        assert len(repro.__all__) == len(set(repro.__all__))
        assert len(repro.api.__all__) == len(set(repro.api.__all__))

    def test_facade_is_the_same_object_everywhere(self):
        # repro.Engine and repro.api.Engine must not drift apart.
        assert repro.Engine is repro.api.Engine
        assert repro.EngineConfig is repro.api.EngineConfig
        assert repro.Session is repro.api.Session
        assert repro.QueryResult is repro.api.QueryResult


class TestConfigurationSurface:
    def test_engine_config_fields_match_snapshot(self):
        names = [field.name for field in dataclasses.fields(EngineConfig)]
        assert names == ENGINE_CONFIG_FIELDS

    @pytest.mark.parametrize("name", sorted(SIGNATURES))
    def test_signature_matches_snapshot(self, name):
        function, expected = SIGNATURES[name]
        assert list(inspect.signature(function).parameters) == expected
