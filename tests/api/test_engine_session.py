""":class:`Engine`/:class:`Session` facade behaviour.

Lifecycle (context managers, typed closed-errors), document registration
shapes, and :class:`QueryResult` metadata and lazy node materialization.
"""

from __future__ import annotations

import pytest

from repro.api import (
    Engine,
    EngineConfig,
    QueryResult,
    Session,
    SessionClosedError,
)
from repro.dtd.samples import dept_dtd
from repro.errors import ConfigError, DuplicateDocumentError, UnknownDocumentError
from repro.relational.sqlgen import SQLDialect, program_to_sql
from repro.service import QueryService
from repro.xmltree.generator import generate_document

QUERY = "dept//project"


@pytest.fixture(scope="module")
def dtd():
    return dept_dtd()


@pytest.fixture(scope="module")
def document(dtd):
    return generate_document(dtd, x_l=7, x_r=3, seed=11, max_elements=600)


class TestEngineConstruction:
    def test_from_dtd_accepts_dtd_object(self, dtd):
        engine = Engine.from_dtd(dtd)
        assert engine.dtd is dtd
        assert engine.config == EngineConfig()

    def test_from_dtd_accepts_sample_name(self):
        engine = Engine.from_dtd("dept")
        assert engine.dtd.name == "dept"

    def test_from_dtd_accepts_grammar_text(self, dtd):
        engine = Engine.from_dtd(dtd.to_text())
        assert set(engine.dtd.element_types) == set(dtd.element_types)

    def test_from_dtd_knobs_apply_on_top_of_config(self, dtd):
        engine = Engine.from_dtd(dtd, EngineConfig(backend="sqlite"), optimize_level=0)
        assert engine.config.backend == "sqlite"
        assert engine.config.optimize_level == 0

    def test_from_dtd_rejects_other_types(self):
        with pytest.raises(ConfigError):
            Engine.from_dtd(42)  # type: ignore[arg-type]

    def test_from_dtd_names_unknown_sample(self):
        # A mistyped sample name gets a name error, not a grammar error.
        with pytest.raises(ConfigError, match="unknown sample DTD 'detp'"):
            Engine.from_dtd("detp")

    def test_translate_sql_explain(self, dtd):
        engine = Engine.from_dtd(dtd)
        result = engine.translate(QUERY)
        assert result.operator_profile().joins >= 1
        assert "SELECT" in engine.sql(QUERY)
        explanation = engine.explain(QUERY)
        assert "strategy:" in explanation and "profile:" in explanation

    def test_sql_defaults_to_the_backend_dialect(self, dtd):
        for backend, dialect in (("memory", SQLDialect.GENERIC), ("sqlite", SQLDialect.SQLITE)):
            engine = Engine.from_dtd(dtd, EngineConfig(backend=backend))
            program = engine.translate(QUERY).program
            assert engine.sql(QUERY) == program_to_sql(program, dialect)
            # A named dialect wins over the backend's.
            assert engine.sql(QUERY, SQLDialect.ORACLE) == program_to_sql(
                program, SQLDialect.ORACLE
            )

    def test_every_dialect_renders_from_one_cached_plan(self, dtd):
        # The dialect is an argument of rendering, not part of the plan key:
        # four dialects cost one translation.
        engine = Engine.from_dtd(dtd)
        program = engine.translate(QUERY).program
        for dialect in SQLDialect:
            assert engine.sql(QUERY, dialect) == program_to_sql(program, dialect)
        info = engine.plan_cache.cache_info()
        assert (info.misses, info.hits, info.size) == (1, len(SQLDialect), 1)


class TestSessions:
    def test_single_tree_gets_default_id(self, dtd, document):
        with Engine.from_dtd(dtd).open_session(document) as session:
            assert session.document_ids() == ["doc"]

    def test_mapping_of_documents(self, dtd, document):
        docs = {"a": document, "b": document}
        with Engine.from_dtd(dtd).open_session(docs) as session:
            assert session.document_ids() == ["a", "b"]
            assert len(session.answer(QUERY, "a")) == len(session.answer(QUERY, "b"))

    def test_sequence_of_documents(self, dtd, document):
        with Engine.from_dtd(dtd).open_session([document, document]) as session:
            assert session.document_ids() == ["doc0", "doc1"]

    def test_singleton_sequence_keeps_indexed_id(self, dtd, document):
        # Sequence ids never shift with length: [tree] is doc0, not doc.
        with Engine.from_dtd(dtd).open_session([document]) as session:
            assert session.document_ids() == ["doc0"]

    def test_mapping_values_are_validated(self, dtd):
        with pytest.raises(ConfigError, match="not an XMLTree"):
            Engine.from_dtd(dtd).open_session({"doc": "<xml/>"})  # type: ignore[dict-item]

    def test_add_document_and_unknown_id(self, dtd, document):
        with Engine.from_dtd(dtd).open_session(document) as session:
            session.add_document("second", document)
            assert session.document_ids() == ["doc", "second"]
            with pytest.raises(UnknownDocumentError):
                session.answer(QUERY, "third")
            with pytest.raises(DuplicateDocumentError):
                session.add_document("doc", document)

    def test_answer_batch_keeps_input_order(self, dtd, document):
        queries = [QUERY, "dept//cno", QUERY]
        with Engine.from_dtd(dtd).open_session(document) as session:
            batch = session.answer_batch(queries)
            one_by_one = [session.answer(query) for query in queries]
        assert [r.query for r in batch] == queries
        assert [r.node_ids() for r in batch] == [r.node_ids() for r in one_by_one]

    def test_stream_yields_nodes_in_document_order(self, dtd, document):
        with Engine.from_dtd(dtd).open_session(document) as session:
            streamed = list(session.stream(QUERY))
            answered = session.answer(QUERY).nodes()
        assert [n.node_id for n in streamed] == [n.node_id for n in answered]

    def test_sessions_share_the_engine_plan_cache(self, dtd, document):
        engine = Engine.from_dtd(dtd)
        with engine.open_session(document) as first:
            first.answer(QUERY)
            misses_after_first = engine.plan_cache.cache_info().misses
            with engine.open_session(document) as second:
                second.answer(QUERY)
                # The second session answered from the shared cache.
                assert engine.plan_cache.cache_info().misses == misses_after_first
                assert engine.plan_cache.cache_info().hits > 0


class TestQueryResult:
    def test_metadata(self, dtd, document):
        config = EngineConfig(strategy="auto", backend="sqlite", optimize_level=2)
        with Engine.from_dtd(dtd, config).open_session(document) as session:
            result = session.answer(QUERY)
        assert isinstance(result, QueryResult)
        assert result.query == QUERY
        assert result.document_id == "doc"
        assert result.backend == "sqlite"
        assert result.plan.optimize_level == 2
        assert result.plan.strategy is not None
        assert "elapsed_seconds" in result.stats
        assert len(result) == len(result.node_ids())

    def test_plan_is_lazy_and_cached(self, dtd, document):
        engine = Engine.from_dtd(dtd, EngineConfig(plan_cache_size=0, result_cache_size=0))
        with engine.open_session(document) as session:
            result = session.answer(QUERY)
            assert result._plan is None  # not derived until asked for
            assert result.plan is result.plan  # derived once, then cached

    def test_service_config_reflects_shared_plan_cache_capacity(self, dtd):
        from repro.core.plancache import PlanCache

        service = QueryService(
            dtd, config=EngineConfig(result_cache_size=5), plan_cache=PlanCache(8)
        )
        assert service.config.plan_cache_size == 8
        # The result cache is sized by the config alone.
        assert service.config.result_cache_size == 5
        assert service.result_cache_info().capacity == 5

    def test_lazy_node_materialization(self, dtd, document):
        with Engine.from_dtd(dtd).open_session(document) as session:
            result = session.answer(QUERY)
        assert result._nodes is None  # nothing materialized yet
        count = len(result)
        assert result._nodes is None  # len reads the ids alone
        assert count == len(result.nodes())
        assert result._nodes is not None
        assert result.nodes() is result.nodes()  # materialized once
        assert [node.node_id for node in result] == list(result.node_ids())

    def test_truthiness_without_materialization(self, dtd, document):
        with Engine.from_dtd(dtd).open_session(document) as session:
            hit = session.answer(QUERY)
            miss = session.answer("dept/project")  # project is never a direct child
            assert bool(hit) is True
            assert bool(miss) is False
            assert hit._nodes is None and miss._nodes is None


class TestLifecycle:
    def test_closing_engine_closes_sessions(self, dtd, document):
        engine = Engine.from_dtd(dtd)
        session = engine.open_session(document)
        engine.close()
        assert engine.closed and session.closed
        with pytest.raises(SessionClosedError):
            session.answer(QUERY)
        with pytest.raises(SessionClosedError):
            engine.open_session(document)

    def test_session_close_is_idempotent_and_independent(self, dtd, document):
        engine = Engine.from_dtd(dtd)
        first = engine.open_session(document)
        second = engine.open_session(document)
        first.close()
        first.close()
        assert not engine.closed
        assert len(second.answer(QUERY)) > 0
        engine.close()

    def test_context_managers(self, dtd, document):
        with Engine.from_dtd(dtd) as engine:
            with engine.open_session(document) as session:
                assert isinstance(session, Session)
            assert session.closed
        assert engine.closed

