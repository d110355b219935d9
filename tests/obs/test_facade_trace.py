"""End-to-end tracing through the public facade — the acceptance criterion.

``Session.answer()`` under ``observability=True`` must yield the complete
span tree (plan-cache lookup -> translate -> optimizer passes -> prepare
-> execute) with cache hit/miss visible, and the tree must round-trip
through JSON exactly.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.api import Engine, EngineConfig
from repro.dtd.samples import dept_dtd
from repro.obs.metrics import MetricsRegistry
from repro.xmltree.generator import generate_document

QUERY = "dept//project"


@pytest.fixture(scope="module")
def dtd():
    return dept_dtd()


@pytest.fixture(scope="module")
def document(dtd):
    return generate_document(dtd, x_l=6, x_r=3, seed=7, max_elements=400)


@pytest.fixture()
def isolated_registry():
    previous = obs.set_registry(MetricsRegistry())
    yield obs.registry()
    obs.set_registry(previous)


class TestSessionAnswerTrace:
    def test_cold_answer_yields_the_complete_span_tree(self, dtd, document):
        with Engine(dtd, EngineConfig(observability=True)) as engine:
            with engine.open_session(document) as session:
                result = session.answer(QUERY)
        root = result.trace
        assert root is not None and root.name == "session.answer"
        assert root.attrs["query"] == QUERY
        # The whole path, in order: cache lookup, fresh translation with
        # its phases, backend prepare and execute.
        for name in (
            "plan-cache",
            "translate",
            "resolve-strategy",
            "xpath-to-extended",
            "lower",
            "optimize",
            "prepare",
            "execute",
        ):
            assert root.find(name) is not None, f"span {name!r} missing"
        assert root.find("plan-cache").attrs["hit"] is False
        assert root.find("optimize").children, "optimizer passes not traced"
        assert root.find("execute").attrs["rows"] == len(result)

    def test_warm_answer_marks_cache_hits_instead_of_retranslating(
        self, dtd, document
    ):
        with Engine(dtd, EngineConfig(observability=True)) as engine:
            with engine.open_session(document) as session:
                session.answer(QUERY)
                warm = session.answer(QUERY).trace
        # Result-cache hit: the answer span is marked and no backend work ran.
        answer_span = warm.find("answer")
        assert answer_span.attrs["result_cache_hit"] is True
        assert warm.find("translate") is None
        assert warm.find("execute") is None

    def test_trace_round_trips_through_json_exactly(self, dtd, document):
        with Engine(dtd, EngineConfig(observability=True)) as engine:
            with engine.open_session(document) as session:
                root = session.answer(QUERY).trace
        payload = json.loads(json.dumps(root.to_dict(), sort_keys=True))
        assert obs.Span.from_dict(payload).to_dict() == root.to_dict()

    def test_observability_off_means_no_trace_and_no_leak(self, dtd, document):
        with Engine(dtd, EngineConfig()) as engine:
            with engine.open_session(document) as session:
                result = session.answer(QUERY)
        assert result.trace is None
        assert not obs.is_tracing()

    def test_batch_answers_each_carry_their_own_trace(self, dtd, document):
        queries = [QUERY, "dept/employee", QUERY]
        with Engine(dtd, EngineConfig(observability=True)) as engine:
            with engine.open_session(document) as session:
                results = session.answer_batch(queries)
        for result in results:
            assert result.trace is not None
            assert result.trace.name == "session.answer"

    def test_cache_counters_reach_the_metrics_registry(
        self, dtd, document, isolated_registry
    ):
        with Engine(dtd, EngineConfig()) as engine:
            with engine.open_session(document) as session:
                session.answer(QUERY)
                session.answer(QUERY)
        snapshot = isolated_registry.snapshot()
        assert snapshot["cache.plan.misses"]["value"] >= 1
        assert snapshot["cache.result.hits"]["value"] >= 1
        assert snapshot["service.queries"]["value"] == 2


class TestExplainTiming:
    def test_timing_mode_appends_a_fresh_translation_trace(self, dtd):
        with Engine(dtd, EngineConfig()) as engine:
            plain = engine.explain(QUERY)
            timed = engine.explain(QUERY, timing=True)
        assert "timing:" not in plain
        assert "timing:" in timed
        assert "translate" in timed
        assert timed.startswith(plain)
