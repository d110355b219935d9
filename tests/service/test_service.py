"""QueryService behaviour: registry, answering, caching layers, lifecycle."""

from __future__ import annotations

import pytest

from repro.api import EngineConfig
from repro.core.pipeline import XPathToSQLTranslator
from repro.dtd import samples
from repro.errors import ConfigError
from repro.service import QueryService
from repro.workloads.queries import CROSS_QUERIES
from repro.xmltree.generator import generate_document
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath


def _ids(nodes):
    return [node.node_id for node in nodes]


def _reference_ids(tree, query):
    """The node ids the XPath evaluator selects on ``tree``, ascending."""
    return sorted(node.node_id for node in evaluate_xpath(tree, parse_xpath(query)))


@pytest.fixture(scope="module")
def cross_setup():
    dtd = samples.cross_dtd()
    tree = generate_document(dtd, x_l=8, x_r=3, seed=5, max_elements=400)
    return dtd, tree


class TestDocumentRegistry:
    def test_register_answer_unregister(self, cross_setup):
        dtd, tree = cross_setup
        with QueryService(dtd) as service:
            store = service.register_document("d1", tree)
            assert store.tree is tree
            assert service.document_ids() == ["d1"]
            assert service.answer("a//d", "d1")
            service.unregister_document("d1")
            assert service.document_ids() == []
            with pytest.raises(ValueError, match="unknown document"):
                service.answer("a//d", "d1")

    def test_duplicate_registration_rejected(self, cross_setup):
        dtd, tree = cross_setup
        with QueryService(dtd) as service:
            service.register_document("d1", tree)
            with pytest.raises(ValueError, match="already registered"):
                service.register_document("d1", tree)

    def test_single_document_is_the_default(self, cross_setup):
        dtd, tree = cross_setup
        with QueryService(dtd) as service:
            service.register_document("only", tree)
            assert service.answer("a//d") == service.answer("a//d", "only")

    def test_ambiguous_default_rejected(self, cross_setup):
        dtd, tree = cross_setup
        other = generate_document(dtd, x_l=6, x_r=2, seed=9, max_elements=200)
        with QueryService(dtd) as service:
            service.register_document("d1", tree)
            service.register_document("d2", other)
            with pytest.raises(ValueError, match="document_id is required"):
                service.answer("a//d")

    def test_unregister_unknown_rejected(self, cross_setup):
        dtd, _ = cross_setup
        with QueryService(dtd) as service:
            with pytest.raises(ValueError, match="unknown document"):
                service.unregister_document("nope")


class TestAnswering:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_matches_the_evaluator(self, cross_setup, backend):
        dtd, tree = cross_setup
        with QueryService(dtd, config=EngineConfig(backend=backend)) as service:
            service.register_document("doc", tree)
            for query in CROSS_QUERIES.values():
                assert _ids(service.answer(query)) == _reference_ids(tree, query)

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_execute_returns_stats(self, cross_setup, backend):
        dtd, tree = cross_setup
        with QueryService(dtd, config=EngineConfig(backend=backend)) as service:
            service.register_document("doc", tree)
            result = service.execute("a//d")
        assert result.backend == backend
        assert result.stats["elapsed_seconds"] >= 0
        assert result.stats["rows"] == len(result.node_ids())

    def test_answer_batch_preserves_order(self, cross_setup):
        dtd, tree = cross_setup
        queries = ["a//d", "a/b//c/d", "a//d", "a[//c]//d"]
        with QueryService(dtd) as service:
            service.register_document("doc", tree)
            batch = service.answer_batch(queries)
            assert batch == [service.answer(query) for query in queries]

    def test_answers_across_multiple_documents(self, cross_setup):
        dtd, tree = cross_setup
        other = generate_document(dtd, x_l=6, x_r=2, seed=9, max_elements=200)
        with QueryService(dtd) as service:
            service.register_document("big", tree)
            service.register_document("small", other)
            assert _ids(service.answer("a//d", "big")) == _reference_ids(tree, "a//d")
            assert _ids(service.answer("a//d", "small")) == _reference_ids(other, "a//d")


class TestCachingLayers:
    def test_plan_cache_hits_on_repeat(self, cross_setup):
        # Result caching off so repeats actually reach the plan cache (with
        # it on, the result cache absorbs them before translation).
        dtd, tree = cross_setup
        with QueryService(dtd, config=EngineConfig(result_cache_size=0)) as service:
            service.register_document("doc", tree)
            service.answer("a//d")
            service.answer("a//d")
            info = service.cache_info()
            assert info.misses == 1 and info.hits >= 1

    def test_result_cache_serves_repeats_without_reexecution(self, cross_setup):
        dtd, tree = cross_setup
        with QueryService(dtd) as service:
            service.register_document("doc", tree)
            first = service.execute("a//d")
            second = service.execute("a//d")
            assert second is first  # memoized BackendResult, not re-run
            results = service.result_cache_info()
            assert results.hits == 1 and results.misses == 1

    def test_result_cache_is_per_document(self, cross_setup):
        dtd, tree = cross_setup
        other = generate_document(dtd, x_l=6, x_r=2, seed=9, max_elements=200)
        with QueryService(dtd) as service:
            service.register_document("d1", tree)
            service.register_document("d2", other)
            r1 = service.execute("a//d", "d1")
            r2 = service.execute("a//d", "d2")
            assert r1 is not r2

    def test_result_cache_can_be_disabled(self, cross_setup):
        dtd, tree = cross_setup
        with QueryService(dtd, config=EngineConfig(result_cache_size=0)) as service:
            service.register_document("doc", tree)
            first = service.execute("a//d")
            second = service.execute("a//d")
            assert first is not second
            assert first.node_ids() == second.node_ids()
            assert service.result_cache_info().hits == 0

    def test_cache_capacity_zero_disables_everything(self, cross_setup):
        dtd, tree = cross_setup
        with QueryService(
            dtd, config=EngineConfig(plan_cache_size=0, result_cache_size=0)
        ) as service:
            service.register_document("doc", tree)
            reference = _reference_ids(tree, "a//d")
            assert _ids(service.answer("a//d")) == reference
            assert _ids(service.answer("a//d")) == reference
            info = service.cache_info()
            assert info.capacity == 0 and info.hits == 0 and info.misses == 0

    def test_shared_plan_cache_across_services(self, cross_setup):
        dtd, tree = cross_setup
        config = EngineConfig(plan_cache_size=16)
        shared = XPathToSQLTranslator(dtd, config)
        with QueryService(dtd, config, translator=shared) as one:
            one.register_document("doc", tree)
            one.answer("a//d")
        with QueryService(dtd, config, translator=shared) as two:
            two.register_document("doc", tree)
            two.answer("a//d")  # plan already compiled by the first service
            assert two.translator is shared
        info = shared.plan_cache.cache_info()
        assert info.hits >= 1 and info.misses == 1

    def test_plan_cache_size_does_not_size_the_result_cache(self, cross_setup):
        # Plans and prepared programs follow plan_cache_size; results follow
        # result_cache_size alone.
        dtd, tree = cross_setup
        queries = ["a//d", "a/b//c/d", "a[//c]//d", "a//c", "a/b"]
        with QueryService(dtd, config=EngineConfig(plan_cache_size=2)) as service:
            service.register_document("doc", tree)
            for _ in range(2):
                for query in queries:
                    service.answer(query)
            assert service.cache_info().capacity == 2
            results = service.result_cache_info()
        assert results.capacity == EngineConfig().result_cache_size
        assert (results.hits, results.evictions) == (len(queries), 0)

    def test_a_shared_translator_must_match_the_dtd_and_config(self, cross_setup):
        dtd, _ = cross_setup
        translator = XPathToSQLTranslator(dtd, EngineConfig())
        with pytest.raises(ConfigError, match="shared translator"):
            QueryService(dtd, EngineConfig(optimize_level=0), translator=translator)
        with pytest.raises(ConfigError, match="shared translator"):
            QueryService(samples.cross_dtd(), EngineConfig(), translator=translator)

    def test_eviction_keeps_answers_correct(self, cross_setup):
        dtd, tree = cross_setup
        queries = ["a//d", "a/b//c/d", "a[//c]//d", "a//c", "a/b"]
        with QueryService(
            dtd, config=EngineConfig(plan_cache_size=2, result_cache_size=2)
        ) as service:
            service.register_document("doc", tree)
            for _ in range(3):  # cycle through more queries than capacity
                for query in queries:
                    assert _ids(service.answer(query)) == _reference_ids(tree, query)
            assert service.cache_info().evictions > 0


class TestParsing:
    def _count_parses(self, monkeypatch):
        import repro.core.pipeline
        import repro.service.service

        calls = []
        for module in (repro.core.pipeline, repro.service.service):
            original = getattr(module, "parse_xpath", None)
            if original is None:
                continue

            def counting(text, _original=original):
                calls.append(text)
                return _original(text)

            monkeypatch.setattr(module, "parse_xpath", counting)
        return calls

    @pytest.mark.parametrize("result_cache_size", [128, 0])
    def test_a_repeated_query_is_not_parsed_again(
        self, cross_setup, monkeypatch, result_cache_size
    ):
        dtd, tree = cross_setup
        config = EngineConfig(result_cache_size=result_cache_size)
        with QueryService(dtd, config=config) as service:
            service.register_document("d1", tree)
            calls = self._count_parses(monkeypatch)
            first = service.execute("a//d", "d1")
            assert calls
            calls.clear()
            assert service.execute("a//d", "d1").node_ids() == first.node_ids()
            assert calls == []

    def test_whitespace_variants_share_one_result_entry(self, cross_setup):
        dtd, tree = cross_setup
        with QueryService(dtd) as service:
            service.register_document("d1", tree)
            first = service.execute("a//d", "d1")
            assert service.execute("a // d", "d1") is first
            assert service.execute(" a//d ", "d1") is first
            info = service.result_cache_info()
            assert (info.hits, info.misses, info.size) == (2, 1, 1)


class TestWarm:
    QUERIES = list(CROSS_QUERIES.values())

    def test_memory_store_answers_warm_with_the_result_cache_off(self, cross_setup):
        dtd, tree = cross_setup
        with QueryService(dtd, config=EngineConfig(result_cache_size=0)) as service:
            service.register_document("d1", tree)
            service.warm(self.QUERIES, "d1")
            for query in self.QUERIES:
                stats = service.execute(query, "d1").stats
                assert stats["temporaries_evaluated"] == 0, query
                assert stats["temporaries_reused"] >= 1, query

    def test_a_result_cache_answers_warm_queries(self, cross_setup):
        dtd, tree = cross_setup
        with QueryService(dtd, config=EngineConfig(backend="sqlite")) as service:
            service.register_document("d1", tree)
            service.warm(self.QUERIES, "d1")
            before = service.result_cache_info()
            for query in self.QUERIES:
                service.execute(query, "d1")
            after = service.result_cache_info()
            assert after.hits - before.hits == len(self.QUERIES)
            assert after.misses == before.misses

    def test_sqlite_store_answers_warm_with_the_result_cache_off(self, cross_setup):
        dtd, tree = cross_setup
        config = EngineConfig(backend="sqlite", result_cache_size=0)
        with QueryService(dtd, config=config) as service:
            service.register_document("d1", tree)
            service.warm(self.QUERIES, "d1")
            for query in self.QUERIES:
                stats = service.execute(query, "d1").stats
                assert stats["temporaries_evaluated"] == 0, query
                assert stats["temporaries_reused"] >= 1, query

    def test_a_failing_query_is_skipped(self, cross_setup):
        dtd, tree = cross_setup
        with QueryService(dtd) as service:
            service.register_document("d1", tree)
            service.warm(["a[[", "no-such-element", "a//d"], "d1")
            assert service.result_cache_info().size >= 1
            assert service.execute("a//d", "d1") is service.execute("a//d", "d1")


class TestLifecycle:
    def test_closed_service_rejects_calls(self, cross_setup):
        dtd, tree = cross_setup
        service = QueryService(dtd)
        service.register_document("doc", tree)
        service.close()
        with pytest.raises(ValueError, match="closed"):
            service.answer("a//d")
        with pytest.raises(ValueError, match="closed"):
            service.register_document("d2", tree)

    def test_close_is_idempotent(self, cross_setup):
        dtd, tree = cross_setup
        service = QueryService(dtd, config=EngineConfig(backend="sqlite"))
        service.register_document("doc", tree)
        service.close()
        service.close()

    def test_repr_names_dtd_and_backend(self, cross_setup):
        dtd, tree = cross_setup
        with QueryService(dtd, config=EngineConfig(backend="sqlite")) as service:
            service.register_document("doc", tree)
            text = repr(service)
            assert "cross" in text and "sqlite" in text and "doc" in text
