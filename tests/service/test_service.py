"""QueryService behaviour: registry, answering, caching layers, lifecycle."""

from __future__ import annotations

import pytest

from repro.api import EngineConfig
from repro.core.pipeline import XPathToSQLTranslator, answer_xpath
from repro.dtd import samples
from repro.service import PlanCache, QueryService
from repro.workloads.queries import CROSS_QUERIES
from repro.xmltree.generator import generate_document


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
    def test_matches_stateless_pipeline(self, cross_setup, backend):
        dtd, tree = cross_setup
        with QueryService(dtd, config=EngineConfig(backend=backend)) as service:
            service.register_document("doc", tree)
            for query in CROSS_QUERIES.values():
                assert service.answer(query) == answer_xpath(query, tree, dtd)

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
            assert service.answer("a//d", "big") == answer_xpath("a//d", tree, dtd)
            assert service.answer("a//d", "small") == answer_xpath("a//d", other, dtd)


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
            reference = answer_xpath("a//d", tree, dtd)
            assert service.answer("a//d") == reference
            assert service.answer("a//d") == reference
            info = service.cache_info()
            assert info.capacity == 0 and info.hits == 0 and info.misses == 0

    def test_shared_plan_cache_across_services(self, cross_setup):
        dtd, tree = cross_setup
        shared = PlanCache(capacity=16)
        with QueryService(dtd, plan_cache=shared) as one:
            one.register_document("doc", tree)
            one.answer("a//d")
        with QueryService(dtd, plan_cache=shared) as two:
            two.register_document("doc", tree)
            two.answer("a//d")  # plan already compiled by the first service
        info = shared.cache_info()
        assert info.hits >= 1 and info.misses == 1

    def test_shared_plan_cache_does_not_size_the_result_cache(self, cross_setup):
        # The shared cache brings its own capacity; results follow the config.
        dtd, tree = cross_setup
        queries = ["a//d", "a/b//c/d", "a[//c]//d", "a//c", "a/b"]
        with QueryService(dtd, plan_cache=PlanCache(capacity=2)) as service:
            service.register_document("doc", tree)
            for _ in range(2):
                for query in queries:
                    service.answer(query)
            assert service.cache_info().capacity == 2
            results = service.result_cache_info()
        assert results.capacity == EngineConfig().result_cache_size
        assert (results.hits, results.evictions) == (len(queries), 0)

    def test_eviction_keeps_answers_correct(self, cross_setup):
        dtd, tree = cross_setup
        queries = ["a//d", "a/b//c/d", "a[//c]//d", "a//c", "a/b"]
        with QueryService(
            dtd, config=EngineConfig(plan_cache_size=2, result_cache_size=2)
        ) as service:
            service.register_document("doc", tree)
            for _ in range(3):  # cycle through more queries than capacity
                for query in queries:
                    assert service.answer(query) == answer_xpath(query, tree, dtd)
            assert service.cache_info().evictions > 0


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
