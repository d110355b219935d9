"""Cache-policy tests: LRU eviction, counters, the translator's plan key."""

from __future__ import annotations

import threading

import pytest

from repro.api import EngineConfig
from repro.core.optimize import select_strategy
from repro.core.plancache import CacheInfo, PlanCache, dtd_fingerprint
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd import samples
from repro.dtd.parser import parse_dtd
from repro.fuzz.xpath_gen import RandomXPathGenerator, XPathGenConfig
from repro.workloads.queries import (
    BIOML_CASES,
    CROSS_QUERIES,
    DEPT_QUERIES,
    GEDML_QUERY,
)
from repro.xpath.parser import parse_xpath


class TestLRUPolicy:
    def test_eviction_at_capacity_drops_least_recently_used(self):
        cache = PlanCache(capacity=2)
        cache.put("q1", "p1")
        cache.put("q2", "p2")
        assert cache.get("q1") == "p1"  # q1 is now most recently used
        cache.put("q3", "p3")  # evicts q2, not q1
        assert cache.get("q1") == "p1"
        assert cache.get("q2") is None
        assert cache.get("q3") == "p3"
        assert cache.cache_info().evictions == 1

    def test_put_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        cache.put("q1", "p1")
        cache.put("q2", "p2")
        cache.put("q1", "p1b")  # refresh, not insert
        cache.put("q3", "p3")  # evicts q2
        assert cache.get("q1") == "p1b"
        assert cache.get("q2") is None

    def test_zero_capacity_never_retains(self):
        cache = PlanCache(capacity=0)
        cache.put("q1", "p1")
        assert cache.get("q1") is None
        assert len(cache) == 0
        info = cache.cache_info()
        assert info.misses == 1 and info.hits == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            PlanCache(capacity=-1)

    def test_clear_resets_entries_and_counters(self):
        cache = PlanCache(capacity=4)
        cache.put("q1", "p1")
        cache.get("q1")
        cache.get("nope")
        cache.clear()
        assert len(cache) == 0
        assert cache.cache_info() == CacheInfo(
            hits=0, misses=0, evictions=0, size=0, capacity=4
        )


class TestCounters:
    def test_hit_and_miss_counters(self):
        cache = PlanCache(capacity=4)
        assert cache.get("q") is None  # miss
        cache.put("q", "plan")
        assert cache.get("q") == "plan"  # hit
        assert cache.get("q") == "plan"  # hit
        info = cache.cache_info()
        assert (info.hits, info.misses, info.size) == (2, 1, 1)
        assert info.hit_rate == pytest.approx(2 / 3)

    def test_get_or_create_counts_one_miss_then_hits(self):
        cache = PlanCache(capacity=4)
        calls = []
        factory = lambda: calls.append(1) or "plan"
        assert cache.get_or_create("q", factory) == "plan"
        assert cache.get_or_create("q", factory) == "plan"
        assert len(calls) == 1
        info = cache.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_concurrent_misses_on_one_key_run_factory_once(self):
        # Regression: get_or_create used to run the factory outside the lock,
        # so N threads missing the same key each paid the (expensive)
        # translation and the later puts silently discarded duplicates.
        # Single-flight: one leader runs the factory, the rest wait for it.
        threads_n = 8
        cache = PlanCache(capacity=4)
        barrier = threading.Barrier(threads_n)
        release = threading.Event()
        calls = []
        results = []
        errors = []

        def factory():
            calls.append(threading.get_ident())
            release.wait(timeout=5)  # hold every concurrent caller in-flight
            return "plan"

        def worker():
            try:
                barrier.wait()
                results.append(cache.get_or_create("q", factory))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        pool = [threading.Thread(target=worker) for _ in range(threads_n)]
        for thread in pool:
            thread.start()
        while not calls:  # leader is inside the factory; followers must wait
            pass
        release.set()
        for thread in pool:
            thread.join()
        assert not errors
        assert len(calls) == 1, "factory must run exactly once per key"
        assert results == ["plan"] * threads_n
        info = cache.cache_info()
        assert info.misses == 1
        assert info.hits == threads_n - 1

    def test_factory_error_propagates_to_all_waiters_and_is_not_cached(self):
        threads_n = 4
        cache = PlanCache(capacity=4)
        barrier = threading.Barrier(threads_n)
        calls = []
        errors = []

        def failing_factory():
            calls.append(1)
            raise RuntimeError("translation failed")

        def worker():
            barrier.wait()
            try:
                cache.get_or_create("bad", failing_factory)
            except RuntimeError as exc:
                errors.append(exc)

        pool = [threading.Thread(target=worker) for _ in range(threads_n)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        # Every caller saw the failure (leader's raise or a re-raise), and
        # nothing was cached, so a later call retries the factory.
        assert len(errors) == threads_n
        assert "bad" not in cache
        assert cache.get_or_create("bad2", lambda: "ok") == "ok"

    def test_distinct_keys_do_not_serialize_each_other(self):
        # Single-flight is per-key: a slow factory on one key must not block
        # a concurrent miss on a different key.
        cache = PlanCache(capacity=4)
        slow_started = threading.Event()
        slow_release = threading.Event()
        done = []

        def slow_factory():
            slow_started.set()
            slow_release.wait(timeout=5)
            return "slow"

        slow = threading.Thread(
            target=lambda: done.append(cache.get_or_create("slow", slow_factory))
        )
        slow.start()
        assert slow_started.wait(timeout=5)
        # While 'slow' is in flight, an unrelated key completes immediately.
        assert cache.get_or_create("fast", lambda: "fast") == "fast"
        slow_release.set()
        slow.join()
        assert done == ["slow"]

    def test_thread_safety_smoke(self):
        cache = PlanCache(capacity=8)
        errors = []

        def worker(tag):
            try:
                for i in range(200):
                    cache.get_or_create(f"{tag}-{i % 12}", lambda: i)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 8

    def test_cache_info_consistent_under_concurrent_access(self):
        # 8 threads, each issuing a known mix of hits and misses against a
        # no-eviction cache: afterwards cache_info() must account for every
        # single lookup (no lost counter updates, no double counts).
        threads_n, lookups = 8, 500
        cache = PlanCache(capacity=threads_n * lookups)
        hot = "hot"
        cache.put(hot, "plan")
        barrier = threading.Barrier(threads_n)
        errors = []

        def worker(tag):
            try:
                barrier.wait()
                for i in range(lookups):
                    if i % 2:  # every odd lookup hits the shared hot entry
                        assert cache.get(hot) == "plan"
                    else:  # every even lookup misses a thread-unique key
                        assert cache.get(f"cold-{tag}-{i}") is None
                    # cache_info() snapshots mid-race must stay coherent.
                    info = cache.cache_info()
                    assert 0 <= info.hits <= threads_n * lookups
                    assert 0 <= info.misses <= threads_n * lookups
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads_n)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert not errors
        info = cache.cache_info()
        assert info.hits == threads_n * (lookups // 2)
        assert info.misses == threads_n * (lookups - lookups // 2)
        assert info.evictions == 0
        assert info.hit_rate == info.hits / (info.hits + info.misses)


class TestFingerprints:
    def test_dtd_fingerprint_is_content_based(self):
        assert dtd_fingerprint(samples.cross_dtd()) == dtd_fingerprint(
            samples.cross_dtd()
        )
        assert dtd_fingerprint(samples.cross_dtd()) != dtd_fingerprint(
            samples.dept_dtd()
        )

    def test_edited_dtd_changes_fingerprint(self):
        base = parse_dtd("root a\na -> b*\nb -> EMPTY #text\n", name="tiny")
        edited = parse_dtd(
            "root a\na -> b*\nb -> c*\nc -> EMPTY #text\n", name="tiny"
        )
        assert dtd_fingerprint(base) != dtd_fingerprint(edited)


def _workload_queries():
    """``(dtd, queries)``: every workload query, and fuzz queries on each sample DTD."""
    groups = [
        (samples.cross_dtd(), list(CROSS_QUERIES.values())),
        (samples.dept_dtd(), list(DEPT_QUERIES.values())),
        (samples.gedml_dtd(), [GEDML_QUERY]),
    ]
    groups += [(case.dtd(), [case.query]) for case in BIOML_CASES]
    for dtd in samples.paper_dtds().values():
        groups.append((dtd, RandomXPathGenerator(dtd, XPathGenConfig(seed=5)).queries(10)))
    return groups


class TestTranslatorCacheHook:
    def test_translator_reuses_cached_plans(self):
        translator = XPathToSQLTranslator(
            samples.cross_dtd(), EngineConfig(plan_cache_size=8)
        )
        first = translator.translate("a//d")
        second = translator.translate("a//d")
        assert second is first  # the very same TranslationResult object
        info = translator.plan_cache.cache_info()
        assert (info.hits, info.misses, info.capacity) == (1, 1, 8)

    @pytest.mark.parametrize("strategy", list(DescendantStrategy))
    def test_plan_key_is_the_canonical_query_text(self, strategy):
        for dtd, queries in _workload_queries():
            translator = XPathToSQLTranslator(dtd, EngineConfig(strategy=strategy))
            for query in queries:
                assert translator.plan_key(query) == str(parse_xpath(query)), query

    def test_whitespace_variants_share_one_entry(self):
        translator = XPathToSQLTranslator(samples.cross_dtd())
        assert translator.plan_key("a //d") == translator.plan_key("a//d") == "a//d"
        first = translator.translate("a //d")
        assert translator.translate("a//d") is first
        info = translator.plan_cache.cache_info()
        assert (info.hits, info.misses, info.size) == (1, 1, 1)

    def test_auto_records_the_resolved_strategy(self):
        dtd = samples.dept_dtd()
        translator = XPathToSQLTranslator(
            dtd, EngineConfig(strategy=DescendantStrategy.AUTO)
        )
        resolved = set()
        for query in DEPT_QUERIES.values():
            result = translator.translate(query)
            assert result.strategy is select_strategy(dtd, query), query
            assert result.strategy is translator.resolve_strategy(query)
            assert translator.translate(query) is result
            resolved.add(result.strategy)
        assert DescendantStrategy.AUTO not in resolved

    def test_translators_never_share_plans(self):
        # The key is the query text alone; that is sound because each
        # translator owns its cache, so the same text under another DTD or
        # config is a miss in that translator's cache, never another's plan.
        cross = XPathToSQLTranslator(samples.cross_dtd())
        cyclee = XPathToSQLTranslator(
            samples.cross_dtd(), EngineConfig(strategy=DescendantStrategy.CYCLEE)
        )
        dept = XPathToSQLTranslator(samples.dept_dtd())
        first = cross.translate("a//d")
        assert cyclee.plan_key("a//d") == cross.plan_key("a//d")
        other = cyclee.translate("a//d")
        assert other is not first
        assert (first.strategy, other.strategy) == (
            DescendantStrategy.CYCLEEX,
            DescendantStrategy.CYCLEE,
        )
        for translator in (cross, cyclee):
            info = translator.plan_cache.cache_info()
            assert (info.hits, info.misses, info.size) == (0, 1, 1)
        assert dept.plan_cache is not cross.plan_cache
        assert "a//d" not in dept.plan_cache

    def test_uncached_translator_unaffected(self):
        translator = XPathToSQLTranslator(
            samples.cross_dtd(), EngineConfig(plan_cache_size=0)
        )
        assert translator.plan_cache is None
        first = translator.translate("a//d")
        second = translator.translate("a//d")
        assert first is not second
        assert first.program.result == second.program.result
