"""Cache-policy tests: LRU eviction, fingerprint invalidation, counters."""

from __future__ import annotations

import threading

import pytest

from repro.api import EngineConfig
from repro.core.expath_to_sql import TranslationOptions
from repro.core.optimize import push_selection_options, standard_options
from repro.core.plancache import (
    CacheInfo,
    PlanCache,
    PlanKey,
    dtd_fingerprint,
    options_fingerprint,
)
from repro.core.pipeline import XPathToSQLTranslator
from repro.core.xpath_to_expath import DescendantStrategy
from repro.dtd import samples
from repro.dtd.parser import parse_dtd


def _key(tag: str) -> PlanKey:
    return PlanKey(
        dtd="fp", query=tag, strategy="cycleex", options="o", mapping="m"
    )


class TestLRUPolicy:
    def test_eviction_at_capacity_drops_least_recently_used(self):
        cache = PlanCache(capacity=2)
        cache.put(_key("q1"), "p1")
        cache.put(_key("q2"), "p2")
        assert cache.get(_key("q1")) == "p1"  # q1 is now most recently used
        cache.put(_key("q3"), "p3")  # evicts q2, not q1
        assert cache.get(_key("q1")) == "p1"
        assert cache.get(_key("q2")) is None
        assert cache.get(_key("q3")) == "p3"
        assert cache.cache_info().evictions == 1

    def test_put_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        cache.put(_key("q1"), "p1")
        cache.put(_key("q2"), "p2")
        cache.put(_key("q1"), "p1b")  # refresh, not insert
        cache.put(_key("q3"), "p3")  # evicts q2
        assert cache.get(_key("q1")) == "p1b"
        assert cache.get(_key("q2")) is None

    def test_zero_capacity_never_retains(self):
        cache = PlanCache(capacity=0)
        cache.put(_key("q1"), "p1")
        assert cache.get(_key("q1")) is None
        assert len(cache) == 0
        info = cache.cache_info()
        assert info.misses == 1 and info.hits == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            PlanCache(capacity=-1)

    def test_clear_resets_entries_and_counters(self):
        cache = PlanCache(capacity=4)
        cache.put(_key("q1"), "p1")
        cache.get(_key("q1"))
        cache.get(_key("nope"))
        cache.clear()
        assert len(cache) == 0
        assert cache.cache_info() == CacheInfo(
            hits=0, misses=0, evictions=0, size=0, capacity=4
        )


class TestCounters:
    def test_hit_and_miss_counters(self):
        cache = PlanCache(capacity=4)
        assert cache.get(_key("q")) is None  # miss
        cache.put(_key("q"), "plan")
        assert cache.get(_key("q")) == "plan"  # hit
        assert cache.get(_key("q")) == "plan"  # hit
        info = cache.cache_info()
        assert (info.hits, info.misses, info.size) == (2, 1, 1)
        assert info.hit_rate == pytest.approx(2 / 3)

    def test_get_or_create_counts_one_miss_then_hits(self):
        cache = PlanCache(capacity=4)
        calls = []
        factory = lambda: calls.append(1) or "plan"
        assert cache.get_or_create(_key("q"), factory) == "plan"
        assert cache.get_or_create(_key("q"), factory) == "plan"
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
                results.append(cache.get_or_create(_key("q"), factory))
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
                cache.get_or_create(_key("bad"), failing_factory)
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
        assert _key("bad") not in cache
        assert cache.get_or_create(_key("bad2"), lambda: "ok") == "ok"

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
            target=lambda: done.append(cache.get_or_create(_key("slow"), slow_factory))
        )
        slow.start()
        assert slow_started.wait(timeout=5)
        # While 'slow' is in flight, an unrelated key completes immediately.
        assert cache.get_or_create(_key("fast"), lambda: "fast") == "fast"
        slow_release.set()
        slow.join()
        assert done == ["slow"]

    def test_thread_safety_smoke(self):
        cache = PlanCache(capacity=8)
        errors = []

        def worker(tag):
            try:
                for i in range(200):
                    cache.get_or_create(_key(f"{tag}-{i % 12}"), lambda: i)
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
        hot = _key("hot")
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
                        assert cache.get(_key(f"cold-{tag}-{i}")) is None
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

    def test_options_fingerprint_distinguishes_settings(self):
        assert options_fingerprint(standard_options()) != options_fingerprint(
            push_selection_options()
        )
        assert options_fingerprint(TranslationOptions()) == options_fingerprint(
            TranslationOptions()
        )

    def test_plan_key_separates_every_axis(self):
        from repro.shredding.inlining import SimpleMapping

        dtd = samples.cross_dtd()

        def key(query="a//d", dtd=dtd, config=None, mapping=None):
            return XPathToSQLTranslator(dtd, config, mapping).plan_key(query)

        base = key()
        assert key() == base
        assert key("a//c") != base
        assert key(dtd=samples.dept_dtd()) != base
        assert key(config=EngineConfig(strategy=DescendantStrategy.CYCLEE)) != base
        assert key(config=EngineConfig(push_selections=True)) != base
        assert key(config=EngineConfig(optimize_level=0)) != base
        assert key(mapping=SimpleMapping(dtd, prefix="S_")) != base
        # Execution settings are no part of a plan's identity.
        assert key(config=EngineConfig(backend="sqlite")) == base

    def test_translators_with_different_mappings_never_alias(self):
        """Programs lowered against differently-named relations must not be
        served to each other from a shared cache."""
        from repro.shredding.inlining import SimpleMapping

        dtd = samples.cross_dtd()
        cache = PlanCache(capacity=8)
        default = XPathToSQLTranslator(dtd, plan_cache=cache)
        renamed = XPathToSQLTranslator(
            dtd, mapping=SimpleMapping(dtd, prefix="S_"), plan_cache=cache
        )
        assert default.plan_key("a//d") != renamed.plan_key("a//d")
        default.translate("a//d")
        program = renamed.translate("a//d").program
        # The renamed translator got its own plan, over its own relations.
        assert any("S_" in str(statement) for statement in program.assignments)


class TestTranslatorCacheHook:
    def test_translator_reuses_cached_plans(self):
        cache = PlanCache(capacity=8)
        translator = XPathToSQLTranslator(samples.cross_dtd(), plan_cache=cache)
        first = translator.translate("a//d")
        second = translator.translate("a//d")
        assert second is first  # the very same TranslationResult object
        info = cache.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_whitespace_variants_share_one_entry(self):
        cache = PlanCache(capacity=8)
        translator = XPathToSQLTranslator(samples.cross_dtd(), plan_cache=cache)
        # The key is the canonical rendering of the parsed path.
        assert translator.plan_key("a //d") == translator.plan_key("a//d")

    def test_different_dtds_never_alias_in_a_shared_cache(self):
        cache = PlanCache(capacity=8)
        cross = XPathToSQLTranslator(samples.cross_dtd(), plan_cache=cache)
        dept = XPathToSQLTranslator(samples.dept_dtd(), plan_cache=cache)
        cross.translate("a//d")
        # dept has no 'a' type: translating the same text must not hit the
        # cross entry (it would if keys ignored the DTD fingerprint).
        assert dept.plan_key("a//d") != cross.plan_key("a//d")

    def test_uncached_translator_unaffected(self):
        translator = XPathToSQLTranslator(samples.cross_dtd())
        assert translator.plan_cache is None
        first = translator.translate("a//d")
        second = translator.translate("a//d")
        assert first is not second
        assert first.program.result == second.program.result
