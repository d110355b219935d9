"""SQLite's shared temporaries: one temp table per canonical expression.

The backend creates a shared table once, on its one connection, and keeps
it for later plans on any thread.  An update drops every shared table at
once, and each run first drops the tables no live cached plan uses any
more.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.api import EngineConfig
from repro.backends.sqlite import SqliteBackend
from repro.core.pipeline import XPathToSQLTranslator
from repro.dtd import samples
from repro.live.fuzzer import MutationGenConfig, RandomMutationGenerator
from repro.service import QueryService
from repro.workloads.queries import CROSS_QUERIES
from repro.xmltree.generator import generate_document
from repro.xpath.evaluator import evaluate_xpath
from repro.xpath.parser import parse_xpath

QUERIES = list(CROSS_QUERIES.values())


def _document(max_elements=300):
    dtd = samples.cross_dtd()
    return dtd, generate_document(dtd, seed=3, max_elements=max_elements)


def _temp_tables(backend):
    """The temp tables on the backend's connection."""
    with backend._connected() as connection:
        rows = connection.execute(
            "SELECT name FROM sqlite_temp_master WHERE type = 'table'"
        ).fetchall()
    return {name for (name,) in rows}


def _table_names(service, store, query):
    """The shared tables ``query``'s cached plan creates (the plan is not kept)."""
    prepared = store.prepared_program(service._key(query), service.plan(query))
    return {table.name for table in prepared.payload.tables}


class TestSharing:
    def test_plans_share_closures_and_a_repeat_runs_no_create(self):
        dtd, tree = _document()
        config = EngineConfig(backend="sqlite", result_cache_size=0)
        with QueryService(dtd, config=config) as service:
            service.register_document("doc", tree)
            first = service.execute(QUERIES[0], "doc").stats
            second = service.execute(QUERIES[1], "doc").stats
            repeat = service.execute(QUERIES[0], "doc").stats
        assert first["temporaries_reused"] == 0
        assert second["temporaries_reused"] >= 1  # the closures Qa computed
        assert repeat["temporaries_evaluated"] == 0
        assert repeat["temporaries_reused"] == first["temporaries_evaluated"]

    def test_execute_span_reports_the_counts(self):
        from repro import obs

        dtd, tree = _document(120)
        config = EngineConfig(backend="sqlite", result_cache_size=0)
        with QueryService(dtd, config=config) as service:
            service.register_document("doc", tree)
            service.execute(QUERIES[0], "doc")
            with obs.trace("root") as root:
                result = service.execute(QUERIES[0], "doc")
        attrs = root.find("execute").attrs
        assert attrs["temporaries_evaluated"] == 0
        assert attrs["temporaries_reused"] == result.stats["temporaries_reused"] >= 1

    def test_an_explain_between_two_answers_leaves_the_shared_tables(self):
        dtd, tree = _document()
        translator = XPathToSQLTranslator(dtd)
        program = translator.translate(QUERIES[0]).program
        config = EngineConfig(backend="sqlite", result_cache_size=0)
        with QueryService(dtd, config=config) as service:
            store = service.register_document("doc", tree)
            first = service.execute(QUERIES[0], "doc")
            before = _temp_tables(store.backend)
            explained = store.backend.explain(program)
            assert _temp_tables(store.backend) == before
            second = service.execute(QUERIES[0], "doc")
        # explain renders the program under its own temporary names.
        assert [target for target, _ in explained][:-1] == program.pruned().temporaries()
        assert second.stats["temporaries_evaluated"] == 0
        assert second.node_ids() == first.node_ids()


class TestEviction:
    def test_an_evicted_plans_own_tables_leave_and_live_plans_tables_stay(self):
        dtd, tree = _document()
        config = EngineConfig(backend="sqlite", result_cache_size=0, plan_cache_size=2)
        with QueryService(dtd, config=config) as service:
            store = service.register_document("doc", tree)
            tables = []
            for query in QUERIES[:3]:  # the third evicts the first plan
                service.execute(query, "doc")
                tables.append(_table_names(service, store, query))
            held = _temp_tables(store.backend)
        evicted, *live = tables
        own = evicted - set().union(*live)
        assert own, "the evicted plan shares every table"
        assert evicted & set().union(*live), "the plans share no table"
        assert not own & held
        assert held == set().union(*live)


class TestThreads:
    def test_threads_share_tables_while_plans_are_evicted(self):
        # More threads than cores, switching often, and a plan cache of two,
        # so plans are released on one thread while others execute.
        dtd, tree = _document()
        queries = QUERIES + ["a//d", "a/b//c", "a//c[d]"]
        config = EngineConfig(backend="sqlite", result_cache_size=0, plan_cache_size=2)
        with QueryService(dtd, config=config) as service:
            store = service.register_document("doc", tree)
            serial = {query: service.execute(query, "doc").node_ids() for query in queries}
            barrier = threading.Barrier(8)
            failures = []

            def run(index):
                try:
                    barrier.wait(10)
                    for step in range(20):
                        query = queries[(index + step) % len(queries)]
                        if service.execute(query, "doc").node_ids() != serial[query]:
                            failures.append((index, query))
                except Exception as exc:  # reported below
                    failures.append((index, repr(exc)))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            assert not failures, failures[:3]
            # No lost update: once every plan is released, no entry is left.
            store._prepared.clear()
            gc.collect()
            assert store.backend._temporaries.entries() == ()


    def test_four_threads_create_each_shared_table_once(self):
        dtd, tree = _document()
        config = EngineConfig(backend="sqlite", result_cache_size=0)
        with QueryService(dtd, config=config) as service:
            store = service.register_document("doc", tree)
            barrier = threading.Barrier(4)
            created, failures = [], []

            def run():
                try:
                    barrier.wait(10)
                    for _ in range(3):
                        for query in QUERIES:
                            stats = service.execute(query, "doc").stats
                            created.append(stats["temporaries_evaluated"])
                except Exception as exc:  # reported below
                    failures.append(repr(exc))

            threads = [threading.Thread(target=run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
            assert not failures, failures[:3]
            tables = set().union(*(_table_names(service, store, q) for q in QUERIES))
            assert len(created) == 4 * 3 * len(QUERIES)
            assert sum(created) == len(tables)
            assert _temp_tables(store.backend) == tables


class TestUpdate:
    def test_an_update_drops_every_shared_table_at_once(self):
        dtd, tree = _document()
        query = QUERIES[0]
        config = EngineConfig(backend="sqlite", result_cache_size=0)
        with QueryService(dtd, config=config) as service, ThreadPoolExecutor(
            1
        ) as one, ThreadPoolExecutor(1) as two:
            service.register_document("doc", tree)

            def answer():
                return threading.get_ident(), service.execute(query, "doc")

            _, before = one.submit(answer).result()
            assert _temp_tables(service.store("doc").backend)
            generator = RandomMutationGenerator(
                dtd, random.Random(7), MutationGenConfig(mutations=5)
            )
            service.update_document(generator.script(tree), "doc")
            assert _temp_tables(service.store("doc").backend) == set()
            live_tree = service.store("doc").shredded.tree
            expected = tuple(
                sorted(n.node_id for n in evaluate_xpath(live_tree, parse_xpath(query)))
            )
            assert expected != before.node_ids()  # the update changes the answer
            idents, answers = set(), []
            for pool in (one, two):
                ident, after = pool.submit(answer).result()
                idents.add(ident)
                answers.append(after)
            assert len(idents) == 2
            assert all(after.node_ids() == expected for after in answers)
            first, second = answers
            assert first.stats["temporaries_reused"] == 0
            assert first.stats["temporaries_evaluated"] >= 1
            assert second.stats["temporaries_evaluated"] == 0
            assert second.stats["temporaries_reused"] == first.stats["temporaries_evaluated"]


def test_a_one_shot_execute_releases_its_tables_at_the_next_use(cross_dtd, cross_shredded):
    program = XPathToSQLTranslator(cross_dtd).translate(QUERIES[0]).program
    with SqliteBackend(cross_shredded.database) as backend:
        backend.execute(program)
        created = _temp_tables(backend)
        assert created
        again = backend.execute(program)
        # The first call's plan is gone, so its tables were dropped and the
        # second call created its own.
        assert not _temp_tables(backend) & created
        assert again.stats["temporaries_reused"] == 0
