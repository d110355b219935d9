"""ProcessQueryService behaviour: routing, errors, crash recovery, stats."""

from __future__ import annotations

import gc
import multiprocessing
import sys
import threading
from concurrent.futures import Future

import pytest

from repro.api import EngineConfig
from repro.dtd import samples
from repro.errors import (
    ConfigError,
    DuplicateDocumentError,
    SessionClosedError,
    UnknownDocumentError,
    WorkerCrashError,
    WorkerError,
    XPathSyntaxError,
)
from repro.fuzz.cases import DocumentSpec
from repro.live.mutations import DeleteSubtree
from repro.service import PoolAnswer, ProcessQueryService, QueryService
from repro.service.pool import WORKER_GC_THRESHOLD
from repro.workloads.queries import CROSS_QUERIES, SCALABILITY_QUERY
from repro.xmltree.generator import generate_document

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool behaviour tests use the fork start method for speed",
)

QUERIES = ["a//d", "a//c", "a/b//c/d"]


@pytest.fixture(scope="module")
def pool():
    dtd = samples.cross_dtd()
    service = ProcessQueryService(
        dtd, workers=2, replicas=2, start_method="fork", warmup=QUERIES
    )
    service.register_document("doc", generate_document(dtd, seed=3))
    yield service
    service.close()


@pytest.fixture(scope="module")
def serial():
    dtd = samples.cross_dtd()
    service = QueryService(dtd)
    service.register_document("doc", generate_document(dtd, seed=3))
    yield service
    service.close()


def _ids(nodes):
    return [node.node_id for node in nodes]


class TestAnswering:
    def test_answer_matches_serial_node_for_node(self, pool, serial):
        for query in QUERIES:
            answer = pool.answer(query, "doc")
            assert isinstance(answer, PoolAnswer)
            assert list(answer.node_ids) == _ids(serial.answer(query, "doc"))

    def test_answer_carries_rendered_nodes(self, pool, serial):
        answer = pool.answer("a//d", "doc")
        nodes = serial.answer("a//d", "doc")
        assert list(answer.labels) == [node.label for node in nodes]
        assert list(answer.values) == [node.value for node in nodes]

    def test_include_nodes_false_ships_ids_only(self, pool):
        answer = pool.answer("a//d", "doc", include_nodes=False)
        assert answer.labels is None and answer.values is None
        assert answer.node_ids

    def test_batch_preserves_input_order_across_workers(self, pool, serial):
        batch = pool.answer_batch(QUERIES * 3, "doc")
        assert [answer.query for answer in batch] == QUERIES * 3
        for answer in batch:
            assert list(answer.node_ids) == _ids(serial.answer(answer.query, "doc"))
        # replicas=2: a long batch really does fan out to both workers.
        assert len({answer.worker for answer in batch}) == 2

    def test_empty_batch(self, pool):
        assert pool.answer_batch([], "doc") == []

    def test_sole_document_is_the_default(self, pool, serial):
        assert list(pool.answer("a//d").node_ids) == _ids(serial.answer("a//d", "doc"))

    def test_same_query_routes_to_a_stable_replica(self, pool):
        workers = {pool.answer("a//d", "doc").worker for _ in range(5)}
        assert len(workers) == 1  # query affinity keeps result caches warm

    def test_answer_to_dict_is_json_safe(self, pool):
        import json

        json.dumps(pool.answer("a//d", "doc").to_dict())


class TestErrors:
    def test_remote_syntax_error_surfaces_as_the_same_type(self, pool):
        with pytest.raises(XPathSyntaxError):
            pool.answer("a//", "doc")

    def test_unknown_document(self, pool):
        with pytest.raises(UnknownDocumentError, match="nope"):
            pool.answer("a//d", "nope")

    def test_duplicate_registration(self, pool):
        dtd = samples.cross_dtd()
        with pytest.raises(DuplicateDocumentError):
            pool.register_document("doc", generate_document(dtd, seed=3))

    def test_invalid_sizing_rejected(self):
        dtd = samples.cross_dtd()
        with pytest.raises(ConfigError):
            ProcessQueryService(dtd, workers=0)
        with pytest.raises(ConfigError):
            ProcessQueryService(dtd, workers=1, replicas=0)


class TestSharding:
    def test_owners_are_deterministic_and_sized_by_replicas(self):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=3, replicas=2, start_method="fork"
        ) as pool:
            first = pool.register_generated("d1", DocumentSpec(max_elements=30))
            assert len(first) == 2 and len(set(first)) == 2
            assert pool.owners("d1") == first

    def test_documents_spread_across_workers(self):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=3, replicas=1, start_method="fork"
        ) as pool:
            for index in range(9):
                pool.register_generated(
                    f"d{index}", DocumentSpec(max_elements=20, seed=index)
                )
            owners = {pool.owners(f"d{index}")[0] for index in range(9)}
            assert len(owners) > 1  # sha-sharding uses more than one worker

    def test_replicas_clamped_to_worker_count(self):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=99, start_method="fork"
        ) as pool:
            pool.register_generated("d", DocumentSpec(max_elements=20))
            assert len(pool.owners("d")) == 2


def _crashed(index):
    """A submitted request whose worker crashed for good."""
    future = Future()
    future.set_exception(WorkerCrashError(f"pool worker {index} crashed again"))
    return future


class TestRegistration:
    def test_owners_register_at_the_same_time(self, monkeypatch):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork"
        ) as pool:
            # Every owner is sent the document before any reply is awaited:
            # one owner after another would interleave sends and waits.
            events = []
            submit, wait = pool._submit, pool._wait

            def logged_submit(index, kind, *rest):
                events.append(("submit", index))
                return submit(index, kind, *rest)

            def logged_wait(future, index, kind, *rest):
                events.append(("wait", index))
                return wait(future, index, kind, *rest)

            monkeypatch.setattr(pool, "_submit", logged_submit)
            monkeypatch.setattr(pool, "_wait", logged_wait)
            owners = pool.register_generated("d", DocumentSpec(max_elements=20))
            assert len(owners) == 2
            assert events == [("submit", index) for index in owners] + [
                ("wait", index) for index in owners
            ]
            assert pool.document_ids() == ["d"]

    @pytest.mark.parametrize("failing", [0, 1], ids=["first-owner", "second-owner"])
    def test_one_failing_owner_registers_nothing(self, monkeypatch, failing):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork"
        ) as pool:
            submit = pool._submit
            broken = pool._owner_indices("d")[failing]

            def one_owner_fails(index, kind, *rest):
                if kind == "register_spec" and index == broken:
                    return _crashed(index)  # the retry fails the same way
                return submit(index, kind, *rest)

            monkeypatch.setattr(pool, "_submit", one_owner_fails)
            with pytest.raises(WorkerCrashError):
                pool.register_generated("d", DocumentSpec(max_elements=20))
            assert pool.document_ids() == []
            monkeypatch.undo()
            # The owner that succeeded dropped its store again, so the
            # same id registers cleanly on every owner.
            assert len(pool.register_generated("d", DocumentSpec(max_elements=20))) == 2
            answers = {
                tuple(pool._call(index, "answer", "d", "a//d", False).node_ids)
                for index in pool.owners("d")
            }
            assert len(answers) == 1

    def test_a_registration_in_flight_rejects_the_same_id(self, monkeypatch):
        dtd = samples.cross_dtd()
        with ProcessQueryService(dtd, workers=1, start_method="fork") as pool:
            started, release = threading.Event(), threading.Event()
            submit = pool._submit

            def hold_the_first_registration(index, kind, *rest):
                if kind == "register_spec" and not started.is_set():
                    started.set()
                    release.wait(10)
                return submit(index, kind, *rest)

            monkeypatch.setattr(pool, "_submit", hold_the_first_registration)
            first = threading.Thread(
                target=pool.register_generated,
                args=("d", DocumentSpec(max_elements=20)),
            )
            first.start()
            try:
                assert started.wait(10)
                with pytest.raises(DuplicateDocumentError):
                    pool.register_generated("d", DocumentSpec(max_elements=20))
            finally:
                release.set()
                first.join(10)
            assert not first.is_alive()
            assert pool.document_ids() == ["d"]


def _counts(pool, index):
    """A worker's own counters and histogram counts, by metric name."""
    snapshot = pool._call(index, "snapshot")
    return {
        name: metric.get("value", metric.get("count", 0))
        for name, metric in snapshot.items()
    }


class TestWarmupAtRegistration:
    WARM = list(CROSS_QUERIES.values()) + [SCALABILITY_QUERY, "a//c"]

    def test_workers_start_without_translating(self):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, start_method="fork", warmup=self.WARM
        ) as pool:
            for index in range(2):
                assert _counts(pool, index).get("cache.plan.misses", 0) == 0

    def test_each_owner_answers_the_queries_routed_to_it(self, monkeypatch):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork", warmup=self.WARM
        ) as pool:
            shares = {}
            submit = pool._submit

            def record(index, kind, *rest):
                if kind == "register_spec":
                    shares[index] = rest[-1]
                return submit(index, kind, *rest)

            monkeypatch.setattr(pool, "_submit", record)
            owners = pool.register_generated("d", DocumentSpec(max_elements=200))
            monkeypatch.undo()
            assert sorted(shares) == sorted(owners)
            assert sorted(q for share in shares.values() for q in share) == sorted(
                self.WARM
            )
            assert all(shares.values())  # both owners got some of the seven
            for index, share in shares.items():
                assert all(pool._route(q, "d", False)[0] == index for q in share)
                counts = _counts(pool, index)
                assert counts["service.queries"] == len(share)
                assert counts["cache.plan.misses"] == len(share)

    @pytest.mark.parametrize("result_cache_size", [128, 0])
    def test_first_answers_after_registration_are_warm(self, result_cache_size):
        dtd = samples.cross_dtd()
        config = EngineConfig(result_cache_size=result_cache_size)
        with ProcessQueryService(
            dtd, config=config, workers=2, replicas=2, start_method="fork",
            warmup=self.WARM,
        ) as pool:
            owners = pool.register_generated("d", DocumentSpec(max_elements=300))
            before = {index: _counts(pool, index) for index in owners}
            for query in self.WARM:
                pool.answer(query, "d", include_nodes=False)
            for index in owners:
                after = _counts(pool, index)
                answered = after["service.queries"] - before[index]["service.queries"]
                assert answered > 0
                if result_cache_size:
                    hits = "cache.result.hits"
                    assert after[hits] - before[index].get(hits, 0) == answered
                else:
                    # Each answer ran one operator, its root selection: every
                    # temporary came from the store's shared table.
                    ops = "executor.batch_rows"
                    assert after[ops] - before[index][ops] == answered

    def test_a_batch_after_registration_reads_every_answer_from_cache(self):
        # A batch routes each query as answer does, so every query lands on
        # the owner that answered it at registration and cached the result.
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork", warmup=self.WARM
        ) as pool:
            owners = pool.register_generated("d", DocumentSpec(max_elements=300))
            assert len({pool._route(q, "d", False)[0] for q in self.WARM}) == 2
            before = {index: _counts(pool, index) for index in owners}
            batch = pool.answer_batch(self.WARM, "d", include_nodes=False)
            assert [answer.query for answer in batch] == self.WARM
            hits = "cache.result.hits"
            assert sum(
                _counts(pool, index)[hits] - before[index].get(hits, 0)
                for index in owners
            ) == len(self.WARM)

    def test_a_failing_warmup_query_does_not_fail_registration(self):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork",
            warmup=["a[[", "a//d", "nosuch//d"],
        ) as pool:
            owners = pool.register_generated("d", DocumentSpec(max_elements=60))
            assert len(owners) == 2
            assert pool.answer("a//d", "d").node_ids == pool.answer("a//d", "d").node_ids
            with pytest.raises(XPathSyntaxError):
                pool.answer("a[[", "d")


class TestConcurrentCallers:
    def test_racing_answers_and_batches_match_serial(self, serial):
        # More caller threads than cores, switching every 10 us: a reply
        # resolved under the wrong request id, or never, shows up here.
        dtd = samples.cross_dtd()
        expected = {query: _ids(serial.answer(query, "doc")) for query in QUERIES}
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork"
        ) as pool:
            pool.register_document("doc", generate_document(dtd, seed=3))
            mismatches, errors = [], []

            def caller(index):
                try:
                    for step in range(50):
                        if (index + step) % 2:
                            asked = [QUERIES[step % len(QUERIES)]]
                            answers = [pool.answer(asked[0], "doc", include_nodes=False)]
                        else:
                            asked = QUERIES[step % len(QUERIES):] + QUERIES
                            answers = pool.answer_batch(asked, "doc", include_nodes=False)
                        got = [(answer.query, list(answer.node_ids)) for answer in answers]
                        if got != [(query, expected[query]) for query in asked]:
                            mismatches.append((index, step, got))
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(repr(exc))

            threads = [threading.Thread(target=caller, args=(index,)) for index in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors[:3]
            assert not mismatches, mismatches[:3]
            assert all(not worker.pending for worker in pool._workers)


class TestCrashRecovery:
    def test_killed_worker_respawns_and_answers_again(self):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork", warmup=["a//d"]
        ) as pool:
            tree = generate_document(dtd, seed=3)
            pool.register_document("doc", tree)
            expected = list(pool.answer("a//d", "doc").node_ids)
            for index in range(2):  # kill *both* owners, one at a time
                pool._kill_worker(index)
                answer = pool.answer("a//d", "doc")
                assert list(answer.node_ids) == expected
            stats = pool.stats()
            assert stats["metrics"]["pool.respawns"]["value"] >= 2

    def test_a_respawned_owner_warms_after_replaying_the_log(self):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=1, replicas=1, start_method="fork", warmup=["a//d"]
        ) as pool:
            pool.register_generated("d", DocumentSpec(max_elements=200, seed=5))
            tree = DocumentSpec(max_elements=200, seed=5).generate(dtd)
            target = next(node for node in tree.nodes() if node.label == "d")
            pool.update_document([DeleteSubtree(target.node_id)], "d")
            expected = list(pool.answer("a//d", "d").node_ids)
            pool._kill_worker(0)
            assert list(pool.answer("a//d", "d").node_ids) == expected
            counts = _counts(pool, 0)
            # The replacement answered the warm-up query once after the
            # replay, so the answer above was a result-cache hit.
            assert counts["worker.starts"] == 1
            assert (counts["cache.result.misses"], counts["cache.result.hits"]) == (1, 1)

    def test_respawned_worker_recovers_generated_documents(self):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=1, replicas=1, start_method="fork"
        ) as pool:
            pool.register_generated("d", DocumentSpec(max_elements=40, seed=5))
            before = list(pool.answer("a//c", "d").node_ids)
            pool._kill_worker(0)
            assert list(pool.answer("a//c", "d").node_ids) == before


class TestStatsAndLifecycle:
    def test_stats_merge_worker_counters(self):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork"
        ) as pool:
            pool.register_document("doc", generate_document(dtd, seed=3))
            batch = pool.answer_batch(QUERIES * 4, "doc")
            assert len(batch) == 12
            metrics = pool.stats()["metrics"]
            # Both workers answered; the merged counter sees every query.
            assert metrics["service.queries"]["value"] == 12
            hist = metrics["worker.answer_seconds"]
            assert hist["count"] == 12
            assert hist["p50"] is not None and hist["min"] > 0
            assert metrics["worker.starts"]["value"] == 2

    def test_stats_after_close_use_final_snapshots(self):
        dtd = samples.cross_dtd()
        pool = ProcessQueryService(dtd, workers=2, replicas=2, start_method="fork")
        pool.register_document("doc", generate_document(dtd, seed=3))
        pool.answer("a//d", "doc")
        pool.close()
        stats = pool.stats()
        assert stats["closed"] is True
        assert stats["metrics"]["service.queries"]["value"] == 1

    def test_closed_pool_rejects_requests(self):
        dtd = samples.cross_dtd()
        pool = ProcessQueryService(dtd, workers=1, start_method="fork")
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(SessionClosedError):
            pool.answer("a//d", "doc")
        with pytest.raises(SessionClosedError):
            pool.register_generated("d")

    def test_workers_actually_are_separate_processes(self):
        import os

        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork"
        ) as pool:
            pool.register_document("doc", generate_document(dtd, seed=3))
            pids = {
                pool.stats()["metrics"]["worker.pid"]["value"],
            }
            worker_pids = {worker.process.pid for worker in pool._workers}
            assert os.getpid() not in worker_pids
            assert len(worker_pids) == 2


class _CollectorProbe(DocumentSpec):
    """A document recipe that reports, from inside a worker, its collector."""

    def generate(self, dtd):
        raise RuntimeError(
            f"collector enabled={gc.isenabled()} gen0={gc.get_threshold()[0]}"
        )


class _AllocatingSpec(DocumentSpec):
    """A document recipe that, inside the worker, keeps more than twice
    ``WORKER_GC_THRESHOLD`` containers alive before generating, so at least
    one generation-0 collection runs whatever count the worker starts from."""

    def generate(self, dtd):
        held = [[] for _ in range(2 * WORKER_GC_THRESHOLD + 1)]  # noqa: F841
        return super().generate(dtd)


class TestWorkerCollector:
    def test_collections_are_metered_and_the_collector_stays_on(self):
        dtd = samples.cross_dtd()
        with ProcessQueryService(dtd, workers=1, start_method="fork") as pool:
            pool.register_generated(
                "doc", _AllocatingSpec(x_l=14, x_r=4, max_elements=1000, seed=3)
            )
            pool.answer("a//d", "doc")  # cold: encodes the store, runs fixpoints
            metrics = pool.stats()["metrics"]
            assert metrics["worker.gc_collections.gen0"]["value"] > 0
            assert metrics["worker.gc_seconds"]["count"] > 0
            assert metrics["worker.gc_seconds"]["sum"] > 0
            with pytest.raises(
                WorkerError, match=f"enabled=True gen0={WORKER_GC_THRESHOLD}$"
            ):
                pool.register_generated("probe", _CollectorProbe())
            assert pool.document_ids() == ["doc"]

    def test_the_host_process_keeps_its_own_collector(self):
        threshold = gc.get_threshold()
        dtd = samples.cross_dtd()
        with ProcessQueryService(dtd, workers=1, start_method="fork") as pool:
            pool.register_generated("doc", DocumentSpec(max_elements=50))
            pool.answer("a//d", "doc")
        assert gc.get_threshold() == threshold
