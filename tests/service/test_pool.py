"""ProcessQueryService behaviour: routing, errors, crash recovery, stats."""

from __future__ import annotations

import gc
import multiprocessing
import threading

import pytest

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
from repro.service import PoolAnswer, ProcessQueryService, QueryService
from repro.service.pool import WORKER_GC_THRESHOLD
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


class TestRegistration:
    def test_owners_register_at_the_same_time(self, monkeypatch):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork"
        ) as pool:
            # Each owner's call waits for the other's to start: one after
            # another, the first would break the barrier.
            barrier = threading.Barrier(2, timeout=10)
            call = pool._call

            def meet_then_call(index, kind, *rest):
                barrier.wait()
                return call(index, kind, *rest)

            monkeypatch.setattr(pool, "_call", meet_then_call)
            owners = pool.register_generated("d", DocumentSpec(max_elements=20))
            assert len(owners) == 2
            assert pool.document_ids() == ["d"]

    @pytest.mark.parametrize("failing", [0, 1], ids=["first-owner", "second-owner"])
    def test_one_failing_owner_registers_nothing(self, monkeypatch, failing):
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork"
        ) as pool:
            call = pool._call
            broken = pool._owner_indices("d")[failing]

            def one_owner_fails(index, kind, *rest):
                if kind == "register_spec" and index == broken:
                    raise WorkerCrashError(f"pool worker {index} crashed again")
                return call(index, kind, *rest)

            monkeypatch.setattr(pool, "_call", one_owner_fails)
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
            call = pool._call

            def hold_the_first_registration(index, kind, *rest):
                if kind == "register_spec" and not started.is_set():
                    started.set()
                    release.wait(10)
                return call(index, kind, *rest)

            monkeypatch.setattr(pool, "_call", hold_the_first_registration)
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
            assert pool.document_ids() == ["d"]


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


class TestWorkerCollector:
    def test_collections_are_metered_and_the_collector_stays_on(self):
        dtd = samples.cross_dtd()
        with ProcessQueryService(dtd, workers=1, start_method="fork") as pool:
            pool.register_generated(
                "doc", DocumentSpec(x_l=14, x_r=4, max_elements=1000, seed=3)
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
