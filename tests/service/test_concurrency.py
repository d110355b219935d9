"""Concurrency: 8 threads x 50 mixed queries == the serial answers (Issue 3).

The service's thread-safety claims, pinned: each SQLite store's one
connection used by one thread at a time (no "recursive use of cursors"),
lock-free reads on the memory engine, and a thread-safe plan/result cache.  Each
thread answers its own 50-query mixed workload and must observe exactly
the answers the same workload produces serially.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import EngineConfig
from repro.dtd import samples
from repro.service import QueryService
from repro.workloads.queries import CROSS_QUERIES, SCALABILITY_QUERY
from repro.xmltree.generator import generate_document

THREADS = 8
QUERIES_PER_THREAD = 50

# A mixed workload: recursive descent, qualifiers, negation, plain child steps.
MIXED_QUERIES = list(CROSS_QUERIES.values()) + [SCALABILITY_QUERY, "a/b", "a//c"]


def _workload(thread_index: int):
    """50 queries, phase-shifted per thread so threads interleave plans."""
    return [
        MIXED_QUERIES[(thread_index + i) % len(MIXED_QUERIES)]
        for i in range(QUERIES_PER_THREAD)
    ]


@pytest.fixture(scope="module")
def cross_setup():
    dtd = samples.cross_dtd()
    tree = generate_document(dtd, x_l=8, x_r=3, seed=7, max_elements=350)
    return dtd, tree


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("result_cache", [True, False])
def test_8_threads_x_50_queries_match_serial(cross_setup, backend, result_cache):
    dtd, tree = cross_setup
    config = EngineConfig(backend=backend)
    if not result_cache:
        config = config.with_(result_cache_size=0)
    with QueryService(dtd, config=config) as service:
        service.register_document("doc", tree)
        serial = {
            query: [node.node_id for node in service.answer(query)]
            for query in MIXED_QUERIES
        }

        errors = []
        mismatches = []
        barrier = threading.Barrier(THREADS)

        def worker(thread_index: int):
            try:
                barrier.wait()  # maximise interleaving
                for query in _workload(thread_index):
                    answer = [node.node_id for node in service.answer(query)]
                    if answer != serial[query]:
                        mismatches.append((thread_index, query))
            except Exception as exc:
                errors.append((thread_index, repr(exc)))

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    assert not errors, f"thread errors: {errors[:3]}"
    assert not mismatches, f"non-serial answers: {mismatches[:3]}"


def test_threaded_answer_batch_equals_serial_batch(cross_setup):
    """Whole batches answered from 4 threads at once equal the serial batch."""
    dtd, tree = cross_setup
    batch = [MIXED_QUERIES[i % len(MIXED_QUERIES)] for i in range(40)]
    for backend in ("memory", "sqlite"):
        # Result caching off, so every thread's batch really executes.
        config = EngineConfig(backend=backend, result_cache_size=0)
        with QueryService(dtd, config=config) as service:
            service.register_document("doc", tree)
            serial = service.answer_batch(batch)
            batches = [None] * 4
            errors = []
            barrier = threading.Barrier(len(batches))

            def worker(index: int):
                try:
                    barrier.wait()
                    batches[index] = service.answer_batch(batch)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(repr(exc))

            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(len(batches))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors, (backend, errors[:3])
        assert all(answers == serial for answers in batches), backend


def test_concurrent_registration_and_answering(cross_setup):
    """Registering new documents while other threads answer is safe."""
    dtd, tree = cross_setup
    extra = [
        generate_document(dtd, x_l=5, x_r=2, seed=seed, max_elements=120)
        for seed in range(4)
    ]
    with QueryService(dtd) as service:
        service.register_document("doc", tree)
        expected = [node.node_id for node in service.answer("a//d", "doc")]
        errors = []

        def register(index: int):
            try:
                service.register_document(f"extra-{index}", extra[index])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        def answer():
            try:
                for _ in range(20):
                    nodes = service.answer("a//d", "doc")
                    assert [node.node_id for node in nodes] == expected
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(repr(exc))

        threads = [threading.Thread(target=register, args=(i,)) for i in range(4)]
        threads += [threading.Thread(target=answer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(service.document_ids()) == 5
