"""The HTTP front end: routes, error statuses, and the verifying loadtest."""

from __future__ import annotations

import contextlib
import http.client
import json
import multiprocessing
import os
import socket
import threading

import pytest

from repro.dtd import samples
from repro.fuzz.cases import DocumentSpec
from repro.service import ProcessQueryService, QueryService
from repro.service.http import _MAX_HEADERS, QueryHTTPServer, run_loadtest
from repro.xmltree.generator import generate_document

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="http tests use the fork start method for speed",
)

DOC_SPEC = DocumentSpec(max_elements=200, seed=4)


@contextlib.contextmanager
def _serving(pool):
    """Serve ``pool`` on an ephemeral port from a thread: (host, port, pool)."""
    http_server = QueryHTTPServer(pool, port=0)
    ready = threading.Event()
    thread = threading.Thread(
        target=http_server.run,
        kwargs={"ready": lambda _url: ready.set()},
        daemon=True,
        name="test-http-server",
    )
    thread.start()
    try:
        assert ready.wait(10), "server did not come up"
        yield http_server.host, http_server.port, pool
    finally:
        http_server.request_stop()
        thread.join(10)
        assert not thread.is_alive()


@pytest.fixture(scope="module")
def server():
    """One live server for the whole module: (host, port, pool)."""
    dtd = samples.cross_dtd()
    with ProcessQueryService(
        dtd, workers=2, replicas=2, start_method="fork", warmup=["a//d"]
    ) as pool:
        pool.register_generated("doc0", DOC_SPEC)
        pool.register_document(
            "tree-doc", generate_document(dtd, seed=9, max_elements=120)
        )
        with _serving(pool) as served:
            yield served


def _request(server, method, path, payload=None):
    host, port, _pool = server
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        body = json.dumps(payload) if payload is not None else None
        connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else None
    finally:
        connection.close()


def _raw_exchange(server, head: bytes) -> bytes:
    """Send raw request bytes; return everything the server sends back."""
    host, port, _pool = server
    received = []
    with socket.create_connection((host, port), timeout=30) as sock:
        try:
            sock.sendall(head)
        except ConnectionError:
            pass  # the server may answer and close before reading it all
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received.append(chunk)
        except ConnectionResetError:
            pass
    return b"".join(received)


@pytest.fixture(scope="module")
def oracle():
    dtd = samples.cross_dtd()
    service = QueryService(dtd)
    service.register_document("doc0", DOC_SPEC.generate(dtd))
    yield service
    service.close()


class TestRoutes:
    def test_healthz(self, server):
        assert _request(server, "GET", "/healthz") == (200, {"status": "ok"})

    def test_answer_matches_serial_oracle(self, server, oracle):
        status, payload = _request(
            server, "POST", "/answer", {"query": "a//d", "document": "doc0"}
        )
        assert status == 200
        expected = [node.node_id for node in oracle.answer("a//d", "doc0")]
        assert payload["node_ids"] == expected
        assert payload["count"] == len(expected)
        assert len(payload["labels"]) == len(expected)

    def test_answer_without_nodes_ships_ids_only(self, server):
        status, payload = _request(
            server,
            "POST",
            "/answer",
            {"query": "a//d", "document": "doc0", "include_nodes": False},
        )
        assert status == 200
        assert "labels" not in payload and "values" not in payload
        assert payload["node_ids"]

    def test_batch_preserves_order(self, server, oracle):
        queries = ["a//d", "a", "a//c"]
        status, payload = _request(
            server, "POST", "/batch", {"queries": queries, "document": "doc0"}
        )
        assert status == 200
        assert [answer["query"] for answer in payload["answers"]] == queries
        for answer in payload["answers"]:
            expected = [
                node.node_id for node in oracle.answer(answer["query"], "doc0")
            ]
            assert answer["node_ids"] == expected

    def test_stats_merges_pool_and_http(self, server):
        _request(server, "POST", "/answer", {"query": "a//d", "document": "doc0"})
        status, payload = _request(server, "GET", "/stats")
        assert status == 200
        assert payload["http"]["http.requests"]["value"] >= 1
        assert payload["pool"]["workers"] == 2
        assert payload["pool"]["metrics"]["service.queries"]["value"] >= 1

    def test_meta_carries_recipes_for_generated_documents(self, server):
        status, payload = _request(server, "GET", "/meta")
        assert status == 200
        assert payload["dtd_name"] == "cross"
        assert "a" in payload["dtd_text"]  # grammar text is present
        assert payload["config"]["backend"] == "memory"
        assert payload["documents"]["doc0"]["max_elements"] == 200
        assert payload["documents"]["tree-doc"] is None  # no recipe for trees


class TestErrorStatuses:
    def test_syntax_error_is_400(self, server):
        status, payload = _request(
            server, "POST", "/answer", {"query": "a//", "document": "doc0"}
        )
        assert status == 400
        assert payload["error"] == "XPathSyntaxError"

    def test_unknown_document_is_404(self, server):
        status, payload = _request(
            server, "POST", "/answer", {"query": "a//d", "document": "nope"}
        )
        assert status == 404
        assert payload["error"] == "UnknownDocumentError"

    def test_missing_query_is_400(self, server):
        status, payload = _request(server, "POST", "/answer", {})
        assert status == 400
        assert payload["error"] == "BadRequest"

    def test_unroutable_path_is_404(self, server):
        status, payload = _request(server, "GET", "/nope")
        assert status == 404

    def test_malformed_json_is_400(self, server):
        host, port, _pool = server
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("POST", "/answer", body="not json")
            response = connection.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"] == "BadRequest"
        finally:
            connection.close()


class TestBoundedRequestHead:
    def test_over_long_header_line_is_400(self, server):
        head = b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n"
        response = _raw_exchange(server, head)
        assert response.startswith(b"HTTP/1.1 400 "), response[:80]
        assert b"too long" in response
        assert b"Connection: close" in response

    def test_header_count_is_capped(self, server):
        def request(header_lines: int) -> bytes:
            head = (
                b"GET /healthz HTTP/1.1\r\n"
                + b"X-Pad: 1\r\n" * (header_lines - 1)
                + b"Connection: close\r\n\r\n"
            )
            return _raw_exchange(server, head)

        assert request(_MAX_HEADERS).startswith(b"HTTP/1.1 200 ")
        response = request(_MAX_HEADERS + 1)
        assert response.startswith(b"HTTP/1.1 400 "), response[:80]
        assert b"header lines" in response


class TestLoadtest:
    def test_verified_loadtest_reports_zero_mismatches(self, server):
        host, port, _pool = server
        report = run_loadtest(
            host, port, budget=60, concurrency=8, seed=3, query_pool=15
        )
        assert report["ok"] is True
        assert report["requests"] == 60
        assert report["failures"] == 0 and report["mismatches"] == 0
        assert report["verified"] is True
        assert report["documents"] == 1  # tree-doc has no recipe: skipped
        assert report["rps"] > 0
        assert report["p50_ms"] is not None and report["p99_ms"] is not None
        json.dumps(report)  # the CLI prints it verbatim

    def test_an_answer_the_reference_disagrees_with_is_a_mismatch(
        self, server, monkeypatch
    ):
        # The loadtest checks answers against the XPath evaluator, not
        # against another copy of the engine: an evaluator that disagrees
        # with the server on every query turns every answer into a mismatch.
        from repro.xpath import evaluator

        real = evaluator.evaluate_xpath

        def disagreeing(tree, path):
            nodes = real(tree, path)
            return nodes[1:] if nodes else [tree.root]

        monkeypatch.setattr(evaluator, "evaluate_xpath", disagreeing)
        host, port, _pool = server
        report = run_loadtest(host, port, budget=12, concurrency=2, seed=3, query_pool=6)
        assert report["failures"] == 0
        assert report["mismatches"] == report["requests"] == 12
        assert "reference=" in report["mismatch_samples"][0]
        assert report["ok"] is False

    def test_unverified_loadtest_still_counts_requests(self, server):
        host, port, _pool = server
        report = run_loadtest(
            host, port, budget=10, concurrency=2, seed=5, verify=False
        )
        assert report["requests"] == 10
        assert report["verified"] is False
        # without an oracle every registered document is fair game
        assert report["documents"] == 2


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts OS threads in /proc"
)
class TestThreadInventory:
    def test_one_reader_per_worker_and_single_threaded_workers(self, oracle):
        # 8 clients, 100 /answer requests: the parent gains one pool reader
        # per worker and no other thread; each worker runs one OS thread.
        queries = ["a//d", "a//c", "a"]
        expected = {
            query: [node.node_id for node in oracle.answer(query, "doc0")]
            for query in queries
        }
        before = set(threading.enumerate())
        dtd = samples.cross_dtd()
        with ProcessQueryService(
            dtd, workers=2, replicas=2, start_method="fork"
        ) as pool:
            pool.register_generated("doc0", DOC_SPEC)
            with _serving(pool) as (host, port, _pool):
                requests = iter(range(100))
                lock = threading.Lock()
                outcomes = []

                def client():
                    connection = http.client.HTTPConnection(host, port, timeout=30)
                    try:
                        while True:
                            with lock:
                                index = next(requests, None)
                            if index is None:
                                return
                            query = queries[index % len(queries)]
                            body = {"query": query, "include_nodes": False}
                            connection.request("POST", "/answer", json.dumps(body))
                            response = connection.getresponse()
                            payload = json.loads(response.read())
                            outcomes.append((response.status, query, payload))
                    finally:
                        connection.close()

                clients = [threading.Thread(target=client) for _ in range(8)]
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(60)
                assert not any(thread.is_alive() for thread in clients)
                added = set(threading.enumerate()) - before
                tasks = [
                    len(os.listdir(f"/proc/{worker.process.pid}/task"))
                    for worker in pool._workers
                ]
        assert len(outcomes) == 100
        for status, query, payload in outcomes:
            assert status == 200, payload
            assert payload["node_ids"] == expected[query]
        assert sorted(thread.name for thread in added) == [
            "repro-pool-reader-0",
            "repro-pool-reader-1",
            "test-http-server",
        ]
        assert tasks == [1, 1]


class TestCrashRetry:
    def test_answer_whose_worker_died_is_retried_on_a_respawn(self, oracle):
        dtd = samples.cross_dtd()
        with ProcessQueryService(dtd, workers=1, start_method="fork") as pool:
            pool.register_generated("doc0", DOC_SPEC)
            with _serving(pool) as served:
                pool._kill_worker(0)
                status, payload = _request(
                    served, "POST", "/answer", {"query": "a//d", "document": "doc0"}
                )
            assert status == 200, payload
            assert payload["node_ids"] == [
                node.node_id for node in oracle.answer("a//d", "doc0")
            ]
            assert pool.stats()["metrics"]["pool.respawns"]["value"] == 1
